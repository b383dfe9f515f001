//! Behaviour pins: for each workload and pinned seed, the FNV-1a digest of
//! the run's full JSONL trace and the events it dispatched. Regenerate with
//! `perfbench pin` after a change that is meant to alter behaviour, and say
//! why in its description.

pub struct Pin {
    pub workload: &'static str,
    pub seed: u64,
    pub digest: &'static str,
    pub events: u64,
}

/// The pin for `(workload, seed)`, if that seed is pinned.
pub fn lookup(workload: &str, seed: u64) -> Option<&'static Pin> {
    PINS.iter()
        .find(|p| p.workload == workload && p.seed == seed)
}

/// Seeds `perfbench pin` records when none are named.
pub const PINNED_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

pub const PINS: &[Pin] = &[
    Pin {
        workload: "packet_fattree",
        seed: 1,
        digest: "c1649a2838b3111c",
        events: 8220080,
    },
    Pin {
        workload: "packet_fattree",
        seed: 2,
        digest: "8d1f361abf10117b",
        events: 7984263,
    },
    Pin {
        workload: "packet_fattree",
        seed: 3,
        digest: "afc366b69988bff3",
        events: 8155290,
    },
    Pin {
        workload: "packet_fattree",
        seed: 4,
        digest: "a55e0268402ec6ff",
        events: 7954971,
    },
    Pin {
        workload: "packet_fattree",
        seed: 5,
        digest: "3d18b7e8b349ca73",
        events: 8047467,
    },
    Pin {
        workload: "packet_fattree",
        seed: 6,
        digest: "8125aa9858de465f",
        events: 8201589,
    },
    Pin {
        workload: "packet_fattree",
        seed: 7,
        digest: "aeb45d1e0acd3844",
        events: 8094080,
    },
    Pin {
        workload: "packet_fattree",
        seed: 8,
        digest: "9bf96009fa29127b",
        events: 8152504,
    },
    Pin {
        workload: "packet_fattree",
        seed: 9,
        digest: "5ed51444054eebf2",
        events: 8046641,
    },
    Pin {
        workload: "packet_fattree",
        seed: 10,
        digest: "ec50bae23293e069",
        events: 8257332,
    },
    Pin {
        workload: "packet_scenc_faults",
        seed: 1,
        digest: "bd21f0842004d4cf",
        events: 1751552,
    },
    Pin {
        workload: "packet_scenc_faults",
        seed: 2,
        digest: "80422e26b5fb38f7",
        events: 1757617,
    },
    Pin {
        workload: "packet_scenc_faults",
        seed: 3,
        digest: "ab302b5b80de50b0",
        events: 1760775,
    },
    Pin {
        workload: "packet_scenc_faults",
        seed: 4,
        digest: "f03ba8797911c2f2",
        events: 1759882,
    },
    Pin {
        workload: "packet_scenc_faults",
        seed: 5,
        digest: "eaeba593c1ddf2c0",
        events: 1762829,
    },
    Pin {
        workload: "packet_scenc_faults",
        seed: 6,
        digest: "962777d333e8744a",
        events: 1758685,
    },
    Pin {
        workload: "packet_scenc_faults",
        seed: 7,
        digest: "9e32bb7024b6813a",
        events: 1758119,
    },
    Pin {
        workload: "packet_scenc_faults",
        seed: 8,
        digest: "e3e04672d3897022",
        events: 1751341,
    },
    Pin {
        workload: "packet_scenc_faults",
        seed: 9,
        digest: "fc59844019c0fe33",
        events: 1761580,
    },
    Pin {
        workload: "packet_scenc_faults",
        seed: 10,
        digest: "5ce7c204d9067728",
        events: 1760063,
    },
    Pin {
        workload: "flow_churn",
        seed: 1,
        digest: "6c130b2986ee946a",
        events: 41104,
    },
    Pin {
        workload: "flow_churn",
        seed: 2,
        digest: "1333b5336ecd8200",
        events: 41231,
    },
    Pin {
        workload: "flow_churn",
        seed: 3,
        digest: "8bfdb18437d3d0d5",
        events: 41131,
    },
    Pin {
        workload: "flow_churn",
        seed: 4,
        digest: "16f86b0cd850fad9",
        events: 41210,
    },
    Pin {
        workload: "flow_churn",
        seed: 5,
        digest: "b8149bf81f7a8710",
        events: 41172,
    },
    Pin {
        workload: "flow_churn",
        seed: 6,
        digest: "62c538c00e6ee441",
        events: 40906,
    },
    Pin {
        workload: "flow_churn",
        seed: 7,
        digest: "d58aa3e5d4cb04ce",
        events: 40721,
    },
    Pin {
        workload: "flow_churn",
        seed: 8,
        digest: "5e17a8daf9695bd2",
        events: 41431,
    },
    Pin {
        workload: "flow_churn",
        seed: 9,
        digest: "9200ececc8e3dac1",
        events: 41027,
    },
    Pin {
        workload: "flow_churn",
        seed: 10,
        digest: "4d564248b1df2c48",
        events: 40937,
    },
];
