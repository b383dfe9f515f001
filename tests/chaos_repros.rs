//! Regression fixtures from chaos-search campaigns.
//!
//! Every file under `tests/fixtures/chaos/` is a minimal repro the fuzzer
//! once shrank from a real invariant violation (here: a `reprobe_max`
//! raised past the paper's 8 s cap, planted to validate the search). The
//! fixtures are replayed on every test run:
//!
//! * on the fixed tree each case must be **green** — zero oracle
//!   violations — and byte-deterministic (two replays, identical digests);
//! * with the original bug re-injected each case must still **reproduce**
//!   the violation it was shrunk from, proving the fixture has not rotted
//!   into a vacuous pass.
//!
//! Add new fixtures with `chaos campaign ... --out results/chaos` and copy
//! the shrunk `repro_*.json` here under a name describing the bug.

use std::path::PathBuf;

use chaos::{run_case, run_case_with, ChaosCase};
use eventsim::SimDuration;
use tcpsim::TcpConfig;

fn fixtures() -> Vec<(String, ChaosCase)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("chaos");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "no chaos fixtures found in {}",
        dir.display()
    );
    entries
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: invalid JSON: {e}"));
            let case = ChaosCase::from_json(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, case)
        })
        .collect()
}

#[test]
fn fixtures_replay_green_and_deterministic_on_the_fixed_tree() {
    for (name, case) in fixtures() {
        let first = run_case(&case);
        assert!(
            first.ok(),
            "{name}: regression fixture violates on the fixed tree: {:?}",
            first.violations
        );
        assert!(first.delivered > 0, "{name}: replay moved no traffic");
        let second = run_case(&case);
        assert_eq!(
            first.digest, second.digest,
            "{name}: replay is not byte-deterministic"
        );
    }
}

#[test]
fn fixtures_still_reproduce_their_original_bug() {
    // All current fixtures were shrunk from the planted re-probe-cap bug
    // (reprobe_max = 16 s vs the 8 s spec the oracle pins).
    let buggy = TcpConfig {
        reprobe_max: SimDuration::from_secs(16),
        ..TcpConfig::default()
    };
    for (name, case) in fixtures() {
        assert!(
            name.starts_with("reprobe_cap_"),
            "{name}: new fixture family — teach this test its bug injection"
        );
        let v = run_case_with(&case, buggy);
        assert_eq!(
            v.category(),
            Some("re-probe backoff exceeds cap"),
            "{name}: fixture no longer reproduces under the re-injected bug: {:?}",
            v.violations
        );
        // Reproduction is itself deterministic.
        assert_eq!(v.digest, run_case_with(&case, buggy).digest, "{name}");
    }
}
