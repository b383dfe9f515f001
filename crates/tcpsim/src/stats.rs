//! Connection configuration and the shared observation handles.

use std::cell::RefCell;
use std::rc::Rc;

use eventsim::{SimDuration, SimTime};
use metrics::TimeSeries;

/// Static TCP parameters for a connection, mirroring the testbed setup
/// (§III) and the Linux implementation details of §IV-B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size in bytes; every data packet carries one MSS.
    pub mss: u32,
    /// ACK wire size in bytes.
    pub ack_size: u32,
    /// Initial congestion window in MSS (IW=2, era-appropriate).
    pub initial_cwnd: f64,
    /// Initial slow-start threshold in MSS. `ConnectionSpec` lowers this to
    /// 1 MSS for multipath OLIA connections per §IV-B.
    pub init_ssthresh: f64,
    /// Receive window in MSS (effective window = min(cwnd, rcv_wnd)).
    pub rcv_wnd: f64,
    /// Minimum RTO (Linux: 200 ms).
    pub min_rto: SimDuration,
    /// Maximum RTO after backoff.
    pub max_rto: SimDuration,
    /// RTO used before the first RTT sample (RFC 6298: 1 s).
    pub initial_rto: SimDuration,
    /// RTT assumed by the congestion-control coupling before the first
    /// sample, seconds.
    pub initial_rtt: f64,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupack_threshold: u32,
    /// Delayed-ACK factor: the sink ACKs every `ack_every`-th in-order
    /// packet (out-of-order arrivals are ACKed immediately, per RFC 5681).
    /// 1 = ACK every packet (the testbed equations assume this).
    pub ack_every: u32,
    /// Enable the path-pruning extension sketched in the paper's §VII
    /// future work ("discarding bad paths from the set of available
    /// paths"): a subflow whose inter-loss distance ℓ is a tiny fraction of
    /// the best path's gets removed from the established set for a cooldown
    /// period, eliminating even the 1-MSS probing traffic.
    pub prune_paths: bool,
    /// How long a pruned subflow stays out before re-probing.
    pub prune_cooldown: SimDuration,
    /// Prune when a subflow's quality `ℓ/rtt²` falls below this fraction of
    /// the best subflow's.
    pub prune_quality_ratio: f64,
    /// Record per-subflow window traces, plus α traces for multipath OLIA
    /// (Figs. 7–8). Off by default: traces cost memory in large experiments.
    pub trace: bool,
    /// Consecutive RTOs before a subflow of a multipath connection is
    /// classified [`PathHealth::PotentiallyFailed`] (no new data is
    /// scheduled on it, retransmissions continue).
    pub pf_rto_threshold: u32,
    /// Consecutive RTOs before a subflow of a multipath connection is
    /// classified [`PathHealth::Failed`]: it leaves the established set
    /// (excluded from the LIA/OLIA coupling), stops transmitting, and
    /// switches to timed re-probes.
    pub fail_rto_threshold: u32,
    /// Delay before the first re-probe of a failed subflow.
    pub reprobe_initial: SimDuration,
    /// Cap on the re-probe interval (each unanswered probe doubles the
    /// interval up to this bound, so a restored path is rediscovered within
    /// one cap's worth of time).
    pub reprobe_max: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1500,
            ack_size: 40,
            initial_cwnd: 2.0,
            init_ssthresh: 1e9,
            rcv_wnd: 1e9,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
            initial_rtt: 0.2,
            dupack_threshold: 3,
            ack_every: 1,
            prune_paths: false,
            prune_cooldown: SimDuration::from_secs(5),
            prune_quality_ratio: 0.05,
            trace: false,
            pf_rto_threshold: 2,
            fail_rto_threshold: 4,
            reprobe_initial: SimDuration::from_secs(1),
            reprobe_max: SimDuration::from_secs(8),
        }
    }
}

thread_local! {
    /// Interned configs: experiments install thousands of connections
    /// sharing a handful of distinct configs, so sources hold an `Rc` into
    /// this pool instead of a 100+-byte inline copy each. Linear scan — the
    /// pool stays tiny (configs per experiment, not per connection).
    static CONFIGS: RefCell<Vec<Rc<TcpConfig>>> = const { RefCell::new(Vec::new()) };
}

/// The shared handle for `cfg`, interning it on first sight.
pub(crate) fn intern_config(cfg: &TcpConfig) -> Rc<TcpConfig> {
    CONFIGS.with(|cell| {
        let mut pool = cell.borrow_mut();
        match pool.iter().find(|c| ***c == *cfg) {
            Some(rc) => Rc::clone(rc),
            None => {
                let rc = Rc::new(*cfg);
                pool.push(Rc::clone(&rc));
                rc
            }
        }
    })
}

/// Health classification of one subflow, maintained by the source's path
/// manager (multipath connections only; single-path flows always stay
/// `Active` and keep classic RTO backoff).
///
/// `Active → PotentiallyFailed` after [`TcpConfig::pf_rto_threshold`]
/// consecutive RTOs, `→ Failed` after [`TcpConfig::fail_rto_threshold`];
/// any ACK that advances the cumulative ACK point restores `Active`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathHealth {
    /// Normal operation: data is scheduled and the subflow participates in
    /// the coupled congestion control.
    #[default]
    Active,
    /// Several consecutive RTOs: still retransmitting (which doubles as
    /// probing), but no *new* data is scheduled on the subflow.
    PotentiallyFailed,
    /// Declared dead: out of the established set, no transmissions except
    /// timed re-probes with capped exponential backoff.
    Failed,
}

/// Per-subflow observable state, updated by the source.
#[derive(Debug, Clone, Default)]
pub struct SubflowStats {
    /// Current congestion window, MSS.
    pub cwnd: f64,
    /// Current smoothed RTT, seconds (0 before the first sample).
    pub srtt: f64,
    /// Cumulative packets ACKed on this subflow.
    pub acked_packets: u64,
    /// Packets ACKed at the last reset (for windowed rates).
    pub acked_at_reset: u64,
    /// Loss events (fast retransmits + timeouts) seen by this subflow.
    ///
    /// Event counters are `u32`: loss/timeout/failure/probe events are rare
    /// relative to packets (billions of ACKs before any of these could
    /// approach 2³², far past any simulated horizon), and per-subflow stats
    /// are replicated across every connection in the fabric.
    pub loss_events: u32,
    /// Retransmission timeouts.
    pub timeouts: u32,
    /// Current RTO backoff exponent (0 after any advancing ACK; each
    /// consecutive timeout increments it).
    pub backoff: u32,
    /// Current path-manager classification.
    pub health: PathHealth,
    /// Transitions into [`PathHealth::Failed`].
    pub failures: u32,
    /// Re-probe packets sent while failed.
    pub reprobes: u32,
    /// When the subflow last came back from `Failed` to `Active`.
    pub last_recovered_at: Option<SimTime>,
    /// Window and α traces, allocated only when `TcpConfig::trace` is set —
    /// at FatTree scale the untraced common case must not pay two inline
    /// `TimeSeries` per subflow.
    pub traces: Option<Box<SubflowTraces>>,
}

/// The optional per-subflow time-series traces (Figs. 7–8).
#[derive(Debug, Clone, Default)]
pub struct SubflowTraces {
    /// Congestion-window samples.
    pub cwnd: TimeSeries,
    /// OLIA α samples (only populated when the algorithm computes α).
    pub alpha: TimeSeries,
}

impl SubflowStats {
    /// The trace block, allocating it on first use (tracing connections
    /// only).
    pub fn traces_mut(&mut self) -> &mut SubflowTraces {
        self.traces.get_or_insert_with(Box::default)
    }
}

/// Shared observable state of one connection.
#[derive(Debug)]
pub struct FlowStats {
    /// MSS copied from the config, for byte conversions.
    pub mss: u32,
    /// Unique in-order packets delivered at the sink (receiver goodput, what
    /// Iperf reports), summed across subflows.
    pub delivered_packets: u64,
    /// Packets delivered to the application in connection-level (DSN) order
    /// — lags `delivered_packets` while a slow subflow head-of-line blocks
    /// the MPTCP reorder buffer.
    pub app_delivered_packets: u64,
    /// High-water mark of the connection-level reorder buffer, packets.
    pub max_reorder_buffer: u64,
    /// Delivered count at the last reset.
    pub delivered_at_reset: u64,
    /// When the measurement window started.
    pub reset_time: SimTime,
    /// When the source's `start` hook ran.
    pub started_at: Option<SimTime>,
    /// When the last byte of a finite flow was cumulatively ACKed.
    pub completed_at: Option<SimTime>,
    /// Per-subflow state.
    pub subflows: Vec<SubflowStats>,
}

/// A cheaply-cloneable handle to a connection's [`FlowStats`].
///
/// The simulation is single-threaded, so `Rc<RefCell<_>>` is the right
/// sharing primitive: the source and sink endpoints update the stats, the
/// experiment harness reads them.
#[derive(Debug, Clone)]
pub struct FlowHandle {
    inner: Rc<RefCell<FlowStats>>,
}

impl FlowHandle {
    /// A fresh handle for a connection with `n_subflows` subflows.
    pub fn new(mss: u32, n_subflows: usize) -> FlowHandle {
        FlowHandle {
            inner: Rc::new(RefCell::new(FlowStats {
                mss,
                delivered_packets: 0,
                app_delivered_packets: 0,
                max_reorder_buffer: 0,
                delivered_at_reset: 0,
                reset_time: SimTime::ZERO,
                started_at: None,
                completed_at: None,
                subflows: vec![SubflowStats::default(); n_subflows],
            })),
        }
    }

    /// Mutate the stats (used by the endpoints).
    pub fn update<R>(&self, f: impl FnOnce(&mut FlowStats) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }

    /// Read the stats.
    pub fn read<R>(&self, f: impl FnOnce(&FlowStats) -> R) -> R {
        f(&self.inner.borrow())
    }

    /// Restart the measurement window at `now` (discard warmup).
    pub fn reset(&self, now: SimTime) {
        self.update(|s| {
            s.delivered_at_reset = s.delivered_packets;
            s.reset_time = now;
            for sf in &mut s.subflows {
                sf.acked_at_reset = sf.acked_packets;
            }
        });
    }

    /// Sink-side goodput in Mb/s since the last reset.
    pub fn goodput_mbps(&self, now: SimTime) -> f64 {
        self.read(|s| {
            let dt = now.saturating_since(s.reset_time).as_secs_f64();
            if dt <= 0.0 {
                return 0.0;
            }
            let pkts = s.delivered_packets - s.delivered_at_reset;
            pkts as f64 * s.mss as f64 * 8.0 / dt / 1e6
        })
    }

    /// Source-side ACKed rate of one subflow in Mb/s since the last reset.
    pub fn subflow_mbps(&self, idx: usize, now: SimTime) -> f64 {
        self.read(|s| {
            let dt = now.saturating_since(s.reset_time).as_secs_f64();
            if dt <= 0.0 {
                return 0.0;
            }
            let sf = &s.subflows[idx];
            (sf.acked_packets - sf.acked_at_reset) as f64 * s.mss as f64 * 8.0 / dt / 1e6
        })
    }

    /// Flow completion time in seconds, if the flow was finite and finished.
    pub fn completion_time(&self) -> Option<f64> {
        self.read(|s| {
            let (start, end) = (s.started_at?, s.completed_at?);
            Some(end.saturating_since(start).as_secs_f64())
        })
    }

    /// Number of subflows.
    pub fn num_subflows(&self) -> usize {
        self.read(|s| s.subflows.len())
    }

    /// Clone of one subflow's window trace points (empty when the
    /// connection was not tracing).
    pub fn cwnd_trace(&self, idx: usize) -> Vec<(f64, f64)> {
        self.read(|s| {
            s.subflows[idx]
                .traces
                .as_ref()
                .map(|t| t.cwnd.points().to_vec())
                .unwrap_or_default()
        })
    }

    /// Clone of one subflow's α trace points (empty when not tracing, and
    /// for every algorithm but multipath OLIA).
    pub fn alpha_trace(&self, idx: usize) -> Vec<(f64, f64)> {
        self.read(|s| {
            s.subflows[idx]
                .traces
                .as_ref()
                .map(|t| t.alpha.points().to_vec())
                .unwrap_or_default()
        })
    }

    /// Total loss events across subflows.
    pub fn loss_events(&self) -> u64 {
        self.read(|s| s.subflows.iter().map(|f| u64::from(f.loss_events)).sum())
    }

    /// Packets delivered to the application in connection order, and the
    /// reorder-buffer high-water mark.
    pub fn app_delivery(&self) -> (u64, u64) {
        self.read(|s| (s.app_delivered_packets, s.max_reorder_buffer))
    }

    /// Current path-manager classification of one subflow.
    pub fn path_health(&self, idx: usize) -> PathHealth {
        self.read(|s| s.subflows[idx].health)
    }

    /// Failure transitions and re-probe packets of one subflow.
    pub fn failure_counts(&self, idx: usize) -> (u64, u64) {
        self.read(|s| {
            let f = &s.subflows[idx];
            (u64::from(f.failures), u64::from(f.reprobes))
        })
    }

    /// When one subflow last recovered from `Failed` back to `Active`.
    pub fn last_recovered_at(&self, idx: usize) -> Option<SimTime> {
        self.read(|s| s.subflows[idx].last_recovered_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_accounting() {
        let h = FlowHandle::new(1500, 1);
        h.update(|s| s.delivered_packets = 1000);
        h.reset(SimTime::from_secs_f64(10.0));
        h.update(|s| s.delivered_packets += 100);
        // 100 pkts · 1500 B · 8 over 1 s = 1.2 Mb/s.
        let g = h.goodput_mbps(SimTime::from_secs_f64(11.0));
        assert!((g - 1.2).abs() < 1e-9);
    }

    #[test]
    fn subflow_rate_accounting() {
        let h = FlowHandle::new(1500, 2);
        h.update(|s| s.subflows[1].acked_packets = 50);
        h.reset(SimTime::from_secs_f64(1.0));
        h.update(|s| s.subflows[1].acked_packets += 200);
        let r = h.subflow_mbps(1, SimTime::from_secs_f64(3.0));
        assert!((r - 200.0 * 1500.0 * 8.0 / 2.0 / 1e6).abs() < 1e-9);
        assert_eq!(h.subflow_mbps(0, SimTime::from_secs_f64(3.0)), 0.0);
    }

    #[test]
    fn completion_time() {
        let h = FlowHandle::new(1500, 1);
        assert_eq!(h.completion_time(), None);
        h.update(|s| {
            s.started_at = Some(SimTime::from_secs_f64(1.0));
            s.completed_at = Some(SimTime::from_secs_f64(1.25));
        });
        assert!((h.completion_time().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_window_rates() {
        let h = FlowHandle::new(1500, 1);
        assert_eq!(h.goodput_mbps(SimTime::ZERO), 0.0);
    }

    #[test]
    fn config_default_sane() {
        let c = TcpConfig::default();
        assert_eq!(c.mss, 1500);
        assert!(c.initial_cwnd >= 1.0);
        assert!(c.min_rto < c.max_rto);
        assert_eq!(c.dupack_threshold, 3);
        assert!(!c.trace);
    }
}

#[cfg(test)]
mod size_regression {
    /// Stats blocks are shared per connection but their subflow vector is
    /// per-subflow; u32 event counters and boxed traces keep them small.
    #[test]
    fn stats_stay_lean() {
        assert!(std::mem::size_of::<super::SubflowStats>() <= 80);
        assert!(std::mem::size_of::<super::FlowStats>() <= 104);
    }
}
