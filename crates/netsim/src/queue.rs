//! Queues: serialization, propagation, and drop disciplines.
//!
//! Each queue models one link direction: the head packet serializes at
//! `rate` bits/s; when fully serialized it propagates for `latency` and then
//! arrives at the next hop. Admission is decided on enqueue by the
//! [`Discipline`]: drop-tail, or the RED profile the paper configured in its
//! Click routers (§III, Testbed Setup).

use std::collections::VecDeque;

use eventsim::{SimDuration, SimRng, SimTime};
use trace::DropReason;

use crate::arena::PacketRef;

/// RED (random early detection) parameters, paper-profile shaped:
///
/// * drop probability 0 below `min_th` packets,
/// * rising linearly to `max_p` at `max_th`,
/// * then linearly to 1 at `2·max_th` (the "gentle" region),
/// * hard drop above `limit` packets.
///
/// The paper's 10 Mb/s baseline: `min_th = 25`, `max_th = 50`,
/// `max_p = 0.1`, `limit = 300`, thresholds scaled proportionally with link
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedParams {
    /// No drops below this queue length (packets).
    pub min_th: f64,
    /// Drop probability reaches `max_p` at this length.
    pub max_th: f64,
    /// Drop probability at `max_th`.
    pub max_p: f64,
    /// Hard capacity (packets).
    pub limit: usize,
    /// EWMA weight for the average queue length (classic RED; Floyd's
    /// default is 0.002). `0` makes drops depend on the instantaneous
    /// length instead.
    ///
    /// The average is maintained in continuous time: it relaxes toward the
    /// instantaneous length with time constant `service_time(MSS)/w`, which
    /// matches Floyd's per-packet EWMA at full load *and* decays during
    /// idle/backoff periods (Floyd's idle-time correction) — without it a
    /// transient overload wedges the average above `2·max_th` where every
    /// arrival is dropped.
    pub ewma_weight: f64,
}

impl RedParams {
    /// The paper's Click configuration for a 10 Mb/s link, with classic
    /// averaged-queue RED (what Click's RED element implements).
    pub fn paper_baseline() -> RedParams {
        RedParams {
            min_th: 25.0,
            max_th: 50.0,
            max_p: 0.1,
            limit: 300,
            ewma_weight: 0.002,
        }
    }

    /// The paper's profile scaled proportionally to `rate_bps`
    /// ("the parameters are proportionally adapted when the link capacity
    /// changes").
    pub fn paper_profile(rate_bps: f64) -> RedParams {
        let scale = (rate_bps / 10_000_000.0).max(0.05);
        RedParams {
            min_th: 25.0 * scale,
            max_th: 50.0 * scale,
            max_p: 0.1,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a rounded, positive packet count; `as` saturates, it never wraps"
            )]
            limit: ((300.0 * scale).round() as usize).max(5),
            ewma_weight: 0.002,
        }
    }

    /// The same profile with drops driven by the instantaneous queue length
    /// (for the RED-variant ablation).
    pub fn instantaneous(mut self) -> RedParams {
        self.ewma_weight = 0.0;
        self
    }

    /// Drop probability at instantaneous queue length `qlen` (packets).
    pub fn drop_probability(&self, qlen: f64) -> f64 {
        if qlen < self.min_th {
            0.0
        } else if qlen < self.max_th {
            self.max_p * (qlen - self.min_th) / (self.max_th - self.min_th)
        } else if qlen < 2.0 * self.max_th {
            self.max_p + (1.0 - self.max_p) * (qlen - self.max_th) / self.max_th
        } else {
            1.0
        }
    }
}

/// Admission discipline for a queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discipline {
    /// Drop arrivals when `limit` packets are already buffered.
    DropTail {
        /// Buffer capacity in packets.
        limit: usize,
    },
    /// The paper's RED profile (instantaneous queue length, as the Click
    /// setup describes).
    Red(RedParams),
    /// Drop each arrival independently with a fixed probability (plus a
    /// buffer cap). Not a real router discipline — it pins the loss
    /// probability so the loss-throughput formulas (TCP's `√(2/p)/rtt`,
    /// LIA's Eq. 2) can be validated exactly.
    Bernoulli {
        /// Independent per-packet drop probability.
        p: f64,
        /// Buffer capacity in packets.
        limit: usize,
    },
}

/// Static configuration of one queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueConfig {
    /// Service (link) rate in bits per second.
    pub rate_bps: f64,
    /// Propagation delay after serialization.
    pub latency: SimDuration,
    /// Drop discipline.
    pub discipline: Discipline,
}

impl QueueConfig {
    /// A drop-tail queue.
    pub fn drop_tail(rate_bps: f64, latency: SimDuration, limit: usize) -> QueueConfig {
        assert!(rate_bps > 0.0, "rate must be positive");
        QueueConfig {
            rate_bps,
            latency,
            discipline: Discipline::DropTail { limit },
        }
    }

    /// A RED queue with the paper's capacity-scaled profile.
    pub fn red_paper(rate_bps: f64, latency: SimDuration) -> QueueConfig {
        assert!(rate_bps > 0.0, "rate must be positive");
        QueueConfig {
            rate_bps,
            latency,
            discipline: Discipline::Red(RedParams::paper_profile(rate_bps)),
        }
    }

    /// A RED queue with explicit parameters.
    pub fn red(rate_bps: f64, latency: SimDuration, params: RedParams) -> QueueConfig {
        assert!(rate_bps > 0.0, "rate must be positive");
        QueueConfig {
            rate_bps,
            latency,
            discipline: Discipline::Red(params),
        }
    }

    /// A fixed-independent-loss queue (formula validation).
    pub fn bernoulli(rate_bps: f64, latency: SimDuration, p: f64, limit: usize) -> QueueConfig {
        assert!(rate_bps > 0.0, "rate must be positive");
        assert!((0.0..1.0).contains(&p), "loss probability out of range");
        QueueConfig {
            rate_bps,
            latency,
            discipline: Discipline::Bernoulli { p, limit },
        }
    }

    /// Serialization time of `bytes` at this queue's rate.
    pub fn service_time(&self, bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.rate_bps)
    }
}

/// Counters exposed per queue, enough to compute the loss probabilities the
/// paper reports (Fig. 1c, 5d, 10, 12) and utilizations (Table III).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Packets offered to the queue.
    pub arrived: u64,
    /// Packets dropped on admission (all causes).
    pub dropped: u64,
    /// Of `dropped`, packets dropped because the link was administratively
    /// down (failure injection) — a subset, not an extra count.
    pub dropped_down: u64,
    /// Of `dropped`, RED *early* (probabilistic) drops — the discipline's
    /// congestion signal, what an ECN deployment would mark instead of
    /// dropping. A subset of `dropped`, disjoint from tail drops at the
    /// hard `limit`, so `dropped - marked` isolates genuine buffer
    /// exhaustion.
    pub marked: u64,
    /// Packets fully serialized and forwarded.
    pub forwarded: u64,
    /// Bytes fully serialized and forwarded.
    pub forwarded_bytes: u64,
    /// Integral of busy time in nanoseconds (for utilization). Accrued when
    /// each service *completes*, so it stays correct across mid-run rate
    /// changes and mid-service stat resets.
    pub busy_ns: u64,
}

impl QueueStats {
    /// Fraction of offered packets that were dropped.
    pub fn loss_probability(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.dropped as f64 / self.arrived as f64
        }
    }

    /// Link utilization over `elapsed_ns` of simulated time.
    pub fn utilization(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / elapsed_ns as f64
        }
    }

    /// Average forwarded throughput in bits/s over `elapsed_ns`.
    pub fn throughput_bps(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            0.0
        } else {
            self.forwarded_bytes as f64 * 8.0 / SimDuration::from_nanos(elapsed_ns).as_secs_f64()
        }
    }

    /// Reset all counters (used to discard warmup transients).
    pub fn reset(&mut self) {
        *self = QueueStats::default();
    }
}

/// Stochastic impairments layered on top of a queue's normal behavior
/// (fault injection — see [`crate::FaultPlan`]). All randomness draws from
/// the simulation RNG, so impaired runs stay reproducible per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Impairment {
    /// Extra independent drop probability for otherwise-admitted arrivals…
    pub(crate) loss_p: f64,
    /// …applied only before this instant (loss bursts are time-bounded).
    pub(crate) loss_until: SimTime,
    /// Probability a forwarded packet is duplicated.
    pub(crate) duplicate_p: f64,
    /// Probability a forwarded packet is delayed by `reorder_extra`.
    pub(crate) reorder_p: f64,
    /// Extra propagation delay for reordered packets.
    pub(crate) reorder_extra: SimDuration,
}

impl Impairment {
    pub(crate) const NONE: Impairment = Impairment {
        loss_p: 0.0,
        loss_until: SimTime::ZERO,
        duplicate_p: 0.0,
        reorder_p: 0.0,
        reorder_extra: SimDuration::ZERO,
    };
}

/// A queue instance: configuration + buffer + counters.
#[derive(Debug)]
pub(crate) struct Queue {
    pub(crate) config: QueueConfig,
    /// Buffered packets, by arena ref (the packets themselves live in the
    /// simulation's [`crate::arena::PacketArena`]).
    pub(crate) buf: VecDeque<PacketRef>,
    /// Whether a service-completion event is outstanding.
    pub(crate) busy: bool,
    /// Administratively down: every arrival is dropped (failure injection).
    pub(crate) down: bool,
    /// Active impairments (loss burst / duplication / reordering).
    pub(crate) impair: Impairment,
    /// When the packet currently serializing began service — clipped forward
    /// by stat resets so `busy_ns` only counts post-reset time.
    pub(crate) service_start: SimTime,
    /// EWMA of the queue length (classic RED), relaxed in continuous time.
    pub(crate) avg_qlen: f64,
    /// When `avg_qlen` was last brought up to date.
    pub(crate) avg_updated: SimTime,
    pub(crate) stats: QueueStats,
}

impl Queue {
    pub(crate) fn new(config: QueueConfig) -> Queue {
        Queue {
            config,
            buf: VecDeque::new(),
            busy: false,
            down: false,
            impair: Impairment::NONE,
            service_start: SimTime::ZERO,
            avg_qlen: 0.0,
            avg_updated: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Admission decision; `Ok(())` means the packet was buffered, `Err`
    /// carries why it was not (tail drop, RED early mark, ...) for the
    /// per-cause counters and the trace layer.
    ///
    /// The caller is responsible for scheduling service when the queue
    /// transitions from idle.
    /// The admission decision never needs the packet contents, so it takes
    /// the 8-byte arena ref; the caller resolves sizes (service time, byte
    /// counters) against the arena.
    pub(crate) fn try_enqueue(
        &mut self,
        pkt: PacketRef,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<(), DropReason> {
        self.stats.arrived += 1;
        if self.down {
            self.stats.dropped += 1;
            self.stats.dropped_down += 1;
            return Err(DropReason::AdminDown);
        }
        // Loss-burst impairment: an extra independent drop applied before
        // the discipline, while the burst window is open.
        if now < self.impair.loss_until && rng.chance(self.impair.loss_p) {
            self.stats.dropped += 1;
            return Err(DropReason::LossBurst);
        }
        let verdict = match self.config.discipline {
            Discipline::DropTail { limit } => {
                if self.buf.len() < limit {
                    Ok(())
                } else {
                    Err(DropReason::Tail)
                }
            }
            Discipline::Bernoulli { p, limit } => {
                if self.buf.len() >= limit {
                    Err(DropReason::Tail)
                } else if rng.chance(p) {
                    Err(DropReason::Bernoulli)
                } else {
                    Ok(())
                }
            }
            Discipline::Red(params) => {
                let qlen = self.buf.len() as f64;
                let effective = if params.ewma_weight > 0.0 {
                    // Continuous-time EWMA: time constant = one MSS service
                    // time divided by Floyd's weight.
                    let tau = self.config.service_time(1500).as_secs_f64() / params.ewma_weight;
                    let dt = now.saturating_since(self.avg_updated).as_secs_f64();
                    let decay = (-dt / tau).exp();
                    self.avg_qlen = qlen + (self.avg_qlen - qlen) * decay;
                    self.avg_updated = now;
                    self.avg_qlen
                } else {
                    qlen
                };
                if self.buf.len() >= params.limit {
                    Err(DropReason::Tail)
                } else if rng.chance(params.drop_probability(effective)) {
                    Err(DropReason::EarlyMark)
                } else {
                    Ok(())
                }
            }
        };
        match verdict {
            Ok(()) => self.buf.push_back(pkt),
            Err(reason) => {
                self.stats.dropped += 1;
                if reason == DropReason::EarlyMark {
                    self.stats.marked += 1;
                }
            }
        }
        verdict
    }

    /// Remove and return the head packet's ref after it finished
    /// serializing; `size` is its wire size (the caller already resolved the
    /// head against the arena to schedule this service).
    pub(crate) fn complete_service(&mut self, size: u32) -> PacketRef {
        let Some(pkt) = self.buf.pop_front() else {
            panic!("service completion on empty queue");
        };
        self.stats.forwarded += 1;
        self.stats.forwarded_bytes += size as u64;
        pkt
    }

    /// Current queue length in packets.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }
}

/// Queue storage with lazy block materialization.
///
/// Large topologies reserve whole blocks of identically-configured queues
/// ([`crate::Simulation::reserve_queue_block`]) without constructing them; a
/// queue materializes the first time something needs `&mut` access — the
/// event loop admitting a packet, a fault plan, a config mutation. Ids are
/// assigned arithmetically at reservation time, so lazy and eager
/// construction yield identical id assignments; and since [`Queue::new`]
/// allocates nothing (`VecDeque::new` is allocation-free) and draws no
/// randomness, materialization order is behavior-invisible — trace digests
/// are byte-identical either way.
///
/// Shared (`&self`) accessors report unmaterialized queues as empty/default,
/// which is exactly what an untouched queue is.
#[derive(Debug)]
pub(crate) struct QueueTable {
    /// Materialized prefix: queues `0..materialized.len()`.
    materialized: Vec<Queue>,
    /// Config runs covering ids `materialized.len()..total`, each as
    /// `(end_id_exclusive, config)`, in id order.
    pending: Vec<(u32, QueueConfig)>,
    /// First entry of `pending` not yet fully materialized.
    pending_head: usize,
    /// Total queues (materialized + pending).
    total: u32,
}

impl QueueTable {
    pub(crate) fn new() -> QueueTable {
        QueueTable {
            materialized: Vec::new(),
            pending: Vec::new(),
            pending_head: 0,
            total: 0,
        }
    }

    /// Total queues, materialized or not.
    pub(crate) fn total(&self) -> usize {
        self.total as usize
    }

    /// Queues constructed so far (diagnostics: how lazy the build stayed).
    pub(crate) fn materialized_count(&self) -> usize {
        self.materialized.len()
    }

    /// Append one eagerly-constructed queue; returns its id.
    pub(crate) fn push(&mut self, config: QueueConfig) -> u32 {
        // Mixing eager adds after block reservations is allowed but
        // forfeits the remaining laziness: ids are a single dense sequence,
        // so the pending prefix must exist before anything lands after it.
        self.flush();
        assert!(self.total < u32::MAX, "too many queues");
        let id = self.total;
        self.materialized.push(Queue::new(config));
        self.total += 1;
        id
    }

    /// Reserve `count` queues sharing `config` without constructing them;
    /// returns the first id of the (contiguous) block.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the assert bounds the block's end to u32 before the cast"
    )]
    pub(crate) fn reserve_block(&mut self, count: usize, config: QueueConfig) -> u32 {
        let start = self.total;
        let end = self.total as u64 + count as u64;
        assert!(end <= u32::MAX as u64, "too many queues");
        self.total = end as u32;
        if count > 0 {
            self.pending.push((self.total, config));
        }
        start
    }

    /// Mutable access; materializes the prefix through `i` on first touch.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut Queue {
        if i >= self.materialized.len() {
            assert!(i < self.total as usize, "queue {i} out of range");
            self.materialize_to(i + 1);
        }
        &mut self.materialized[i]
    }

    /// Shared access: `None` means reserved-but-untouched (empty, default
    /// stats, not down). Panics on an out-of-range id, same as eager
    /// indexing would.
    pub(crate) fn get(&self, i: usize) -> Option<&Queue> {
        assert!(i < self.total as usize, "queue {i} out of range");
        self.materialized.get(i)
    }

    /// The materialized queues (pending ones hold no packets and default
    /// stats, so conservation checks and stat resets may skip them).
    pub(crate) fn iter_materialized(&self) -> impl Iterator<Item = &Queue> {
        self.materialized.iter()
    }

    /// Mutable iteration over the materialized queues.
    pub(crate) fn iter_materialized_mut(&mut self) -> impl Iterator<Item = &mut Queue> {
        self.materialized.iter_mut()
    }

    /// Construct every reserved queue up to (not including) id `n`.
    #[cold]
    fn materialize_to(&mut self, n: usize) {
        while self.materialized.len() < n {
            let (end, config) = self.pending[self.pending_head];
            self.materialized.push(Queue::new(config));
            if self.materialized.len() == end as usize {
                self.pending_head += 1;
            }
        }
    }

    /// Materialize everything still pending.
    pub(crate) fn flush(&mut self) {
        let n = self.total as usize;
        if self.materialized.len() < n {
            self.materialize_to(n);
        }
        self.pending.clear();
        self.pending_head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PacketArena;
    use crate::ids::{EndpointId, QueueId};
    use crate::packet::Packet;
    use crate::routes::route;
    use proptest::prelude::*;

    /// Unit tests drive queues with refs from a throwaway arena; admission
    /// logic never dereferences them, so leaking refs on drop is fine here.
    fn pkt(seq: u64) -> PacketRef {
        let mut arena = PacketArena::new();
        arena.insert(Packet::data(
            EndpointId(0),
            EndpointId(1),
            0,
            0,
            seq,
            1500,
            route(&[QueueId(0)]),
        ))
    }

    #[test]
    fn red_profile_shape() {
        let r = RedParams::paper_baseline();
        assert_eq!(r.drop_probability(0.0), 0.0);
        assert_eq!(r.drop_probability(24.9), 0.0);
        // Midpoint of [25, 50] → max_p/2.
        assert!((r.drop_probability(37.5) - 0.05).abs() < 1e-12);
        // At max_th the probability is max_p.
        assert!((r.drop_probability(50.0) - 0.1).abs() < 1e-12);
        // Midpoint of the gentle region [50, 100] → (0.1 + 1)/2.
        assert!((r.drop_probability(75.0) - 0.55).abs() < 1e-12);
        assert_eq!(r.drop_probability(100.0), 1.0);
        assert_eq!(r.drop_probability(250.0), 1.0);
    }

    #[test]
    fn red_profile_scales_with_capacity() {
        let r = RedParams::paper_profile(20_000_000.0);
        assert!((r.min_th - 50.0).abs() < 1e-9);
        assert!((r.max_th - 100.0).abs() < 1e-9);
        assert_eq!(r.limit, 600);
        // Tiny links get a floor, not a zero-size buffer.
        let small = RedParams::paper_profile(100_000.0);
        assert!(small.limit >= 5);
        assert!(small.min_th > 0.0);
    }

    #[test]
    fn drop_tail_respects_limit() {
        let mut q = Queue::new(QueueConfig::drop_tail(1e6, SimDuration::from_millis(1), 3));
        let mut rng = SimRng::seed_from_u64(0);
        for i in 0..5 {
            let _ = q.try_enqueue(pkt(i), SimTime::ZERO, &mut rng);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.stats.arrived, 5);
        assert_eq!(q.stats.dropped, 2);
    }

    #[test]
    fn red_hard_limit_always_drops() {
        let params = RedParams {
            min_th: 1000.0, // never probabilistic-drop
            max_th: 2000.0,
            max_p: 0.1,
            limit: 2,
            ewma_weight: 0.0,
        };
        let mut q = Queue::new(QueueConfig::red(1e6, SimDuration::ZERO, params));
        let mut rng = SimRng::seed_from_u64(0);
        assert!(q.try_enqueue(pkt(0), SimTime::ZERO, &mut rng).is_ok());
        assert!(q.try_enqueue(pkt(1), SimTime::ZERO, &mut rng).is_ok());
        assert_eq!(
            q.try_enqueue(pkt(2), SimTime::ZERO, &mut rng),
            Err(DropReason::Tail)
        );
        assert_eq!(q.stats.dropped, 1);
        // Hard-limit drops are tail drops, not congestion marks.
        assert_eq!(q.stats.marked, 0);
    }

    #[test]
    fn red_drop_rate_tracks_profile() {
        // Hold the queue at a fixed length and measure the empirical drop
        // frequency against the analytic profile.
        // Instantaneous mode so the empirical frequency tracks the profile
        // at the held queue length exactly.
        let params = RedParams::paper_baseline().instantaneous();
        let mut rng = SimRng::seed_from_u64(7);
        for (qlen, expected) in [(30.0, params.drop_probability(30.0)), (60.0, 0.28)] {
            let trials = 40_000;
            let mut q = Queue::new(QueueConfig::red(1e7, SimDuration::ZERO, params));
            // Pre-fill to the target length.
            for i in 0..qlen as u64 {
                q.buf.push_back(pkt(i));
            }
            let mut drops = 0;
            for i in 0..trials {
                let before = q.len();
                if q.try_enqueue(pkt(i), SimTime::ZERO, &mut rng).is_err() {
                    drops += 1;
                } else {
                    q.buf.pop_back();
                }
                assert_eq!(q.len(), before);
            }
            let freq = drops as f64 / trials as f64;
            assert!(
                (freq - expected).abs() < 0.01,
                "qlen {qlen}: freq {freq} vs profile {expected}"
            );
        }
    }

    #[test]
    fn service_accounting() {
        let mut q = Queue::new(QueueConfig::drop_tail(1e6, SimDuration::from_millis(1), 10));
        let mut rng = SimRng::seed_from_u64(0);
        // Distinct refs from one arena so FIFO identity is observable.
        let mut arena = PacketArena::new();
        let first = arena.insert(Packet::data(
            EndpointId(0),
            EndpointId(1),
            0,
            0,
            0,
            1500,
            route(&[QueueId(0)]),
        ));
        let second = arena.insert(Packet::data(
            EndpointId(0),
            EndpointId(1),
            0,
            0,
            1,
            1500,
            route(&[QueueId(0)]),
        ));
        let _ = q.try_enqueue(first, SimTime::ZERO, &mut rng);
        let _ = q.try_enqueue(second, SimTime::ZERO, &mut rng);
        let p = q.complete_service(1500);
        assert_eq!(p, first);
        assert_ne!(first, second);
        assert_eq!(q.stats.forwarded, 1);
        assert_eq!(q.stats.forwarded_bytes, 1500);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn service_time_math() {
        let c = QueueConfig::drop_tail(10_000_000.0, SimDuration::ZERO, 1);
        // 1500 bytes at 10 Mb/s = 1.2 ms.
        assert_eq!(c.service_time(1500), SimDuration::from_micros(1200));
    }

    #[test]
    fn stats_ratios() {
        let s = QueueStats {
            arrived: 200,
            dropped: 10,
            dropped_down: 0,
            marked: 4,
            forwarded: 190,
            forwarded_bytes: 190 * 1500,
            busy_ns: 500_000_000,
        };
        assert!((s.loss_probability() - 0.05).abs() < 1e-12);
        assert!((s.utilization(1_000_000_000) - 0.5).abs() < 1e-12);
        let expect_bps = 190.0 * 1500.0 * 8.0;
        assert!((s.throughput_bps(1_000_000_000) - expect_bps).abs() < 1e-6);
        assert_eq!(QueueStats::default().loss_probability(), 0.0);
        assert_eq!(QueueStats::default().utilization(0), 0.0);
        assert_eq!(QueueStats::default().throughput_bps(0), 0.0);
    }

    #[test]
    fn bernoulli_drop_rate_matches_p() {
        let mut q = Queue::new(QueueConfig::bernoulli(1e9, SimDuration::ZERO, 0.1, 1000));
        let mut rng = SimRng::seed_from_u64(3);
        let trials = 50_000;
        let mut drops = 0;
        for i in 0..trials {
            if q.try_enqueue(pkt(i), SimTime::ZERO, &mut rng).is_err() {
                drops += 1;
            } else {
                q.buf.pop_back();
            }
        }
        let freq = drops as f64 / trials as f64;
        assert!((freq - 0.1).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn bernoulli_respects_buffer_cap() {
        let mut q = Queue::new(QueueConfig::bernoulli(1e9, SimDuration::ZERO, 0.0, 2));
        let mut rng = SimRng::seed_from_u64(3);
        assert!(q.try_enqueue(pkt(0), SimTime::ZERO, &mut rng).is_ok());
        assert!(q.try_enqueue(pkt(1), SimTime::ZERO, &mut rng).is_ok());
        assert_eq!(
            q.try_enqueue(pkt(2), SimTime::ZERO, &mut rng),
            Err(DropReason::Tail)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bernoulli_rejects_bad_p() {
        QueueConfig::bernoulli(1e9, SimDuration::ZERO, 1.5, 10);
    }

    #[test]
    fn down_queue_drops_everything() {
        let mut q = Queue::new(QueueConfig::drop_tail(1e9, SimDuration::ZERO, 10));
        let mut rng = SimRng::seed_from_u64(3);
        q.down = true;
        assert_eq!(
            q.try_enqueue(pkt(0), SimTime::ZERO, &mut rng),
            Err(DropReason::AdminDown)
        );
        assert_eq!(q.stats.dropped, 1);
        assert_eq!(q.stats.dropped_down, 1);
        q.down = false;
        assert!(q.try_enqueue(pkt(1), SimTime::ZERO, &mut rng).is_ok());
        // The administrative drop stays a subset of the total.
        assert_eq!(q.stats.dropped, 1);
        assert_eq!(q.stats.dropped_down, 1);
    }

    #[test]
    fn loss_burst_drops_within_window_only() {
        let mut q = Queue::new(QueueConfig::drop_tail(1e9, SimDuration::ZERO, 100_000));
        let mut rng = SimRng::seed_from_u64(9);
        q.impair.loss_p = 1.0;
        q.impair.loss_until = SimTime::from_secs_f64(1.0);
        assert_eq!(
            q.try_enqueue(pkt(0), SimTime::from_secs_f64(0.5), &mut rng),
            Err(DropReason::LossBurst)
        );
        assert_eq!(q.stats.dropped, 1);
        // Burst drops are impairments, not administrative outage.
        assert_eq!(q.stats.dropped_down, 0);
        // After the window closes the queue admits normally.
        assert!(q
            .try_enqueue(pkt(1), SimTime::from_secs_f64(1.0), &mut rng)
            .is_ok());
    }

    #[test]
    fn loss_burst_rate_matches_p() {
        let mut q = Queue::new(QueueConfig::drop_tail(1e9, SimDuration::ZERO, 100_000));
        let mut rng = SimRng::seed_from_u64(21);
        q.impair.loss_p = 0.3;
        q.impair.loss_until = SimTime::from_secs_f64(1e9);
        let trials = 50_000;
        let mut drops = 0;
        for i in 0..trials {
            if q.try_enqueue(pkt(i), SimTime::ZERO, &mut rng).is_err() {
                drops += 1;
            } else {
                q.buf.pop_back();
            }
        }
        let freq = drops as f64 / trials as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn red_ewma_decays_during_idle() {
        // The continuous-time average must relax back toward the (empty)
        // instantaneous length over idle periods, re-opening the queue.
        let mut q = Queue::new(QueueConfig::red(
            10e6,
            SimDuration::ZERO,
            RedParams::paper_baseline(),
        ));
        let mut rng = SimRng::seed_from_u64(1);
        // Force the average sky-high.
        q.avg_qlen = 150.0;
        q.avg_updated = SimTime::ZERO;
        // Immediately: average ~150 -> drop probability 1 (an early mark,
        // since the buffer itself is empty).
        assert_eq!(
            q.try_enqueue(pkt(0), SimTime::from_nanos(1), &mut rng),
            Err(DropReason::EarlyMark)
        );
        assert_eq!(q.stats.marked, 1);
        // Ten seconds of idle later the average has decayed to ~0.
        assert!(q
            .try_enqueue(pkt(1), SimTime::from_secs_f64(10.0), &mut rng)
            .is_ok());
        assert!(q.avg_qlen < 1.0, "avg {}", q.avg_qlen);
    }

    proptest! {
        /// The RED profile is monotone nondecreasing in queue length and
        /// bounded in [0, 1].
        #[test]
        fn prop_red_monotone(a in 0.0_f64..400.0, b in 0.0_f64..400.0) {
            let r = RedParams::paper_baseline();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let pl = r.drop_probability(lo);
            let ph = r.drop_probability(hi);
            prop_assert!((0.0..=1.0).contains(&pl));
            prop_assert!((0.0..=1.0).contains(&ph));
            prop_assert!(pl <= ph + 1e-12);
        }

        /// Drop-tail never exceeds its limit and never drops below it.
        #[test]
        fn prop_drop_tail_exact(limit in 1usize..64, n in 0u64..128) {
            let mut q = Queue::new(QueueConfig::drop_tail(
                1e6, SimDuration::ZERO, limit));
            let mut rng = SimRng::seed_from_u64(1);
            for i in 0..n {
                let _ = q.try_enqueue(pkt(i), SimTime::ZERO, &mut rng);
            }
            prop_assert_eq!(q.len() as u64, n.min(limit as u64));
            prop_assert_eq!(q.stats.dropped, n.saturating_sub(limit as u64));
        }
    }
}
