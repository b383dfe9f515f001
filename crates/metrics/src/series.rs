//! Rate meters and time-series samplers.

use eventsim::SimTime;

/// Measures average throughput over a window: count bytes, divide by
/// elapsed time since the last reset.
///
/// Every experiment in the paper discards a warmup transient ("each Iperf
/// session runs for 120 seconds to allow the flows to reach equilibrium");
/// [`RateMeter::reset`] at the end of warmup gives the equilibrium average.
#[derive(Debug, Clone, Copy)]
pub struct RateMeter {
    bytes: u64,
    since: SimTime,
}

impl RateMeter {
    /// A meter starting its window at `now`.
    pub fn new(now: SimTime) -> RateMeter {
        RateMeter {
            bytes: 0,
            since: now,
        }
    }

    /// Record `n` delivered bytes.
    pub fn add(&mut self, n: u64) {
        self.bytes += n;
    }

    /// Restart the measurement window at `now`, discarding history.
    pub fn reset(&mut self, now: SimTime) {
        self.bytes = 0;
        self.since = now;
    }

    /// Bytes recorded in the current window.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Average rate in bits/s from window start to `now`.
    ///
    /// Degenerate windows are well-defined rather than infinite or negative:
    /// a zero-length window (`now == since`) and a backwards clock
    /// (`now < since`, possible when a caller resets at a checkpoint ahead
    /// of an event already scheduled) both report 0.0.
    pub fn rate_bps(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.since).as_secs_f64();
        if dt <= 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / dt
        }
    }

    /// Average rate in Mb/s.
    pub fn rate_mbps(&self, now: SimTime) -> f64 {
        self.rate_bps(now) / 1e6
    }
}

/// A `(time, value)` series, for the window/α traces of Figs. 7 and 8.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// A series retaining every pushed point.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Record `value` at time `t`.
    ///
    /// Out-of-order samples (`t` earlier than the last retained point) are
    /// silently ignored: the series stays monotone in time so the
    /// time-weighted integrals in [`TimeSeries::time_average`] and
    /// [`TimeSeries::fraction_at_or_below`] never see negative intervals.
    /// A sample at exactly the last retained time is kept (later push wins
    /// for the zero-width segment).
    pub fn push(&mut self, t: SimTime, value: f64) {
        let ts = t.as_secs_f64();
        if let Some(&(last, _)) = self.points.last() {
            if ts < last {
                return;
            }
        }
        self.points.push((ts, value));
    }

    /// The retained points as `(seconds, value)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Time-weighted average of the series over its span (each value holds
    /// until the next sample). Returns `None` with fewer than two points.
    pub fn time_average(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let mut area = 0.0;
        for w in self.points.windows(2) {
            area += w[0].1 * (w[1].0 - w[0].0);
        }
        let span = self.points.last().unwrap().0 - self.points[0].0;
        (span > 0.0).then(|| area / span)
    }

    /// Fraction of the series' span during which the value was at or below
    /// `threshold` — used to quantify how long OLIA keeps the congested
    /// path's window at the 1-MSS floor (Fig. 8 discussion).
    pub fn fraction_at_or_below(&self, threshold: f64) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let mut below = 0.0;
        let mut span = 0.0;
        for w in self.points.windows(2) {
            let dt = w[1].0 - w[0].0;
            span += dt;
            if w[0].1 <= threshold {
                below += dt;
            }
        }
        (span > 0.0).then(|| below / span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::SimDuration;

    #[test]
    fn rate_meter_basic() {
        let t0 = SimTime::from_secs_f64(1.0);
        let mut m = RateMeter::new(t0);
        m.add(1_000_000);
        let t1 = t0 + SimDuration::from_secs(2);
        // 1 MB over 2 s = 4 Mb/s.
        assert!((m.rate_mbps(t1) - 4.0).abs() < 1e-9);
        assert_eq!(m.bytes(), 1_000_000);
    }

    #[test]
    fn rate_meter_reset_discards_warmup() {
        let t0 = SimTime::ZERO;
        let mut m = RateMeter::new(t0);
        m.add(999_999_999);
        let warm = SimTime::from_secs_f64(10.0);
        m.reset(warm);
        m.add(250_000);
        let end = warm + SimDuration::from_secs(1);
        assert!((m.rate_mbps(end) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rate_meter_zero_window() {
        // A zero-length or backwards window must report 0, not inf/NaN or a
        // negative rate — even with bytes already recorded.
        let mut m = RateMeter::new(SimTime::from_secs_f64(5.0));
        m.add(1_000_000);
        assert_eq!(m.rate_bps(SimTime::from_secs_f64(5.0)), 0.0);
        assert_eq!(m.rate_bps(SimTime::from_secs_f64(4.0)), 0.0);
        assert!((m.rate_mbps(SimTime::from_secs_f64(6.0)) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn series_ignores_out_of_order_samples() {
        // The guard in `push` is what keeps the series monotone — a
        // regressing timestamp must not corrupt the integrals.
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs_f64(1.0), 2.0);
        s.push(SimTime::from_secs_f64(3.0), 4.0);
        s.push(SimTime::from_secs_f64(2.0), 100.0); // out of order: dropped
        s.push(SimTime::from_secs_f64(5.0), 6.0);
        assert_eq!(s.points(), &[(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]);
        // 2·2 + 4·2 = 12 over 4 s; unaffected by the dropped sample.
        assert!((s.time_average().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn series_keeps_equal_timestamps() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs_f64(1.0), 2.0);
        s.push(SimTime::from_secs_f64(1.0), 3.0);
        assert_eq!(s.points(), &[(1.0, 2.0), (1.0, 3.0)]);
        // Zero-width segment contributes nothing; span is zero → None.
        assert_eq!(s.time_average(), None);
    }

    #[test]
    fn series_records_every_point() {
        let mut s = TimeSeries::new();
        assert!(s.is_empty());
        s.push(SimTime::from_secs_f64(0.0), 1.0);
        s.push(SimTime::from_secs_f64(0.1), 2.0);
        s.push(SimTime::from_secs_f64(0.6), 3.0);
        assert_eq!(s.points(), &[(0.0, 1.0), (0.1, 2.0), (0.6, 3.0)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn series_time_average() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs_f64(0.0), 2.0);
        s.push(SimTime::from_secs_f64(1.0), 4.0);
        s.push(SimTime::from_secs_f64(3.0), 0.0);
        // 2·1 + 4·2 = 10 over 3 s.
        assert!((s.time_average().unwrap() - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(TimeSeries::new().time_average(), None);
    }

    #[test]
    fn series_fraction_below() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs_f64(0.0), 1.0);
        s.push(SimTime::from_secs_f64(2.0), 10.0);
        s.push(SimTime::from_secs_f64(4.0), 1.0);
        assert!((s.fraction_at_or_below(1.5).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(TimeSeries::new().fraction_at_or_below(1.0), None);
    }
}
