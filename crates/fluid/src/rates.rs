//! Allocation-free per-path equilibrium rate rules, shared with `flowsim`.
//!
//! The fluid ODEs in [`crate::ode`] integrate the per-ACK dynamics of each
//! algorithm to their fixed point. The flow-level backend (`flowsim`) needs
//! the same fixed points *per allocation event*, tens of thousands of times
//! per run, so this module exposes the closed-form per-path update rules —
//! the equilibria of `mpsim_core::formulas`, which the ODE integration
//! converges to — in a form that writes into caller-provided buffers
//! instead of allocating. Tests pin each rule to the formula crate, so the
//! two backends cannot drift apart.
//!
//! Units match the rest of the crate: rates in MSS/s, times in seconds,
//! losses dimensionless.

use mpsim_core::Algorithm;

/// The rate-update rule a flow follows at an allocation fixed point. This
/// is the fluid-model collapse of [`Algorithm`]: the ε-family members that
/// share an equilibrium share a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateRule {
    /// Single-path TCP (`√(2/p)/rtt` on its one path).
    Reno,
    /// Linked increases (RFC 6356): Eq. 2's fixed point — windows
    /// proportional to `1/p_r`, total scaled to the best path's TCP rate.
    Lia,
    /// OLIA / the optimal equilibrium of Theorem 1: traffic only on the
    /// least-congested paths, total equal to the best path's TCP rate.
    Olia,
    /// Uncoupled: an independent TCP fixed point per path.
    Uncoupled,
}

impl RateRule {
    /// The rule governing `algorithm`'s fluid equilibrium.
    ///
    /// ε-family members collapse onto the nearest of the four equilibria:
    /// fully-/semi-coupled behave LIA-like (coupled increase, loss-balanced
    /// windows), EWTCP is a weighted uncoupled TCP, and the optimum-probe
    /// oracle sits at OLIA's best-path equilibrium by Theorems 1 and 4.
    pub fn from_algorithm(algorithm: Algorithm) -> RateRule {
        match algorithm {
            Algorithm::Reno => RateRule::Reno,
            Algorithm::Lia | Algorithm::FullyCoupled | Algorithm::SemiCoupled => RateRule::Lia,
            Algorithm::Olia | Algorithm::OptimumProbe => RateRule::Olia,
            Algorithm::Uncoupled | Algorithm::Ewtcp => RateRule::Uncoupled,
        }
    }

    /// Stable label for reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            RateRule::Reno => "reno",
            RateRule::Lia => "lia",
            RateRule::Olia => "olia",
            RateRule::Uncoupled => "uncoupled",
        }
    }
}

/// A single-path TCP equilibrium rate: `√(2/p)/rtt` MSS/s.
#[inline]
fn tcp(p: f64, rtt: f64) -> f64 {
    (2.0 / p).sqrt() / rtt
}

/// Write `rule`'s equilibrium per-path rates for a flow whose path `r` sees
/// loss `losses[r]` and round-trip time `rtts[r]` into `out`.
///
/// All three slices must have the same (nonzero) length; every loss and rtt
/// must be positive — callers floor losses before invoking (a loss-free
/// path has unbounded model rate). The results equal
/// `mpsim_core::formulas::{tcp_rate, lia_rates, olia_rates}` evaluated on
/// the same paths (pinned by tests) without the per-call allocation.
pub fn target_rates(rule: RateRule, losses: &[f64], rtts: &[f64], out: &mut [f64]) {
    debug_assert!(!losses.is_empty());
    debug_assert_eq!(losses.len(), rtts.len());
    debug_assert_eq!(losses.len(), out.len());
    match rule {
        RateRule::Reno | RateRule::Uncoupled => {
            for r in 0..losses.len() {
                out[r] = tcp(losses[r], rtts[r]);
            }
        }
        RateRule::Lia => {
            let mut best = f64::NEG_INFINITY;
            let mut denom = 0.0;
            for r in 0..losses.len() {
                best = best.max(tcp(losses[r], rtts[r]));
                denom += 1.0 / (rtts[r] * losses[r]);
            }
            for r in 0..losses.len() {
                // w_r = best / (p_r · denom); x_r = w_r / rtt_r.
                out[r] = best / (losses[r] * denom * rtts[r]);
            }
        }
        RateRule::Olia => {
            for r in 0..losses.len() {
                out[r] = tcp(losses[r], rtts[r]);
            }
            olia_best_paths(out);
        }
    }
}

/// OLIA's coupling applied in place to per-path TCP rates `tcp`: the best
/// rate is split evenly over the paths within 1e-9 (relative) of it, and
/// every other path gets zero. [`target_rates`] uses it for
/// [`RateRule::Olia`]; callers that already hold the TCP rates call it
/// directly.
pub fn olia_best_paths(tcp: &mut [f64]) {
    let mut best = f64::NEG_INFINITY;
    for &x in tcp.iter() {
        best = best.max(x);
    }
    let tol = 1e-9 * best.abs().max(1.0);
    let mut winners = 0usize;
    for &x in tcp.iter() {
        if x >= best - tol {
            winners += 1;
        }
    }
    let share = best / winners as f64;
    for x in tcp.iter_mut() {
        *x = if *x >= best - tol { share } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim_core::formulas::{lia_rates, olia_rates, tcp_rate, PathChar};

    fn chars(losses: &[f64], rtts: &[f64]) -> Vec<PathChar> {
        losses
            .iter()
            .zip(rtts)
            .map(|(&p, &rtt)| PathChar::new(p, rtt))
            .collect()
    }

    #[test]
    fn rules_match_the_formula_crate() {
        let losses = [0.02, 0.005, 0.08];
        let rtts = [0.08, 0.1, 0.08];
        let paths = chars(&losses, &rtts);
        let mut out = [0.0; 3];

        target_rates(RateRule::Uncoupled, &losses, &rtts, &mut out);
        for r in 0..3 {
            assert!((out[r] - tcp_rate(losses[r], rtts[r])).abs() < 1e-9);
        }

        target_rates(RateRule::Lia, &losses, &rtts, &mut out);
        let lia = lia_rates(&paths);
        for r in 0..3 {
            assert!((out[r] - lia[r]).abs() < 1e-9, "lia path {r}");
        }

        target_rates(RateRule::Olia, &losses, &rtts, &mut out);
        let olia = olia_rates(&paths);
        for r in 0..3 {
            assert!((out[r] - olia[r]).abs() < 1e-9, "olia path {r}");
        }

        target_rates(RateRule::Reno, &losses[..1], &rtts[..1], &mut out[..1]);
        assert!((out[0] - tcp_rate(losses[0], rtts[0])).abs() < 1e-9);
    }

    #[test]
    fn olia_splits_ties_and_abandons_losers() {
        let losses = [0.01, 0.01, 0.09];
        let rtts = [0.1, 0.1, 0.1];
        let mut out = [0.0; 3];
        target_rates(RateRule::Olia, &losses, &rtts, &mut out);
        assert!((out[0] - out[1]).abs() < 1e-9);
        assert_eq!(out[2], 0.0, "congested path carries nothing");
        let total: f64 = out.iter().sum();
        assert!((total - tcp_rate(0.01, 0.1)).abs() < 1e-6);
    }

    #[test]
    fn every_algorithm_maps_to_a_rule() {
        for a in Algorithm::ALL {
            let rule = RateRule::from_algorithm(a);
            assert!(!rule.name().is_empty());
        }
        assert_eq!(RateRule::from_algorithm(Algorithm::Lia), RateRule::Lia);
        assert_eq!(RateRule::from_algorithm(Algorithm::Olia), RateRule::Olia);
        assert_eq!(RateRule::from_algorithm(Algorithm::Reno), RateRule::Reno);
        assert_eq!(
            RateRule::from_algorithm(Algorithm::Ewtcp),
            RateRule::Uncoupled
        );
    }
}
