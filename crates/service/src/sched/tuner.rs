//! Receipt-driven adaptive checker tuning.
//!
//! The paper's checkers trade communication for confidence through
//! three knobs — iterations `its`, bucket count `b`, and modulus range
//! `r̂` — and partial re-execution verification systems (Yoon & Liu)
//! show the knob worth turning is *observed failure rate*: spend
//! verification effort where corruption has actually been seen. The
//! [`AdaptiveTuner`] closes that loop per tenant: jobs submitted with
//! [`crate::job::CheckMode::Adaptive`] run with a config drawn from a
//! fixed escalation ladder, the tenant climbs the ladder when its
//! receipts come back flagged (`FellBack`, `Rejected`, or verified only
//! after retries), and descends one rung after a clean streak.
//!
//! Every rung satisfies [`crate::JobSpec::validate`]'s bounds by
//! construction (unit-tested below), so a tuner pick can never panic a
//! job worker.

use std::collections::BTreeMap;

use crate::job::Verdict;

/// The escalation ladder, cheapest first: `(its, buckets, log2_rhat)`.
///
/// Rung 0 is the paper's minimal always-on sentinel (one iteration of a
/// tiny sketch); the top rung bounds the failure probability by
/// `(2⁻²⁴ + 2⁻¹⁰)¹⁶ ≈ 2⁻¹⁶⁰` (`SumCheckConfig::failure_bound`) for
/// tenants whose pipelines keep producing corrupt outputs. All values
/// sit inside the `JobSpec::validate` bounds (iterations ≤ 64, buckets
/// a power of two in 2..=65536, `log₂ r̂` in 1..=62).
pub const LADDER: &[(u32, u32, u32)] = &[
    (1, 8, 8),
    (2, 16, 10),
    (4, 32, 12),
    (8, 128, 16),
    (16, 1024, 24),
];

/// Ladder rung a tenant starts on (the config closest to the PR-4
/// defaults in cost).
pub const START_LEVEL: usize = 1;

/// Consecutive clean (`Verified`, zero retries) receipts required
/// before relaxing one rung toward the cheap end.
pub const RELAX_AFTER: u32 = 3;

/// One tenant's position on the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunerState {
    /// Current ladder rung (index into [`LADDER`]).
    pub level: usize,
    /// Clean receipts since the last escalation or relaxation.
    pub clean_streak: u32,
}

impl Default for TunerState {
    fn default() -> Self {
        TunerState {
            level: START_LEVEL,
            clean_streak: 0,
        }
    }
}

/// Per-tenant adaptive `(its, b, r̂)` selection from observed receipts.
#[derive(Debug, Default)]
pub struct AdaptiveTuner {
    map: BTreeMap<String, TunerState>,
}

impl AdaptiveTuner {
    /// Fresh tuner; every tenant starts at [`START_LEVEL`].
    pub fn new() -> Self {
        AdaptiveTuner::default()
    }

    /// The `(its, buckets, log2_rhat)` the tenant's next adaptive job
    /// should run with.
    pub fn config_for(&self, tenant: &str) -> (u32, u32, u32) {
        LADDER[self.state(tenant).level]
    }

    /// The tenant's current ladder position.
    pub fn state(&self, tenant: &str) -> TunerState {
        self.map.get(tenant).copied().unwrap_or_default()
    }

    /// Feed one finished receipt's verdict back. Flagged jobs
    /// (rejected, fell back, or verified only after retries) escalate
    /// one rung — monotonically under a corrupt streak, saturating at
    /// the top. `RELAX_AFTER` consecutive clean receipts relax one rung
    /// toward the cheap end.
    pub fn observe(&mut self, tenant: &str, verdict: Verdict) {
        let state = self.map.entry(tenant.to_string()).or_default();
        match verdict {
            Verdict::Rejected | Verdict::FellBack | Verdict::VerifiedAfterRetry(_) => {
                state.level = (state.level + 1).min(LADDER.len() - 1);
                state.clean_streak = 0;
            }
            Verdict::Verified => {
                state.clean_streak += 1;
                if state.clean_streak >= RELAX_AFTER {
                    state.level = state.level.saturating_sub(1);
                    state.clean_streak = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    #[test]
    fn every_rung_satisfies_the_spec_bounds() {
        // A tuner pick must be admissible as-is: run each rung through
        // the same validation a hostile client submission gets, so a
        // chosen config can never panic the workers (the bounds mirror
        // SumCheckConfig::new's asserts).
        for &(its, buckets, log2_rhat) in LADDER {
            let spec = JobSpec {
                iterations: its,
                buckets,
                log2_rhat,
                ..JobSpec::default()
            };
            spec.validate()
                .unwrap_or_else(|e| panic!("ladder rung ({its},{buckets},{log2_rhat}): {e}"));
        }
        assert!(START_LEVEL < LADDER.len());
    }

    #[test]
    fn ladder_failure_bound_strictly_decreases_to_two_to_the_minus_160() {
        use ccheck::SumCheckConfig;
        use ccheck_hashing::HasherKind;
        let bounds: Vec<f64> = LADDER
            .iter()
            .map(|&(its, d, m)| {
                SumCheckConfig::new(its as usize, d as usize, m, HasherKind::Tab64).failure_bound()
            })
            .collect();
        assert!(bounds.windows(2).all(|w| w[1] < w[0]), "{bounds:?}");
        let top = bounds.last().unwrap().log2().floor();
        assert_eq!(top, -160.0, "{bounds:?}");
    }

    #[test]
    fn ladder_cost_is_strictly_increasing() {
        for w in LADDER.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2, "{a:?} !<= {b:?}");
            assert!(a != b);
        }
    }

    #[test]
    fn corrupt_streak_escalates_monotonically_and_saturates() {
        let mut tuner = AdaptiveTuner::new();
        let mut last = tuner.state("t").level;
        for i in 0..LADDER.len() + 3 {
            let verdict = if i % 2 == 0 {
                Verdict::Rejected
            } else {
                Verdict::FellBack
            };
            tuner.observe("t", verdict);
            let level = tuner.state("t").level;
            assert!(level >= last, "escalation must be monotone");
            last = level;
        }
        assert_eq!(last, LADDER.len() - 1, "saturates at the top rung");
        // Retried verdicts escalate too (the fast path failed once).
        let mut tuner = AdaptiveTuner::new();
        tuner.observe("t", Verdict::VerifiedAfterRetry(1));
        assert_eq!(tuner.state("t").level, START_LEVEL + 1);
    }

    #[test]
    fn clean_streak_relaxes_one_rung_at_a_time() {
        let mut tuner = AdaptiveTuner::new();
        for _ in 0..3 {
            tuner.observe("t", Verdict::Rejected);
        }
        let escalated = tuner.state("t").level;
        assert_eq!(escalated, (START_LEVEL + 3).min(LADDER.len() - 1));
        // Two clean receipts are not enough…
        tuner.observe("t", Verdict::Verified);
        tuner.observe("t", Verdict::Verified);
        assert_eq!(tuner.state("t").level, escalated);
        // …the third relaxes exactly one rung.
        tuner.observe("t", Verdict::Verified);
        assert_eq!(tuner.state("t").level, escalated - 1);
        // A long clean run walks all the way back to the floor, never
        // below rung 0.
        for _ in 0..6 * RELAX_AFTER {
            tuner.observe("t", Verdict::Verified);
        }
        assert_eq!(tuner.state("t").level, 0);
    }

    #[test]
    fn one_flag_resets_the_clean_streak() {
        let mut tuner = AdaptiveTuner::new();
        tuner.observe("t", Verdict::Verified);
        tuner.observe("t", Verdict::Verified);
        tuner.observe("t", Verdict::Rejected); // streak dies, level up
        let level = tuner.state("t").level;
        tuner.observe("t", Verdict::Verified);
        tuner.observe("t", Verdict::Verified);
        assert_eq!(tuner.state("t").level, level, "streak restarted from 0");
    }

    #[test]
    fn tenants_are_tuned_independently() {
        let mut tuner = AdaptiveTuner::new();
        tuner.observe("noisy", Verdict::Rejected);
        assert_eq!(tuner.state("noisy").level, START_LEVEL + 1);
        assert_eq!(tuner.state("quiet").level, START_LEVEL);
        assert_eq!(tuner.config_for("quiet"), LADDER[START_LEVEL]);
        assert_eq!(tuner.config_for("noisy"), LADDER[START_LEVEL + 1]);
    }
}
