//! Median aggregation checking (§6.3: Algorithm 2, Theorem 10).
//!
//! An element `m` is the median of a set of **unique** values iff the
//! number of elements smaller than `m` equals the number larger (using
//! the mean-of-two-middles convention for even counts). The checker maps
//! every input element to `−1` (below its key's asserted median), `+1`
//! (above), or `0` (equal) and verifies with the **sum-aggregation
//! checker** that every key's total is zero — inheriting the
//! `O(T_check-sum)` bound of Theorem 1.
//!
//! For duplicated values, Theorem 10 requires tie-breaking information
//! as a certificate. [`MedianTieCert`] carries, per key, how many
//! elements *equal* to the median the tie-breaking scheme places below
//! and above the cut; the checker then verifies
//! `#below + eq_below = #above + eq_above` and
//! `#equal = eq_below + eq_above + eq_at` probabilistically. As in the
//! paper, the certificate pins down *which occurrence* of the median
//! value has the middle rank; the checker verifies the assertion is
//! consistent with that tie-breaking.

use ccheck_net::Comm;

use crate::config::SumCheckConfig;
use crate::integrity::replica_matches_root;
use crate::lanes::{verdict, Lanes};
use crate::sum::SumChecker;

/// Tie-breaking certificate entry for one key (only needed when values
/// repeat; all-zeros for unique values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MedianTieCert {
    /// Elements equal to the median placed below the cut.
    pub eq_below: u64,
    /// Elements equal to the median placed above the cut.
    pub eq_above: u64,
    /// 1 if the median itself is an element at the cut (odd count), else 0.
    pub eq_at: u64,
}

/// Check a median aggregation with unique per-key values (Algorithm 2,
/// exactly as in the paper: elements below the asserted median map to
/// −1, above to +1, and the per-key totals must all be zero).
///
/// * `input` — this PE's share of (key, value) pairs.
/// * `asserted` — the full asserted medians `(key, median)`, sorted by
///   key, **replicated at every PE** (Theorem 10's requirement).
///
/// Probabilistic with failure ≤ `cfg.failure_bound()`; one-sided.
pub fn check_median_unique(
    comm: &mut Comm,
    input: &[(u64, u64)],
    asserted: &[(u64, f64)],
    cfg: SumCheckConfig,
    seed: u64,
) -> bool {
    check_median_impl(comm, input, asserted, None, cfg, seed)
}

/// Check a median aggregation with a tie-breaking certificate
/// (Theorem 10, non-unique values).
///
/// `certs[i]` belongs to `asserted[i]`. Both are replicated at all PEs.
pub fn check_median_with_cert(
    comm: &mut Comm,
    input: &[(u64, u64)],
    asserted: &[(u64, f64)],
    certs: &[MedianTieCert],
    cfg: SumCheckConfig,
    seed: u64,
) -> bool {
    check_median_impl(comm, input, asserted, Some(certs), cfg, seed)
}

fn check_median_impl(
    comm: &mut Comm,
    input: &[(u64, u64)],
    asserted: &[(u64, f64)],
    certs: Option<&[MedianTieCert]>,
    cfg: SumCheckConfig,
    seed: u64,
) -> bool {
    /// Wire form of the replicated (medians, certificates) payload.
    type Replicated = (Vec<(u64, u64)>, Vec<(u64, u64, u64)>);
    // Replicated data must be consistent across PEs (§2); a replica that
    // differs from PE 0's vetoes the verdict.
    let encodable: Replicated = (
        asserted.iter().map(|&(k, m)| (k, m.to_bits())).collect(),
        certs
            .map(|cs| {
                cs.iter()
                    .map(|c| (c.eq_below, c.eq_above, c.eq_at))
                    .collect()
            })
            .unwrap_or_default(),
    );
    let replica_ok = replica_matches_root(comm, &encodable, seed ^ 0x6D65_6469_616E);

    let mut local_ok = replica_ok
        && certs.is_none_or(|cs| asserted.len() == cs.len() && cs.iter().all(|c| c.eq_at <= 1))
        && asserted.windows(2).all(|w| w[0].0 < w[1].0);

    // Map elements to the two signed streams of Algorithm 2 (extended
    // with the equality stream for tie-breaking).
    let mut balance: Vec<(u64, i64)> = Vec::with_capacity(input.len());
    let mut equals: Vec<(u64, i64)> = Vec::new();
    if local_ok {
        for &(k, v) in input {
            match asserted.binary_search_by_key(&k, |&(ak, _)| ak) {
                Err(_) => {
                    // A key with input elements but no asserted median.
                    local_ok = false;
                    break;
                }
                Ok(i) => {
                    let m = asserted[i].1;
                    let vf = v as f64;
                    if vf < m {
                        balance.push((k, -1));
                    } else if vf > m {
                        balance.push((k, 1));
                    } else {
                        equals.push((k, 1));
                    }
                }
            }
        }
    }
    // Algorithm 2 verbatim without a certificate: the per-key ±1 balance
    // must be zero, and elements equal to the median (the middle element
    // itself for odd counts) contribute nothing. With one, two sum checks
    // with independent seeds: the per-key balance (#above − #below =
    // eq_below − eq_above ⟺ #below + eq_below = #above + eq_above, i.e.
    // the two sides of the cut balance once the certificate places the
    // ties) and the equality count (#equal = eq_below + eq_above + eq_at).
    // Their targets derive from the certificate, identical on every PE,
    // and are fed only from PE 0 so the replicas are not counted p times.
    // The sum checks' lanes share one verdict behind the local tests' veto.
    let targets = |target: fn(&MedianTieCert) -> i64| -> Vec<(u64, i64)> {
        match certs {
            Some(cs) if comm.rank() == 0 => asserted
                .iter()
                .zip(cs)
                .map(|(&(k, _), c)| (k, target(c)))
                .collect(),
            _ => Vec::new(),
        }
    };
    let signed = |seed: u64, stream: Vec<(u64, i64)>, target: Vec<(u64, i64)>| {
        let checker = SumChecker::new(cfg, seed);
        checker.lanes(checker.digest_signed(stream), checker.digest_signed(target))
    };
    let balance_target = targets(|c| c.eq_below as i64 - c.eq_above as i64);
    let mut lanes = Lanes::veto(!local_ok).concat(signed(seed ^ 0xBA1A, balance, balance_target));
    if certs.is_some() {
        let equals_target = targets(|c| (c.eq_below + c.eq_above + c.eq_at) as i64);
        lanes = lanes.concat(signed(seed ^ 0xE9A1, equals, equals_target));
    }
    verdict(comm, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;
    use std::collections::HashMap;

    fn cfg() -> SumCheckConfig {
        SumCheckConfig::new(6, 16, 9, HasherKind::Tab64)
    }

    /// Sequential median per the paper's definition.
    fn true_medians(all: &[(u64, u64)]) -> Vec<(u64, f64)> {
        let mut by_key: HashMap<u64, Vec<u64>> = HashMap::new();
        for &(k, v) in all {
            by_key.entry(k).or_default().push(v);
        }
        let mut out: Vec<(u64, f64)> = by_key
            .into_iter()
            .map(|(k, mut vs)| {
                vs.sort_unstable();
                let n = vs.len();
                let m = if n % 2 == 1 {
                    vs[n / 2] as f64
                } else {
                    (vs[n / 2 - 1] as f64 + vs[n / 2] as f64) / 2.0
                };
                (k, m)
            })
            .collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Unique-valued per-PE inputs: global values are a permutation.
    fn unique_inputs(p: usize) -> Vec<Vec<(u64, u64)>> {
        (0..p as u64)
            .map(|rank| {
                (0..60)
                    .map(|i| {
                        let g = rank * 60 + i;
                        (g % 5, g.wrapping_mul(0x9E3779B9) % 100_000) // effectively unique
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn accepts_correct_medians_unique() {
        for p in [1, 2, 4] {
            let inputs = unique_inputs(p);
            let all: Vec<(u64, u64)> = inputs.iter().flatten().copied().collect();
            let medians = true_medians(&all);
            let verdicts = run(p, |comm| {
                check_median_unique(comm, &inputs[comm.rank()], &medians, cfg(), 17)
            });
            assert!(verdicts.iter().all(|&v| v), "p={p}");
        }
    }

    #[test]
    fn rejects_shifted_median() {
        let inputs = unique_inputs(3);
        let all: Vec<(u64, u64)> = inputs.iter().flatten().copied().collect();
        let mut medians = true_medians(&all);
        // A large shift flips the sign of many elements — must be caught.
        medians[2].1 += 1e8;
        let mut rejections = 0;
        for seed in 0..30 {
            let verdicts = run(3, |comm| {
                check_median_unique(comm, &inputs[comm.rank()], &medians, cfg(), seed)
            });
            if verdicts.iter().all(|&v| !v) {
                rejections += 1;
            }
        }
        assert!(rejections >= 29, "only {rejections}/30 rejected");
    }

    #[test]
    fn even_count_gap_values_accepted_by_design() {
        // Algorithm 2 verifies the *balance* property: for an even count
        // any value strictly between the two middle elements balances
        // #below and #above, so the checker accepts it — the checker
        // certifies a valid split point, exactly as in the paper.
        let verdicts = run(1, |comm| {
            let input: Vec<(u64, u64)> = vec![(1, 10), (1, 20), (1, 30), (1, 40)];
            // True median is 25.0; 22.0 lies in the middle gap.
            check_median_unique(comm, &input, &[(1, 22.0)], cfg(), 4)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn rejects_median_of_wrong_element() {
        // Assert the value *next to* the median — balance breaks by 2.
        let inputs = unique_inputs(2);
        let all: Vec<(u64, u64)> = inputs.iter().flatten().copied().collect();
        let mut by_key: HashMap<u64, Vec<u64>> = HashMap::new();
        for &(k, v) in &all {
            by_key.entry(k).or_default().push(v);
        }
        let mut medians: Vec<(u64, f64)> = by_key
            .into_iter()
            .map(|(k, mut vs)| {
                vs.sort_unstable();
                // Deliberately pick rank n/2 + 1 instead of the median.
                (k, vs[(vs.len() / 2 + 1).min(vs.len() - 1)] as f64)
            })
            .collect();
        medians.sort_by_key(|&(k, _)| k);
        let verdicts = run(2, |comm| {
            check_median_unique(comm, &inputs[comm.rank()], &medians, cfg(), 3)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_forgotten_key() {
        let inputs = unique_inputs(2);
        let all: Vec<(u64, u64)> = inputs.iter().flatten().copied().collect();
        let mut medians = true_medians(&all);
        medians.remove(1);
        let verdicts = run(2, |comm| {
            check_median_unique(comm, &inputs[comm.rank()], &medians, cfg(), 3)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn duplicates_with_certificate() {
        // Key 1: values [3, 5, 5, 5, 9] → median 5 (odd, the middle 5).
        // Tie-breaking: one 5 below the cut, one above, one at the cut.
        let input: Vec<(u64, u64)> = vec![(1, 3), (1, 5), (1, 5), (1, 5), (1, 9)];
        let asserted = vec![(1u64, 5.0f64)];
        let certs = vec![MedianTieCert {
            eq_below: 1,
            eq_above: 1,
            eq_at: 1,
        }];
        let verdicts = run(2, |comm| {
            let local: Vec<(u64, u64)> =
                input.iter().copied().skip(comm.rank()).step_by(2).collect();
            check_median_with_cert(comm, &local, &asserted, &certs, cfg(), 5)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn duplicates_wrong_median_rejected_despite_certificate() {
        // Values [3, 5, 5, 5, 9]: asserting median 3 cannot be saved by
        // any consistent certificate claiming 3 equals at the cut.
        let input: Vec<(u64, u64)> = vec![(1, 3), (1, 5), (1, 5), (1, 5), (1, 9)];
        let asserted = vec![(1u64, 3.0f64)];
        // Cheating cert: claims the one "3" sits at the cut with two
        // below — but only one element equals 3, so the equality-count
        // stream disagrees.
        let certs = vec![MedianTieCert {
            eq_below: 2,
            eq_above: 0,
            eq_at: 1,
        }];
        let verdicts = run(2, |comm| {
            let local: Vec<(u64, u64)> =
                input.iter().copied().skip(comm.rank()).step_by(2).collect();
            check_median_with_cert(comm, &local, &asserted, &certs, cfg(), 5)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_inconsistent_replicas() {
        let inputs = unique_inputs(2);
        let all: Vec<(u64, u64)> = inputs.iter().flatten().copied().collect();
        let medians = true_medians(&all);
        let verdicts = run(2, |comm| {
            let mut mine = medians.clone();
            if comm.rank() == 1 {
                mine[0].1 += 1.0;
            }
            check_median_unique(comm, &inputs[comm.rank()], &mine, cfg(), 3)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn a_replica_that_only_the_fingerprint_tells_apart_rejects() {
        // PE 1's copy has one more key that no input holds: its local
        // tests and the sum check pass, so only the replica veto rejects.
        let inputs = unique_inputs(2);
        let all: Vec<(u64, u64)> = inputs.iter().flatten().copied().collect();
        let medians = true_medians(&all);
        for extra in [false, true] {
            let verdicts = run(2, |comm| {
                let mut mine = medians.clone();
                if extra && comm.rank() == 1 {
                    mine.push((u64::MAX, 5.0));
                }
                check_median_unique(comm, &inputs[comm.rank()], &mine, cfg(), 3)
            });
            assert_eq!(verdicts, [!extra; 2]);
        }
    }

    #[test]
    fn even_count_mean_of_middles() {
        // Key 1: [10, 20, 30, 40] → median 25.0, no element equals it.
        let verdicts = run(2, |comm| {
            let local: Vec<(u64, u64)> = if comm.rank() == 0 {
                vec![(1, 10), (1, 30)]
            } else {
                vec![(1, 20), (1, 40)]
            };
            check_median_unique(comm, &local, &[(1, 25.0)], cfg(), 8)
        });
        assert!(verdicts.iter().all(|&v| v));
        // And 20.0 (an element, but rank 2 of 4) must be rejected.
        let verdicts = run(2, |comm| {
            let local: Vec<(u64, u64)> = if comm.rank() == 0 {
                vec![(1, 10), (1, 30)]
            } else {
                vec![(1, 20), (1, 40)]
            };
            check_median_unique(comm, &local, &[(1, 20.0)], cfg(), 8)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }
}
