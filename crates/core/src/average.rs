//! Average aggregation checking (§6.1, Corollary 8).
//!
//! With the per-key element counts available as a (distributed)
//! certificate, the asserted averages are convertible back into sums by
//! undoing the final division: `sum_k = avg_k · count_k`. The sum checker
//! then verifies the reconstructed sums against the input, and — to
//! prevent a compensating mis-scaling of averages and counts ("double
//! the averages and halve the counts") — the count checker verifies the
//! certificate against the input mapped to `(key, 1)` pairs. Both checks
//! run as the (value, count)-pair aggregation of §6.1 — their lanes and
//! the local tests' veto share one verdict ([`crate::lanes`]); the
//! combined failure probability is at most `2·δ_sum`.

use ccheck_net::Comm;

use crate::config::SumCheckConfig;
use crate::lanes::{verdict, Lanes};
use crate::sum::SumChecker;

/// Check an average aggregation.
///
/// * `input` — this PE's share of (key, value) pairs.
/// * `asserted_averages` — this PE's shard of `(key, average)` (any
///   distribution).
/// * `counts_certificate` — this PE's shard of `(key, count)`, aligned
///   index-by-index with `asserted_averages` ("both values available at
///   the same PE for any key", §6.1).
///
/// Values are integers (as in the paper's experiments); an average is
/// accepted if `avg·count` is within 0.25 of an integer. The
/// reconstruction is reliable while per-key sums stay below ≈ 2⁵⁰
/// (f64 rounding of `sum/count · count` stays ≪ 0.25 there); beyond
/// that, supply sums directly instead of averages. Adapting the checker
/// to genuine floating-point aggregation without cancellation issues is
/// open — the paper lists it as future work.
pub fn check_average(
    comm: &mut Comm,
    input: &[(u64, u64)],
    asserted_averages: &[(u64, f64)],
    counts_certificate: &[(u64, u64)],
    cfg: SumCheckConfig,
    seed: u64,
) -> bool {
    // Local reconstruction: sums from averages × counts.
    let reconstruct = |(&(k, avg), &(k2, count)): (&(u64, f64), &(u64, u64))| {
        let sum = avg * count as f64;
        let rounded = sum.round();
        // A non-integer sum cannot be correct.
        let off_grid = (sum - rounded).abs() > 0.25 || rounded < 0.0 || rounded > u64::MAX as f64;
        (k == k2 && count > 0 && !off_grid).then_some((k, rounded as u64))
    };
    let aligned = asserted_averages.len() == counts_certificate.len();
    let pairs = asserted_averages.iter().zip(counts_certificate);
    let reconstructed: Option<Vec<(u64, u64)>> = pairs.map(reconstruct).collect();
    let reconstructed = reconstructed.filter(|_| aligned);
    let local_ok = reconstructed.is_some();

    // One verdict over the local tests, the sum check (input values vs
    // reconstructed sums) and the count check (every element counts once
    // vs the certificate).
    let sums = SumChecker::new(cfg, seed ^ 0x5753);
    let counts = SumChecker::new(cfg, seed ^ 0x434E);
    let lanes = Lanes::veto(!local_ok)
        .concat(sums.lanes(
            sums.digest(input.iter().copied()),
            sums.digest(reconstructed.unwrap_or_default()),
        ))
        .concat(counts.lanes(
            counts.digest(input.iter().map(|&(k, _)| (k, 1))),
            counts.digest(counts_certificate.iter().copied()),
        ));
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

    /// Per-PE inputs plus the correct (averages, counts) shards
    /// (round-robin distributed).
    type Instance = (
        Vec<Vec<(u64, u64)>>,
        Vec<Vec<(u64, f64)>>,
        Vec<Vec<(u64, u64)>>,
    );

    fn make_instance(p: usize) -> Instance {
        let inputs: Vec<Vec<(u64, u64)>> = (0..p as u64)
            .map(|rank| (0..50).map(|i| (i % 9, rank * 50 + i + 1)).collect())
            .collect();
        let mut sums: HashMap<u64, (u64, u64)> = HashMap::new();
        for input in &inputs {
            for &(k, v) in input {
                let e = sums.entry(k).or_insert((0, 0));
                e.0 += v;
                e.1 += 1;
            }
        }
        let mut keys: Vec<u64> = sums.keys().copied().collect();
        keys.sort_unstable();
        let mut avg_shards = vec![Vec::new(); p];
        let mut count_shards = vec![Vec::new(); p];
        for (i, k) in keys.iter().enumerate() {
            let (s, c) = sums[k];
            avg_shards[i % p].push((*k, s as f64 / c as f64));
            count_shards[i % p].push((*k, c));
        }
        (inputs, avg_shards, count_shards)
    }

    #[test]
    fn accepts_correct_averages() {
        for p in [1, 2, 4] {
            let (inputs, avgs, counts) = make_instance(p);
            let verdicts = run(p, |comm| {
                let r = comm.rank();
                check_average(comm, &inputs[r], &avgs[r], &counts[r], cfg(), 7)
            });
            assert!(verdicts.iter().all(|&v| v), "p={p}");
        }
    }

    #[test]
    fn rejects_wrong_average() {
        let (inputs, avgs, counts) = make_instance(3);
        let verdicts = run(3, |comm| {
            let r = comm.rank();
            let mut my_avgs = avgs[r].clone();
            if r == 1 && !my_avgs.is_empty() {
                // Perturb while keeping avg·count integral: add 1/count.
                let c = counts[r][0].1 as f64;
                my_avgs[0].1 += 1.0 / c;
            }
            check_average(comm, &inputs[r], &my_avgs, &counts[r], cfg(), 7)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_compensating_scaling() {
        // Double averages, halve counts: reconstructed sums unchanged —
        // only the count check catches this (§6.1's motivating attack).
        let (inputs, avgs, counts) = make_instance(2);
        let verdicts = run(2, |comm| {
            let r = comm.rank();
            let mut my_avgs = avgs[r].clone();
            let mut my_counts = counts[r].clone();
            for ((_, a), (_, c)) in my_avgs.iter_mut().zip(my_counts.iter_mut()) {
                if *c % 2 == 0 {
                    *a *= 2.0;
                    *c /= 2;
                }
            }
            check_average(comm, &inputs[r], &my_avgs, &my_counts, cfg(), 7)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_non_integral_reconstruction() {
        let verdicts = run(1, |comm| {
            // One key: values 1, 2 → avg 1.5, count 2. Assert avg 1.7.
            check_average(comm, &[(1, 1), (1, 2)], &[(1, 1.7)], &[(1, 2)], cfg(), 3)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_zero_count() {
        let verdicts = run(1, |comm| {
            check_average(comm, &[(1, 5)], &[(1, 5.0)], &[(1, 0)], cfg(), 3)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_misaligned_shards() {
        let verdicts = run(1, |comm| {
            check_average(comm, &[(1, 5)], &[(1, 5.0)], &[(2, 1)], cfg(), 3)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_a_local_failure_the_sums_cannot_see() {
        // A zero count with average 0 on PE 1 and no input anywhere: the
        // sum and count checks both balance (x ⊕ 0 = x), so only the
        // local test's veto rejects, on every PE.
        let verdicts = run(2, |comm| {
            let (avgs, counts) =
                [(vec![], vec![]), (vec![(1, 0.0)], vec![(1, 0)])][comm.rank()].clone();
            check_average(comm, &[], &avgs, &counts, cfg(), 3)
        });
        assert_eq!(verdicts, [false, false]);
    }

    #[test]
    fn fractional_averages_handled() {
        // avg = 7/3: not representable exactly, but avg·count rounds back
        // to the integer sum within tolerance.
        let verdicts = run(1, |comm| {
            let input = [(1u64, 2u64), (1, 2), (1, 3)];
            check_average(comm, &input, &[(1, 7.0 / 3.0)], &[(1, 3)], cfg(), 3)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn empty_instance_accepted() {
        let verdicts = run(2, |comm| check_average(comm, &[], &[], &[], cfg(), 3));
        assert!(verdicts.iter().all(|&v| v));
    }
}
