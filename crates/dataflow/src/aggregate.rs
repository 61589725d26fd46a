//! Min/Max/Median/Average aggregation — the operations whose checkers
//! need broadcast results and/or certificates (Table 1 of the paper).
//!
//! Each operation returns not just the result but also the certificate
//! the corresponding checker consumes:
//!
//! * **min/max** (§6.2): the asserted optima *and* a location certificate
//!   (which PE holds the optimum of each key), both replicated at every
//!   PE — Theorem 9 requires exactly that,
//! * **median** (§6.3): the asserted medians replicated at every PE,
//! * **average** (§6.1): per-key counts as a distributed certificate —
//!   "this certificate naturally arises during computation anyway".

use std::collections::HashMap;

use ccheck_hashing::Hasher;
use ccheck_net::Comm;

use crate::group::group_by_key;
use crate::reduce::reduce_by_key;
use crate::Pair;

/// Result of a min or max aggregation, replicated at every PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtremaResult {
    /// `(key, optimum)` sorted by key — the full asserted output.
    pub optima: Vec<Pair>,
    /// `(key, rank)` sorted by key — which PE holds the optimum
    /// (lowest rank on ties). The certificate of Theorem 9.
    pub locations: Vec<(u64, u64)>,
}

fn extrema_by_key(comm: &mut Comm, data: Vec<Pair>, take_min: bool) -> ExtremaResult {
    // Local optima per key.
    let mut local: HashMap<u64, u64> = HashMap::new();
    for (k, v) in data {
        local
            .entry(k)
            .and_modify(|cur| {
                if (take_min && v < *cur) || (!take_min && v > *cur) {
                    *cur = v;
                }
            })
            .or_insert(v);
    }
    let mut local_vec: Vec<Pair> = local.into_iter().collect();
    local_vec.sort_unstable_by_key(|&(k, _)| k);

    // Every PE gathers all local optima and combines them identically.
    // O(k·p) communication — the checker, not the operation, is the
    // paper's (and our) optimization target.
    let per_pe = comm.allgather(local_vec);
    let mut best: HashMap<u64, (u64, u64)> = HashMap::new(); // key → (opt, rank)
    for (rank, pe_optima) in per_pe.into_iter().enumerate() {
        for (k, v) in pe_optima {
            best.entry(k)
                .and_modify(|(cur, loc)| {
                    let better = if take_min { v < *cur } else { v > *cur };
                    if better {
                        *cur = v;
                        *loc = rank as u64;
                    }
                })
                .or_insert((v, rank as u64));
        }
    }
    let mut optima: Vec<Pair> = best.iter().map(|(&k, &(v, _))| (k, v)).collect();
    let mut locations: Vec<(u64, u64)> = best.iter().map(|(&k, &(_, r))| (k, r)).collect();
    optima.sort_unstable_by_key(|&(k, _)| k);
    locations.sort_unstable_by_key(|&(k, _)| k);
    ExtremaResult { optima, locations }
}

/// Per-key minimum with location certificate, replicated at every PE.
pub fn min_by_key(comm: &mut Comm, data: Vec<Pair>) -> ExtremaResult {
    extrema_by_key(comm, data, true)
}

/// Per-key maximum with location certificate, replicated at every PE.
pub fn max_by_key(comm: &mut Comm, data: Vec<Pair>) -> ExtremaResult {
    extrema_by_key(comm, data, false)
}

/// Median of a sorted slice using the paper's definition: the mean of the
/// two middle elements for even counts.
fn median_of_sorted(values: &[u64]) -> f64 {
    assert!(!values.is_empty());
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2] as f64
    } else {
        (values[n / 2 - 1] as f64 + values[n / 2] as f64) / 2.0
    }
}

/// Per-key median (GroupBy-powered, §6.3), replicated at every PE as the
/// median checker requires (Theorem 10). Sorted by key.
pub fn median_by_key(comm: &mut Comm, data: Vec<Pair>, hasher: &Hasher) -> Vec<(u64, f64)> {
    let groups = group_by_key(comm, data, hasher);
    let local_medians: Vec<(u64, f64)> = groups
        .into_iter()
        .map(|(k, mut values)| {
            values.sort_unstable();
            (k, median_of_sorted(&values))
        })
        .collect();
    let mut all: Vec<(u64, f64)> = comm
        .allgather(local_medians)
        .into_iter()
        .flatten()
        .collect();
    all.sort_unstable_by_key(|&(k, _)| k);
    all
}

/// Result of an average aggregation: distributed, aligned by index.
#[derive(Debug, Clone, PartialEq)]
pub struct AverageResult {
    /// `(key, average)` — this PE's shard, sorted by key.
    pub averages: Vec<(u64, f64)>,
    /// `(key, count)` — the certificate (§6.1), aligned with `averages`.
    pub counts: Vec<Pair>,
}

/// Per-key average via the (sum, count)-pair reduction trick of §6.1 —
/// no GroupBy needed. Returns this PE's shard plus the count certificate.
pub fn average_by_key(comm: &mut Comm, data: Vec<Pair>, hasher: &Hasher) -> AverageResult {
    // Encode (sum, count) into two parallel reductions over the same keys.
    let sums = reduce_by_key(comm, data.iter().copied(), hasher, |a, b| a + b);
    let counts = reduce_by_key(comm, data.iter().map(|&(k, _)| (k, 1)), hasher, |a, b| {
        a + b
    });
    debug_assert_eq!(sums.len(), counts.len());
    let averages = sums
        .iter()
        .zip(&counts)
        .map(|(&(k, s), &(k2, c))| {
            debug_assert_eq!(k, k2);
            (k, s as f64 / c as f64)
        })
        .collect();
    AverageResult { averages, counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;

    #[test]
    fn min_and_max_match_oracle() {
        let p = 4;
        let results = run(p, |comm| {
            let rank = comm.rank() as u64;
            let local: Vec<Pair> = (0..50)
                .map(|i| (i % 7, (rank * 50 + i).wrapping_mul(0x9E3779B9) % 1000))
                .collect();
            let mins = min_by_key(comm, local.clone());
            let maxs = max_by_key(comm, local.clone());
            (local, mins, maxs)
        });
        let all: Vec<Pair> = results.iter().flat_map(|(l, _, _)| l.clone()).collect();
        let mut expected_min: HashMap<u64, u64> = HashMap::new();
        let mut expected_max: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &all {
            expected_min
                .entry(k)
                .and_modify(|c| *c = v.min(*c))
                .or_insert(v);
            expected_max
                .entry(k)
                .and_modify(|c| *c = v.max(*c))
                .or_insert(v);
        }
        for (_, mins, maxs) in &results {
            assert_eq!(mins.optima.len(), expected_min.len());
            for &(k, v) in &mins.optima {
                assert_eq!(expected_min[&k], v);
            }
            for &(k, v) in &maxs.optima {
                assert_eq!(expected_max[&k], v);
            }
        }
        // Results replicated identically at every PE.
        for w in results.windows(2) {
            assert_eq!(w[0].1, w[1].1);
            assert_eq!(w[0].2, w[1].2);
        }
    }

    #[test]
    fn min_location_certificate_points_at_holder() {
        let results = run(3, |comm| {
            let rank = comm.rank() as u64;
            // Key 5's minimum (7) lives only on PE 1.
            let local: Vec<Pair> = if rank == 1 {
                vec![(5, 7), (6, 100)]
            } else {
                vec![(5, 50 + rank), (6, 10 * rank + 1)]
            };
            (local.clone(), min_by_key(comm, local))
        });
        let res = &results[0].1;
        let loc5 = res.locations.iter().find(|&&(k, _)| k == 5).unwrap().1;
        assert_eq!(loc5, 1);
        // The certificate must point at a PE that really holds the value.
        for &(k, rank) in &res.locations {
            let min_v = res.optima.iter().find(|&&(ok, _)| ok == k).unwrap().1;
            let holder_data = &results[rank as usize].0;
            assert!(
                holder_data.contains(&(k, min_v)),
                "key {k} not at PE {rank}"
            );
        }
    }

    #[test]
    fn median_odd_and_even_counts() {
        let results = run(2, |comm| {
            let local: Vec<Pair> = if comm.rank() == 0 {
                vec![(1, 10), (1, 20), (2, 1), (2, 3)]
            } else {
                vec![(1, 30), (2, 100), (2, 2)]
            };
            let hasher = Hasher::new(HasherKind::Tab64, 5);
            median_by_key(comm, local, &hasher)
        });
        // key 1: [10,20,30] → 20; key 2: [1,2,3,100] → (2+3)/2 = 2.5
        for medians in &results {
            assert_eq!(medians.len(), 2);
            assert_eq!(medians[0], (1, 20.0));
            assert_eq!(medians[1], (2, 2.5));
        }
    }

    #[test]
    fn average_with_count_certificate() {
        let results = run(3, |comm| {
            let rank = comm.rank() as u64;
            // Key 9: values 1..=9 spread over PEs → avg 5, count 9.
            let local: Vec<Pair> = (0..3).map(|i| (9, rank * 3 + i + 1)).collect();
            let hasher = Hasher::new(HasherKind::Tab64, 5);
            average_by_key(comm, local, &hasher)
        });
        let shard: Vec<_> = results
            .into_iter()
            .flat_map(|r| r.averages.into_iter().zip(r.counts).collect::<Vec<_>>())
            .collect();
        assert_eq!(shard.len(), 1);
        let ((k, avg), (k2, count)) = shard[0];
        assert_eq!((k, k2), (9, 9));
        assert_eq!(count, 9);
        assert!((avg - 5.0).abs() < 1e-12);
    }

    #[test]
    fn median_single_value_key() {
        let results = run(2, |comm| {
            let local: Vec<Pair> = if comm.rank() == 0 {
                vec![(7, 42)]
            } else {
                vec![]
            };
            let hasher = Hasher::new(HasherKind::Tab64, 5);
            median_by_key(comm, local, &hasher)
        });
        assert_eq!(results[0], vec![(7, 42.0)]);
    }
}
