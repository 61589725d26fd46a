//! Self-checking operations with graceful degradation.
//!
//! The paper's conclusion sketches the deployment mode this module
//! implements: "The existence of such checkers could speed up the
//! development cycles of operations in big data processing frameworks by
//! providing correctness checks and allowing for **graceful degradation
//! at execution time by falling back to a simpler but slower method
//! should a computation fail**."
//!
//! Each `checked_*` wrapper runs the fast distributed operation, then
//! its checker; on rejection it retries (a transient soft error — e.g. a
//! bitflip — will not recur), and after `max_retries` failures it falls
//! back to a simple, slow, gather-everything reference implementation on
//! PE 0 (deterministic, easy to audit — the "simpler but slower method").
//!
//! All of them are [`checked_with`], the one retry-then-fallback loop.
//! The operation *borrows* its input (`&[T]`): every attempt, the
//! checker and the fallback read the caller's original data, and nothing
//! is copied on the checker's behalf. A sort makes its working copy
//! itself, inside its own time.

use std::collections::HashMap;

use ccheck::config::SumCheckConfig;
use ccheck::permutation::PermChecker;
use ccheck::sort::check_sorted;
use ccheck::SumChecker;
use ccheck_hashing::Hasher;
use ccheck_net::wire::Wire;
use ccheck_net::Comm;

use crate::reduce::reduce_by_key;
use crate::sort::sort;
use crate::Pair;

/// Outcome of a checked operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckedOutcome {
    /// The fast path verified on the first try.
    FastPath,
    /// The fast path verified after `retries` rejected attempts.
    Retried {
        /// Number of rejected attempts before success.
        retries: usize,
    },
    /// All attempts rejected; the slow reference path produced the result.
    FellBack,
}

/// The retry-then-fallback loop of every checked operation. Attempt
/// `attempt(comm, data, i)`, for `i` in `0..=max_retries`, runs the
/// operation and its check and returns the output with the (SPMD-wide)
/// verdict. The first verified output wins; if none verifies,
/// `fallback(comm, data)` recomputes the result the slow, auditable way.
pub fn checked_with<T, O>(
    comm: &mut Comm,
    data: Vec<T>,
    max_retries: usize,
    fallback: impl FnOnce(&mut Comm, Vec<T>) -> O,
    mut attempt: impl FnMut(&mut Comm, &[T], usize) -> (O, bool),
) -> (O, CheckedOutcome) {
    for i in 0..=max_retries {
        if let (output, true) = attempt(comm, &data, i) {
            let outcome = match i {
                0 => CheckedOutcome::FastPath,
                retries => CheckedOutcome::Retried { retries },
            };
            return (output, outcome);
        }
    }
    (fallback(comm, data), CheckedOutcome::FellBack)
}

/// Self-checking sum aggregation: `reduce_by_key` + [`SumChecker`], with
/// retry and gather-based fallback. Returns this PE's shard and how the
/// result was obtained. All PEs observe the same outcome.
pub fn checked_reduce_by_key(
    comm: &mut Comm,
    data: Vec<Pair>,
    hasher: &Hasher,
    cfg: SumCheckConfig,
    seed: u64,
    max_retries: usize,
) -> (Vec<Pair>, CheckedOutcome) {
    checked_reduce_with(comm, data, cfg, seed, max_retries, |comm, data| {
        reduce_by_key(comm, data.iter().copied(), hasher, |a, b| a.wrapping_add(b))
    })
}

/// Generic form of [`checked_reduce_by_key`] taking the (possibly
/// faulty) sum-aggregation implementation as a closure — the hook that
/// lets tests and chaos experiments inject failing operations. Attempt
/// `i` is checked with seed `seed + i`.
pub fn checked_reduce_with<F>(
    comm: &mut Comm,
    data: Vec<Pair>,
    cfg: SumCheckConfig,
    seed: u64,
    max_retries: usize,
    mut operation: F,
) -> (Vec<Pair>, CheckedOutcome)
where
    F: FnMut(&mut Comm, &[Pair]) -> Vec<Pair>,
{
    checked_with(comm, data, max_retries, reference_reduce, |comm, d, i| {
        let output = operation(comm, d);
        let checker = SumChecker::new(cfg, seed.wrapping_add(i as u64));
        let verified = checker.check_distributed(comm, d, &output);
        (output, verified)
    })
}

/// Self-checking sort: sample sort + sort checker, with retry and a
/// gather-based fallback sort on PE 0.
pub fn checked_sort(
    comm: &mut Comm,
    data: Vec<u64>,
    perm: &PermChecker,
    max_retries: usize,
) -> (Vec<u64>, CheckedOutcome) {
    checked_sort_with(comm, data, perm, max_retries, |comm, d| {
        sort(comm, d.to_vec())
    })
}

/// Generic form of [`checked_sort`] taking the (possibly faulty) sort
/// implementation as a closure — the hook for tests and chaos
/// experiments. Every attempt is checked with `perm`.
pub fn checked_sort_with<F>(
    comm: &mut Comm,
    data: Vec<u64>,
    perm: &PermChecker,
    max_retries: usize,
    mut operation: F,
) -> (Vec<u64>, CheckedOutcome)
where
    F: FnMut(&mut Comm, &[u64]) -> Vec<u64>,
{
    checked_with(comm, data, max_retries, reference_sort, |comm, data, _| {
        let output = operation(comm, data);
        let verified = check_sorted(comm, data, &output, perm);
        (output, verified)
    })
}

/// The fallbacks' shape: gather everything to PE 0, let `reference`
/// compute the result there as `p` shards, and broadcast each PE its own.
fn on_pe0<T: Wire, O: Wire + Clone>(
    comm: &mut Comm,
    data: Vec<T>,
    reference: impl FnOnce(Vec<T>, usize) -> Vec<Vec<O>>,
) -> Vec<O> {
    let p = comm.size();
    let shards = comm.gather(0, data).map_or_else(Vec::new, |parts| {
        reference(parts.into_iter().flatten().collect(), p)
    });
    let mine = comm.broadcast(0, shards).into_iter().nth(comm.rank());
    mine.unwrap_or_default()
}

/// The fallback of a checked sum aggregation: a sequential hash-table
/// aggregation on PE 0, dealt out round-robin so the distribution
/// resembles the fast path.
pub fn reference_reduce(comm: &mut Comm, data: Vec<Pair>) -> Vec<Pair> {
    on_pe0(comm, data, |all, p| {
        let mut table: HashMap<u64, u64> = HashMap::new();
        for (k, v) in all {
            let acc = table.entry(k).or_insert(0);
            *acc = acc.wrapping_add(v);
        }
        let mut all: Vec<Pair> = table.into_iter().collect();
        all.sort_unstable();
        let mut shards = vec![Vec::new(); p];
        for (i, pair) in all.into_iter().enumerate() {
            shards[i % p].push(pair);
        }
        shards
    })
}

/// The fallback of a checked sort: a sequential sort on PE 0, dealt out
/// in equal contiguous shards.
pub fn reference_sort(comm: &mut Comm, data: Vec<u64>) -> Vec<u64> {
    on_pe0(comm, data, |mut all, p| {
        all.sort_unstable();
        let mut shards: Vec<Vec<u64>> = all
            .chunks(all.len().div_ceil(p).max(1))
            .map(<[u64]>::to_vec)
            .collect();
        shards.resize(p, Vec::new());
        shards
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck::permutation::PermCheckConfig;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;

    #[test]
    fn fast_path_when_operation_correct() {
        let outcomes = run(4, |comm| {
            let rank = comm.rank() as u64;
            let data: Vec<Pair> = (0..100).map(|i| (i % 11, rank * 100 + i)).collect();
            let hasher = Hasher::new(HasherKind::Tab64, 1);
            let cfg = SumCheckConfig::new(4, 16, 9, HasherKind::Tab64);
            let (out, outcome) = checked_reduce_by_key(comm, data, &hasher, cfg, 5, 2);
            (out.len(), outcome)
        });
        assert!(outcomes.iter().all(|(_, o)| *o == CheckedOutcome::FastPath));
        let total_keys: usize = outcomes.iter().map(|(n, _)| n).sum();
        assert_eq!(total_keys, 11);
    }

    #[test]
    fn checked_sort_fast_path() {
        let outcomes = run(3, |comm| {
            let rank = comm.rank() as u64;
            let data: Vec<u64> = (0..200).map(|i| (rank * 200 + i) * 7 % 1000).collect();
            let perm = PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 9);
            let (out, outcome) = checked_sort(comm, data.clone(), &perm, 1);
            // Output is globally sorted.
            (out, outcome)
        });
        assert!(outcomes.iter().all(|(_, o)| *o == CheckedOutcome::FastPath));
        let concat: Vec<u64> = outcomes.iter().flat_map(|(o, _)| o.clone()).collect();
        assert!(concat.windows(2).all(|w| w[0] <= w[1]));
    }

    fn oracle_for(p: u64) -> Vec<Pair> {
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for rank in 0..p {
            for i in 0..60 {
                *oracle.entry(i % 7).or_insert(0) += rank * 60 + i;
            }
        }
        let mut oracle: Vec<Pair> = oracle.into_iter().collect();
        oracle.sort_unstable();
        oracle
    }

    #[test]
    fn transient_fault_triggers_retry() {
        // The operation corrupts its output on the first attempt only —
        // a transient soft error. The wrapper must retry and succeed.
        let results = run(3, |comm| {
            let rank = comm.rank() as u64;
            let data: Vec<Pair> = (0..60).map(|i| (i % 7, rank * 60 + i)).collect();
            let hasher = Hasher::new(HasherKind::Tab64, 1);
            let cfg = SumCheckConfig::new(6, 16, 9, HasherKind::Tab64);
            let mut attempt = 0;
            checked_reduce_with(comm, data, cfg, 5, 3, |comm, data| {
                let mut out = reduce_by_key(comm, data.iter().copied(), &hasher, |a, b| {
                    a.wrapping_add(b)
                });
                attempt += 1;
                if attempt == 1 && comm.rank() == 0 && !out.is_empty() {
                    out[0].1 ^= 0x40; // transient bitflip
                }
                out
            })
        });
        for (_, outcome) in &results {
            assert_eq!(*outcome, CheckedOutcome::Retried { retries: 1 });
        }
        let mut merged: Vec<Pair> = results.into_iter().flat_map(|(o, _)| o).collect();
        merged.sort_unstable();
        assert_eq!(merged, oracle_for(3));
    }

    #[test]
    fn checked_sort_with_persistent_fault_falls_back() {
        // A sort whose output is corrupted on every attempt (via the
        // sorted-output manipulator model: duplicate a neighbor) must
        // fall back to the reference sort and still deliver the correct
        // global order.
        let results = run(3, |comm| {
            let rank = comm.rank() as u64;
            let data: Vec<u64> = (0..90).map(|i| (rank * 90 + i) * 13 % 500).collect();
            let perm = PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 9);
            checked_sort_with(comm, data, &perm, 1, |comm, d| {
                let mut out = crate::sort::sort(comm, d.to_vec());
                if comm.rank() == 0 && out.len() >= 2 {
                    out[0] = out[1].wrapping_add(1); // persistent corruption
                }
                out
            })
        });
        for (_, outcome) in &results {
            assert_eq!(*outcome, CheckedOutcome::FellBack);
        }
        let concat: Vec<u64> = results.into_iter().flat_map(|(o, _)| o).collect();
        assert_eq!(concat.len(), 270);
        assert!(concat.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn persistent_fault_falls_back_to_reference() {
        // The operation corrupts its output on *every* attempt — a hard
        // error. The wrapper must fall back and still deliver the
        // correct aggregate.
        let results = run(3, |comm| {
            let rank = comm.rank() as u64;
            let data: Vec<Pair> = (0..60).map(|i| (i % 7, rank * 60 + i)).collect();
            let hasher = Hasher::new(HasherKind::Tab64, 1);
            let cfg = SumCheckConfig::new(6, 16, 9, HasherKind::Tab64);
            checked_reduce_with(comm, data, cfg, 5, 2, |comm, data| {
                let mut out = reduce_by_key(comm, data.iter().copied(), &hasher, |a, b| {
                    a.wrapping_add(b)
                });
                if comm.rank() == 0 && !out.is_empty() {
                    out[0].1 = out[0].1.wrapping_add(13); // hard fault
                }
                out
            })
        });
        for (_, outcome) in &results {
            assert_eq!(*outcome, CheckedOutcome::FellBack);
        }
        let mut merged: Vec<Pair> = results.into_iter().flat_map(|(o, _)| o).collect();
        merged.sort_unstable();
        assert_eq!(merged, oracle_for(3));
    }
}
