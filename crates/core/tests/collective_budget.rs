//! The collective budget of the distributed checkers: a verdict costs a
//! number of rounds and messages that may depend on p, never on
//! `iterations`, and its bytes follow a closed form with no length prefix
//! in it. A stray round or an 8-byte prefix coming back fails here.

use ccheck::permutation::{PermCheckConfig, PermChecker, PermMethod};
use ccheck::sort::check_sorted;
use ccheck::zip::{ZipCheckConfig, ZipChecker};
use ccheck_hashing::HasherKind;
use ccheck_net::{run_with_stats, Comm, StatsSnapshot};

const PES: [usize; 4] = [1, 2, 3, 5];
/// The iteration counts of the service tuner's ladder
/// (`ccheck-service`'s `sched::tuner::LADDER`).
const ITERATIONS: [usize; 5] = [1, 2, 4, 8, 16];

fn methods() -> [PermMethod; 3] {
    [
        PermMethod::HashSum {
            hasher: HasherKind::Tab64,
            log_h: 32,
        },
        PermMethod::PolyField,
        PermMethod::PolyGf64,
    ]
}

/// `(max_rounds, total_messages, total_bytes)` of one accepted check.
fn cost(p: usize, check: impl Fn(&mut Comm) -> bool + Sync) -> (u64, u64, u64) {
    let (verdicts, snap): (Vec<bool>, StatsSnapshot) = run_with_stats(p, check);
    assert!(
        verdicts.iter().all(|&ok| ok),
        "a correct result was rejected"
    );
    (snap.max_rounds(), snap.total_messages(), snap.total_bytes())
}

/// A share of `0..p·100` and a permutation of the whole split another way.
fn shares(comm: &Comm) -> (Vec<u64>, Vec<u64>) {
    let (rank, p) = (comm.rank() as u64, comm.size() as u64);
    let input = (0..100).map(|i| i * p + rank).collect();
    let output = (rank * 100..(rank + 1) * 100).collect();
    (input, output)
}

/// Messages of a tree reduce + broadcast.
fn allreduce_msgs(p: u64) -> u64 {
    2 * (p - 1)
}

/// Messages of a Hillis–Steele scan + broadcast of the totals.
fn prefix_sum_msgs(p: u64) -> u64 {
    let scan: u64 = (0..)
        .map(|j| 1 << j)
        .take_while(|&d| d < p)
        .map(|d| p - d)
        .sum();
    scan + (p - 1)
}

#[test]
fn perm_check_is_one_allreduce_at_every_iteration_count() {
    for p in PES {
        for method in methods() {
            let lane_bytes = match method {
                PermMethod::HashSum { .. } => 32, // a pair of u128 sums
                PermMethod::PolyField | PermMethod::PolyGf64 => 16, // a pair of u64 products
            };
            let costs: Vec<_> = ITERATIONS
                .iter()
                .map(|&iterations| {
                    let cfg = PermCheckConfig { method, iterations };
                    let (rounds, msgs, bytes) = cost(p, |comm| {
                        let (input, output) = shares(comm);
                        PermChecker::new(cfg, 7).check(comm, &input, &output)
                    });
                    let per_hop = 16 + lane_bytes * iterations as u64;
                    assert_eq!(
                        bytes,
                        allreduce_msgs(p as u64) * per_hop,
                        "{method:?} p={p} iterations={iterations}"
                    );
                    (rounds, msgs)
                })
                .collect();
            assert!(
                costs.iter().all(|c| *c == costs[0]),
                "{method:?} p={p}: {costs:?}"
            );
            assert_eq!(costs[0].1, allreduce_msgs(p as u64), "{method:?} p={p}");
        }
    }
}

#[test]
fn zip_check_is_one_prefix_sum_and_one_allreduce_at_every_iteration_count() {
    for p in PES {
        let costs: Vec<_> = ITERATIONS
            .iter()
            .map(|&iterations| {
                let cfg = ZipCheckConfig {
                    hasher: HasherKind::Tab64,
                    iterations,
                };
                let (rounds, msgs, bytes) = cost(p, |comm| {
                    let (a, b) = shares(comm);
                    let zipped: Vec<(u64, u64)> =
                        a.iter().copied().zip(b.iter().copied()).collect();
                    ZipChecker::new(cfg, 7).check(comm, &a, &b, &zipped)
                });
                // The length triple, then one Mersenne-61 difference per
                // lane and iteration.
                let p = p as u64;
                assert_eq!(
                    bytes,
                    prefix_sum_msgs(p) * 24 + allreduce_msgs(p) * 16 * iterations as u64,
                    "p={p} iterations={iterations}"
                );
                (rounds, msgs)
            })
            .collect();
        assert!(costs.iter().all(|c| *c == costs[0]), "p={p}: {costs:?}");
        let p = p as u64;
        assert_eq!(costs[0].1, prefix_sum_msgs(p) + allreduce_msgs(p), "p={p}");
    }
}

#[test]
fn sort_check_is_one_allreduce_and_one_allgather_at_every_iteration_count() {
    for p in PES {
        let costs: Vec<_> = ITERATIONS
            .iter()
            .map(|&iterations| {
                let mut cfg = PermCheckConfig::hash_sum(HasherKind::Tab64, 32);
                cfg.iterations = iterations;
                let (rounds, msgs, bytes) = cost(p, |comm| {
                    let (input, output) = shares(comm);
                    check_sorted(comm, &input, &output, &PermChecker::new(cfg, 7))
                });
                // What is left after the permutation lanes is the count
                // pair and the boundary allgather: the same at every rung.
                let lanes = allreduce_msgs(p as u64) * 32 * iterations as u64;
                (rounds, msgs, bytes - lanes)
            })
            .collect();
        assert!(costs.iter().all(|c| *c == costs[0]), "p={p}: {costs:?}");
        // Tree reduce + broadcast, tree gather + broadcast.
        assert_eq!(costs[0].1, 2 * allreduce_msgs(p as u64), "p={p}");
    }
}
