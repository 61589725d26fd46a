//! The collective budget of the distributed checkers: a verdict costs a
//! number of rounds and messages that may depend on p, never on
//! `iterations`, and its bytes follow a closed form with no length prefix
//! in it: the difference of the two sides' sketches up the reduction
//! tree, one verdict byte down the broadcast. A stray round, an 8-byte
//! prefix or a second table coming back fails here.

use ccheck::lanes::verdict;
use ccheck::permutation::{PermCheckConfig, PermChecker, PermMethod};
use ccheck::sketch::digest_chunked;
use ccheck::sort::check_sorted;
use ccheck::zip::{ZipCheckConfig, ZipChecker};
use ccheck::{check_average, SumCheckConfig, SumChecker, XorCheckConfig, XorChecker};
use ccheck_hashing::HasherKind;
use ccheck_net::{run_with_stats, Comm, StatsSnapshot};

const PES: [usize; 4] = [1, 2, 3, 5];
/// The service tuner's ladder, `(its, buckets, log2_rhat)`
/// (`ccheck-service`'s `sched::tuner::LADDER`).
const LADDER: [(usize, usize, u32); 5] = [
    (1, 8, 8),
    (2, 16, 10),
    (4, 32, 12),
    (8, 128, 16),
    (16, 1024, 24),
];
/// Its iteration counts.
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

/// Bytes of one verdict ([`verdict`]): `up` bytes a hop of the tree
/// reduce, one byte a hop of the broadcast.
fn verdict_bytes(p: u64, up: u64) -> u64 {
    (p - 1) * (up + 1)
}

/// `(key, value)` pairs.
type Pairs = Vec<(u64, u64)>;

/// This PE's shares as `(key, value)` pairs of a correct aggregation: the
/// keys are distinct, so the output is the input, split another way.
fn pair_shares(comm: &Comm) -> (Pairs, Pairs) {
    let (input, output) = shares(comm);
    let pairs = |xs: Vec<u64>| xs.into_iter().map(|x| (x, x * 3 + 1)).collect();
    (pairs(input), pairs(output))
}

#[test]
fn sum_and_xor_checks_are_one_verdict_of_one_table_at_every_rung() {
    for p in PES {
        let mut costs = Vec::new();
        for (its, d, m) in LADDER {
            let sum = SumChecker::new(SumCheckConfig::new(its, d, m, HasherKind::Tab64), 7);
            let xor = XorChecker::new(XorCheckConfig::new(its, d, HasherKind::Tab64), 7);
            let sum_cost = cost(p, |comm| {
                let (input, output) = pair_shares(comm);
                sum.check_distributed(comm, &input, &output)
            });
            let xor_cost = cost(p, |comm| {
                let (input, output) = pair_shares(comm);
                let digest = |side: &[(u64, u64)]| {
                    digest_chunked(|| xor.sketch(), side.iter().copied(), usize::MAX)
                };
                let lanes = xor.lanes(digest(&input), digest(&output));
                verdict(comm, lanes)
            });
            // One table's difference up, the verdict byte down.
            let table = 8 * (its * d) as u64;
            for (name, (rounds, msgs, bytes)) in [("sum", sum_cost), ("xor", xor_cost)] {
                let at = format!("{name} p={p} its={its} d={d}");
                assert_eq!(bytes, verdict_bytes(p as u64, table), "{at}");
                assert_eq!(msgs, allreduce_msgs(p as u64), "{at}");
                costs.push(rounds);
            }
        }
        assert!(costs.iter().all(|c| *c == costs[0]), "p={p}: {costs:?}");
    }
}

#[test]
fn average_check_is_one_verdict() {
    // The local tests, the sum check and the count check: one reduce of
    // a veto word and two tables, one broadcast.
    let cfg = SumCheckConfig::new(4, 16, 9, HasherKind::Tab64);
    for p in PES {
        let (_, msgs, bytes) = cost(p, |comm| {
            let (input, output) = pair_shares(comm);
            let averages: Vec<(u64, f64)> = output.iter().map(|&(k, v)| (k, v as f64)).collect();
            let counts: Vec<(u64, u64)> = output.iter().map(|&(k, _)| (k, 1)).collect();
            check_average(comm, &input, &averages, &counts, cfg, 7)
        });
        let p = p as u64;
        assert_eq!(msgs, allreduce_msgs(p), "p={p}");
        assert_eq!(bytes, verdict_bytes(p, 8 + 2 * 8 * 4 * 16), "p={p}");
    }
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
            let costs: Vec<_> = ITERATIONS
                .iter()
                .map(|&iterations| {
                    let cfg = PermCheckConfig { method, iterations };
                    let (rounds, msgs, bytes) = cost(p, |comm| {
                        let (input, output) = shares(comm);
                        PermChecker::new(cfg, 7).check(comm, &input, &output)
                    });
                    // The count difference, then a pair of words an
                    // iteration: a u128 sum difference or two products.
                    let up = 8 + 16 * iterations as u64;
                    assert_eq!(
                        bytes,
                        verdict_bytes(p as u64, up),
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
                // lane and iteration up and the verdict byte down.
                let p = p as u64;
                assert_eq!(
                    bytes,
                    prefix_sum_msgs(p) * 24 + verdict_bytes(p, 16 * iterations as u64),
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
                // word, the verdict byte and the boundary allgather: the
                // same at every rung.
                let lanes = (p as u64 - 1) * 16 * iterations as u64;
                (rounds, msgs, bytes - lanes)
            })
            .collect();
        assert!(costs.iter().all(|c| *c == costs[0]), "p={p}: {costs:?}");
        // Tree reduce + broadcast, tree gather + broadcast.
        assert_eq!(costs[0].1, 2 * allreduce_msgs(p as u64), "p={p}");
    }
}
