//! The collective budget of the distributed checkers: a verdict costs a
//! number of rounds and messages that may depend on p, never on
//! `iterations`, and its bytes follow a closed form with no length prefix
//! in it: the difference of the two sides' sketches up the reduction
//! tree, packed at each row's width, one verdict byte down the
//! broadcast. A stray round, an 8-byte prefix, a word shipped wider than
//! its modulus or a second table coming back fails here.

use ccheck::lanes::verdict;
use ccheck::params::table2_rows;
use ccheck::permutation::{PermCheckConfig, PermChecker, PermMethod};
use ccheck::sketch::digest_chunked;
use ccheck::sort::check_sorted;
use ccheck::zip::{ZipCheckConfig, ZipChecker};
use ccheck::{
    check_average, check_extrema, check_extrema_bitvector, check_median_unique,
    check_median_with_cert, check_range_redistribution, optimize, Extremum, MedianTieCert,
    SumCheckConfig, SumChecker, XorCheckConfig, XorChecker,
};
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

/// Bytes of `bits` packed: padded to a whole byte, no prefix.
fn packed(bits: u64) -> u64 {
    bits.div_ceil(8)
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

/// `(rounds, msgs, bytes)` of a correct sum check under `cfg`.
fn sum_cost(p: usize, cfg: SumCheckConfig) -> (u64, u64, u64) {
    let sum = SumChecker::new(cfg, 7);
    cost(p, |comm| {
        let (input, output) = pair_shares(comm);
        sum.check_distributed(comm, &input, &output)
    })
}

#[test]
fn sum_and_xor_checks_are_one_verdict_of_one_table_at_every_rung() {
    for p in PES {
        let mut costs = Vec::new();
        for (its, d, m) in LADDER {
            let cfg = SumCheckConfig::new(its, d, m, HasherKind::Tab64);
            let xor = XorChecker::new(XorCheckConfig::new(its, d, HasherKind::Tab64), 7);
            let xor_cost = cost(p, |comm| {
                let (input, output) = pair_shares(comm);
                let digest = |side: &[(u64, u64)]| {
                    digest_chunked(|| xor.sketch(), side.iter().copied(), usize::MAX)
                };
                let lanes = xor.lanes(digest(&input), digest(&output));
                verdict(comm, lanes)
            });
            // One table's difference up, the verdict byte down: the sum
            // table at m + 1 bits a bucket, §4's `table_bits`, the xor
            // table at 64.
            let tables = [
                ("sum", sum_cost(p, cfg), packed(cfg.table_bits())),
                ("xor", xor_cost, 8 * (its * d) as u64),
            ];
            for (name, (rounds, msgs, bytes), table) in tables {
                let at = format!("{name} p={p} its={its} d={d}");
                assert_eq!(bytes, verdict_bytes(p as u64, table), "{at}");
                assert_eq!(msgs, allreduce_msgs(p as u64), "{at}");
                costs.push(rounds);
            }
        }
        assert!(costs.iter().all(|c| *c == costs[0]), "p={p}: {costs:?}");
    }
    // The rungs' tables, by name.
    let table_bytes: Vec<u64> = LADDER
        .iter()
        .map(|&(its, d, m)| packed(SumCheckConfig::new(its, d, m, HasherKind::Tab64).table_bits()))
        .collect();
    assert_eq!(table_bytes, [9, 44, 208, 2176, 51_200]);
}

#[test]
fn sum_check_sends_the_table2_budget() {
    // Table 2's optimum under a budget of b bits moves at most b / 8
    // bytes a hop, and exactly its table's bits rounded up to a byte.
    for (budget, delta) in table2_rows() {
        let opt = optimize(budget, delta).expect("every Table 2 row is feasible");
        let cfg = SumCheckConfig::new(
            opt.iterations,
            opt.buckets,
            opt.log2_rhat,
            HasherKind::Tab64,
        );
        assert_eq!(cfg.table_bits(), opt.bits_used);
        for p in PES {
            let (_, msgs, bytes) = sum_cost(p, cfg);
            let at = format!("b={budget} δ={delta:e} p={p}");
            let up = packed(cfg.table_bits());
            assert!(up <= budget / 8, "{at}");
            assert_eq!(bytes, verdict_bytes(p as u64, up), "{at}");
            assert_eq!(msgs, allreduce_msgs(p as u64), "{at}");
        }
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
        let up = packed(64 + 2 * cfg.table_bits());
        assert_eq!(bytes, verdict_bytes(p, up), "p={p}");
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
                    // iteration: a u128 sum difference or two products,
                    // 61 bits each in 𝔽_{2⁶¹−1}.
                    let its = iterations as u64;
                    let up = match method {
                        PermMethod::PolyField => packed(64 + 122 * its),
                        _ => 8 + 16 * its,
                    };
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
                // The length triple, then one 61-bit Mersenne-61
                // difference per lane and iteration up and the verdict
                // byte down.
                let p = p as u64;
                let up = packed(122 * iterations as u64);
                assert_eq!(
                    bytes,
                    prefix_sum_msgs(p) * 24 + verdict_bytes(p, up),
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

/// This PE's share of four keys with ten unique values each per PE, and
/// the replicated per-key medians and minima of the whole.
struct Keyed {
    input: Vec<(u64, u64)>,
    medians: Vec<(u64, f64)>,
    minima: Vec<(u64, u64)>,
}

fn keyed(comm: &Comm) -> Keyed {
    let (rank, p) = (comm.rank() as u64, comm.size() as u64);
    let keys = 0..4u64;
    let input = keys
        .clone()
        .flat_map(|k| (rank * 10..rank * 10 + 10).map(move |j| (k, k * 1000 + j)))
        .collect();
    // 10·p values a key: the median is the mean of the middle two.
    let medians = keys
        .clone()
        .map(|k| (k, (k * 1000 + 5 * p) as f64 - 0.5))
        .collect();
    let minima = keys.map(|k| (k, k * 1000)).collect();
    Keyed {
        input,
        medians,
        minima,
    }
}

#[test]
fn median_checks_ride_the_replica_comparison_in_the_verdict() {
    // PE 0's 8-byte replica fingerprint down a broadcast, then one
    // verdict: the veto word and one signed table (two with a tie
    // certificate) up, the verdict byte down. 3(p − 1) messages.
    let cfg = SumCheckConfig::new(4, 16, 9, HasherKind::Tab64);
    for p in PES {
        let unique = cost(p, |comm| {
            let keyed = keyed(comm);
            check_median_unique(comm, &keyed.input, &keyed.medians, cfg, 7)
        });
        let certified = cost(p, |comm| {
            let keyed = keyed(comm);
            let certs = vec![MedianTieCert::default(); keyed.medians.len()];
            check_median_with_cert(comm, &keyed.input, &keyed.medians, &certs, cfg, 7)
        });
        let p = p as u64;
        for ((_, msgs, bytes), tables) in [(unique, 1), (certified, 2)] {
            let at = format!("p={p} tables={tables}");
            assert_eq!(msgs, 3 * (p - 1), "{at}");
            let up = packed(64 + tables * cfg.table_bits());
            assert_eq!(bytes, 8 * (p - 1) + verdict_bytes(p, up), "{at}");
        }
    }
    // At p = 2: a broadcast and a verdict, 3 messages in 2 rounds.
    let (rounds, msgs, _) = cost(2, |comm| {
        let keyed = keyed(comm);
        check_median_unique(comm, &keyed.input, &keyed.medians, cfg, 7)
    });
    assert_eq!((msgs, rounds), (3, 2));
}

#[test]
fn extrema_checks_ride_the_replica_comparison_in_their_all_agree() {
    // The fingerprint broadcast and one 1-byte all_agree: 3(p − 1)
    // messages. The bitvector check adds its witness allreduce, one
    // length-prefixed word for four keys each way: 5(p − 1).
    for p in PES {
        let certified = cost(p, |comm| {
            let keyed = keyed(comm);
            let holders: Vec<(u64, u64)> = keyed.minima.iter().map(|&(k, _)| (k, 0)).collect();
            check_extrema(comm, Extremum::Min, &keyed.input, &keyed.minima, &holders)
        });
        let bitvector = cost(p, |comm| {
            let keyed = keyed(comm);
            check_extrema_bitvector(comm, Extremum::Min, &keyed.input, &keyed.minima)
        });
        let p = p as u64;
        assert_eq!(certified.1, 3 * (p - 1), "p={p}");
        assert_eq!(certified.2, (p - 1) * (8 + 2), "p={p}");
        assert_eq!(bitvector.1, 5 * (p - 1), "p={p}");
        assert_eq!(bitvector.2, (p - 1) * (8 + 2 * 16 + 2), "p={p}");
    }
}

#[test]
fn range_redistribution_check_vetoes_inconsistent_splitters_in_its_verdict() {
    // The splitter fingerprint broadcast, the boundary allgather and the
    // multiset verdict: 5(p − 1) messages, no all_agree of its own.
    let perm = PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 7);
    for p in PES {
        let (_, msgs, _) = cost(p, |comm| {
            let (rank, p) = (comm.rank() as u64, comm.size() as u64);
            let splitters: Vec<u64> = (1..p).map(|i| i * 100).collect();
            let pre: Vec<(u64, u64)> = (0..100).map(|i| (i * p + rank + 1, i)).collect();
            let post: Vec<(u64, u64)> = (rank * 100 + 1..=rank * 100 + 100)
                .map(|k| (k, (k - 1) / p))
                .collect();
            check_range_redistribution(comm, &pre, &post, &pre, &post, &splitters, &perm, 7)
        });
        assert_eq!(msgs, 5 * (p as u64 - 1), "p={p}");
    }
}
