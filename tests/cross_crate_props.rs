//! Property-based cross-crate invariants: the checkers' one-sided-error
//! guarantee against randomly generated inputs and real dataflow
//! operations, and agreement between distributed and sequential
//! semantics.

use ccheck::config::SumCheckConfig;
use ccheck::permutation::{PermCheckConfig, PermChecker, PermMethod};
use ccheck::sort::check_sorted;
use ccheck::SumChecker;
use ccheck_dataflow::{reduce_by_key, sort};
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_net::run;
use proptest::prelude::*;
use std::collections::HashMap;

fn aggregate(input: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut m: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in input {
        *m.entry(k).or_insert(0) = m.get(&k).copied().unwrap_or(0).wrapping_add(v);
    }
    let mut out: Vec<(u64, u64)> = m.into_iter().collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-sidedness: any input, any seed — a correct aggregate is
    /// always accepted.
    #[test]
    fn sum_checker_never_rejects_correct(
        pairs in prop::collection::vec((0u64..1000, 0u64..1_000_000), 0..300),
        seed: u64,
        its in 1usize..6,
        d_exp in 1u32..6,
        m in 2u32..20,
    ) {
        let cfg = SumCheckConfig::new(its, 1 << d_exp, m, HasherKind::Tab64);
        let checker = SumChecker::new(cfg, seed);
        let output = aggregate(&pairs);
        prop_assert!(checker.check_local(&pairs, &output));
    }

    /// Any permutation of any multiset is accepted by every method.
    #[test]
    fn perm_checker_never_rejects_true_permutation(
        mut data in prop::collection::vec(0u64..1_000_000, 0..300),
        seed: u64,
        rot in 0usize..300,
    ) {
        let original = data.clone();
        if !data.is_empty() {
            let r = rot % data.len();
            data.rotate_left(r);
            data.reverse();
        }
        for method in [
            PermMethod::HashSum { hasher: HasherKind::Crc32c, log_h: 16 },
            PermMethod::HashSum { hasher: HasherKind::Tab64, log_h: 32 },
            PermMethod::PolyField,
            PermMethod::PolyGf64,
        ] {
            let checker = PermChecker::new(PermCheckConfig { method, iterations: 2 }, seed);
            prop_assert!(checker.check_local(&original, &data), "{method:?}");
        }
    }

    /// An element-count mismatch is always rejected, whatever the data.
    #[test]
    fn perm_checker_always_rejects_length_mismatch(
        data in prop::collection::vec(0u64..1_000_000, 1..200),
        seed: u64,
    ) {
        let shorter = &data[..data.len() - 1];
        let checker = PermChecker::new(
            PermCheckConfig::hash_sum(HasherKind::Tab64, 32), seed);
        prop_assert!(!checker.check_local(&data, shorter));
    }

    /// The distributed reduce matches the sequential oracle, and the
    /// checker accepts it — for arbitrary key/value distributions and
    /// PE counts.
    #[test]
    fn distributed_reduce_always_verifies(
        pairs in prop::collection::vec((0u64..50, 0u64..1_000_000), 0..200),
        p in 1usize..5,
        seed: u64,
    ) {
        let all = pairs.clone();
        let verdicts = run(p, |comm| {
            let local: Vec<(u64, u64)> = all
                .iter()
                .copied()
                .skip(comm.rank())
                .step_by(p)
                .collect();
            let hasher = Hasher::new(HasherKind::Tab64, 5);
            let out = reduce_by_key(comm, local.clone(), &hasher, |a, b| a.wrapping_add(b));
            let cfg = SumCheckConfig::new(4, 16, 9, HasherKind::Tab64);
            let checker = SumChecker::new(cfg, seed);
            let ok = checker.check_distributed(comm, &local, &out);
            (out, ok)
        });
        // Checker accepted everywhere.
        prop_assert!(verdicts.iter().all(|(_, ok)| *ok));
        // And the result matches the oracle.
        let mut merged: Vec<(u64, u64)> = verdicts
            .into_iter()
            .flat_map(|(out, _)| out)
            .collect();
        merged.sort_unstable();
        prop_assert_eq!(merged, aggregate(&pairs));
    }

    /// Distributed sort always verifies against the sort checker.
    #[test]
    fn distributed_sort_always_verifies(
        data in prop::collection::vec(0u64..1_000_000, 0..300),
        p in 1usize..5,
        seed: u64,
    ) {
        let all = data.clone();
        let verdicts = run(p, |comm| {
            let local: Vec<u64> = all
                .iter()
                .copied()
                .skip(comm.rank())
                .step_by(p)
                .collect();
            let out = sort(comm, local.clone());
            let perm = PermChecker::new(
                PermCheckConfig::hash_sum(HasherKind::Tab64, 32), seed);
            check_sorted(comm, &local, &out, &perm)
        });
        prop_assert!(verdicts.iter().all(|&v| v));
    }

    /// Signed condense is a homomorphism: the lanes of condense(a ++ b)
    /// equal the merged lanes of condense(a) and condense(b) — the
    /// combine step of the distributed verdict.
    #[test]
    fn condense_is_additive_homomorphism(
        a in prop::collection::vec((0u64..100, -1000i64..1000), 0..100),
        b in prop::collection::vec((0u64..100, -1000i64..1000), 0..100),
        seed: u64,
    ) {
        let cfg = SumCheckConfig::new(3, 8, 6, HasherKind::Tab64);
        let checker = SumChecker::new(cfg, seed);
        // condense(a ++ b)
        let mut t_ab = checker.new_table();
        let joined: Vec<(u64, i64)> = a.iter().chain(&b).copied().collect();
        checker.condense_signed(&joined, &mut t_ab);
        checker.finalize(&mut t_ab);
        // merge(lanes(condense(a)), lanes(condense(b)))
        let mut t_a = checker.new_table();
        let mut t_b = checker.new_table();
        checker.condense_signed(&a, &mut t_a);
        checker.condense_signed(&b, &mut t_b);
        checker.finalize(&mut t_a);
        checker.finalize(&mut t_b);
        let zero = checker.new_table();
        let mut merged = checker.lanes(t_a, zero.clone());
        merged.merge(&checker.lanes(t_b, zero.clone()));
        prop_assert_eq!(checker.lanes(t_ab, zero), merged);
    }
}
