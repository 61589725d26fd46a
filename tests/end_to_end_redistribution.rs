//! End-to-end: the invasive redistribution checkers (Corollaries 14/15)
//! against the *real* redistribution phases of the dataflow layer, plus
//! the Zip checker against the real distributed zip.

use ccheck::permutation::{PermCheckConfig, PermChecker};
use ccheck::redistribution::{check_groupby_redistribution, check_join_redistribution};
use ccheck::zip::{ZipCheckConfig, ZipChecker};
use ccheck_dataflow::{redistribute_by_key_hash, zip};
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_net::run;
use ccheck_workloads::{local_range, uniform_ints, zipf_valued_pairs};

fn perm() -> PermChecker {
    PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 3)
}

#[test]
fn real_groupby_redistribution_verified() {
    for p in [1, 2, 4, 8] {
        let verdicts = run(p, |comm| {
            let pre = zipf_valued_pairs(17, 100, 1 << 30, local_range(4_000, comm.rank(), p));
            let hasher = Hasher::new(HasherKind::Tab64, 23);
            let post = redistribute_by_key_hash(comm, pre.clone(), &hasher);
            check_groupby_redistribution(comm, &pre, &post, &hasher, &perm(), 5)
        });
        assert!(verdicts.iter().all(|&v| v), "p={p}");
    }
}

#[test]
fn redistribution_with_wrong_partition_hasher_rejected() {
    // The checker must verify *placement*, not just multiset identity:
    // a redistribution done with a different hash is a misplacement.
    let verdicts = run(4, |comm| {
        let pre = zipf_valued_pairs(17, 100, 1 << 30, local_range(4_000, comm.rank(), 4));
        let actual = Hasher::new(HasherKind::Tab64, 23);
        let claimed = Hasher::new(HasherKind::Tab64, 24);
        let post = redistribute_by_key_hash(comm, pre.clone(), &actual);
        check_groupby_redistribution(comm, &pre, &post, &claimed, &perm(), 5)
    });
    assert!(verdicts.iter().all(|&v| !v));
}

#[test]
fn real_join_redistribution_verified() {
    let verdicts = run(4, |comm| {
        let r_pre = zipf_valued_pairs(1, 50, 1 << 20, local_range(2_000, comm.rank(), 4));
        let s_pre = zipf_valued_pairs(2, 50, 1 << 20, local_range(3_000, comm.rank(), 4));
        let hasher = Hasher::new(HasherKind::Tab64, 9);
        let r_post = redistribute_by_key_hash(comm, r_pre.clone(), &hasher);
        let s_post = redistribute_by_key_hash(comm, s_pre.clone(), &hasher);
        check_join_redistribution(comm, &r_pre, &r_post, &s_pre, &s_post, &hasher, &perm(), 11)
    });
    assert!(verdicts.iter().all(|&v| v));
}

#[test]
fn join_relations_on_different_hashers_rejected() {
    // Both relations individually consistent, but partitioned by
    // *different* hashes — equal keys not co-located; the shared-assign
    // check must reject the relation that used the other hash.
    let verdicts = run(4, |comm| {
        let r_pre = zipf_valued_pairs(1, 50, 1 << 20, local_range(2_000, comm.rank(), 4));
        let s_pre = zipf_valued_pairs(2, 50, 1 << 20, local_range(2_000, comm.rank(), 4));
        let h_r = Hasher::new(HasherKind::Tab64, 9);
        let h_s = Hasher::new(HasherKind::Tab64, 10);
        let r_post = redistribute_by_key_hash(comm, r_pre.clone(), &h_r);
        let s_post = redistribute_by_key_hash(comm, s_pre.clone(), &h_s);
        check_join_redistribution(comm, &r_pre, &r_post, &s_pre, &s_post, &h_r, &perm(), 11)
    });
    assert!(verdicts.iter().all(|&v| !v));
}

#[test]
fn real_zip_verified_and_corruption_caught() {
    for p in [1, 2, 4] {
        let verdicts = run(p, |comm| {
            // Deliberately different distributions: a is balanced, b is
            // front-loaded.
            let n = 4_000usize;
            let a = uniform_ints(4, 1 << 30, local_range(n, comm.rank(), p));
            let b_range = {
                // PE 0 holds 2 shares of b, last PE correspondingly less.
                let base = n / (p + 1);
                let start = if comm.rank() == 0 {
                    0
                } else {
                    (comm.rank() + 1) * base
                };
                let end = if comm.rank() + 1 == p {
                    n
                } else {
                    (comm.rank() + 2) * base
                };
                start..end
            };
            let b = uniform_ints(5, 1 << 30, b_range);
            let zipped = zip(comm, &a, &b);
            let checker = ZipChecker::new(ZipCheckConfig::default(), 6);
            let ok = checker.check(comm, &a, &b, &zipped);

            // Corrupt one pair's second component on one PE.
            let mut bad = zipped.clone();
            if comm.rank() == 0 && !bad.is_empty() {
                bad[0].1 ^= 1;
            }
            let caught = !checker.check(comm, &a, &b, &bad);
            ok && caught
        });
        assert!(verdicts.iter().all(|&v| v), "p={p}");
    }
}

#[test]
fn zip_checker_detects_reordered_output() {
    let verdicts = run(2, |comm| {
        let n = 1_000usize;
        let a = uniform_ints(4, 1 << 30, local_range(n, comm.rank(), 2));
        let b = uniform_ints(5, 1 << 30, local_range(n, comm.rank(), 2));
        let mut zipped = zip(comm, &a, &b);
        // Swap two adjacent pairs on PE 1: multisets intact, order broken.
        if comm.rank() == 1 && zipped.len() > 2 {
            zipped.swap(0, 1);
        }
        let checker = ZipChecker::new(ZipCheckConfig::default(), 6);
        checker.check(comm, &a, &b, &zipped)
    });
    assert!(verdicts.iter().all(|&v| !v));
}
