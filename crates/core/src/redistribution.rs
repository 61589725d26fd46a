//! Invasive checkers for the redistribution phases of GroupBy and Join
//! (§6.5.3–§6.5.4, Corollaries 14–15).
//!
//! These checkers do not treat the operation as a black box: they verify
//! only the element-redistribution stage ("the order induced by the hash
//! function assigning keys to PEs"), leaving the group/join function to
//! a local checker. Two properties are verified:
//!
//! 1. **No element was lost, duplicated, or altered** — a permutation
//!    check over the pre- and post-redistribution multisets of pairs,
//! 2. **Every element reached the right PE** — each PE locally checks
//!    `assign(key) = rank` for its received elements, where `assign` is
//!    the hash (or range) partition used by the operation. For a Join,
//!    running both relations against the *same* `assign` also certifies
//!    co-location of equal keys on both sides.

use ccheck_hashing::Hasher;
use ccheck_net::Comm;

use crate::lanes::{verdict, Lanes};
use crate::permutation::PermChecker;
use crate::sketch::digest_chunked;
use crate::sort::{summaries_ordered, ShareSummary};

/// Seeded digest folding a (key, value) pair into one u64 for the
/// permutation fingerprint. Per-run seeding prevents adversarial
/// collision inputs; accidental collision probability is ≈ n²/2⁶⁵.
#[inline]
pub fn pair_digest(seed: u64, key: u64, value: u64) -> u64 {
    let mix = |x: u64| {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    mix(mix(key ^ seed) ^ value)
}

/// The lanes of the multiset check of `pre` against `post`: each pair
/// enters `perm`'s sketches as its [`pair_digest`] under `seed`.
fn multiset_lanes(perm: &PermChecker, seed: u64, pre: &[(u64, u64)], post: &[(u64, u64)]) -> Lanes {
    let digest = |pairs: &[(u64, u64)]| {
        let digests = pairs.iter().map(|&(k, v)| pair_digest(seed, k, v));
        digest_chunked(|| perm.sketch(), digests, usize::MAX)
    };
    perm.lanes(digest(pre), digest(post))
}

/// The lanes of one relation's GroupBy redistribution check: a veto if a
/// received pair does not belong on this PE, then the multiset check.
fn groupby_lanes(
    comm: &Comm,
    pre: &[(u64, u64)],
    post: &[(u64, u64)],
    partition_hasher: &Hasher,
    perm: &PermChecker,
    seed: u64,
) -> Lanes {
    let (p, my_rank) = (comm.size() as u64, comm.rank() as u64);
    let misplaced = post
        .iter()
        .any(|&(k, _)| partition_hasher.hash(k) % p != my_rank);
    let digest_seed = seed ^ 0x7265_6469_7374;
    Lanes::veto(misplaced).concat(multiset_lanes(perm, digest_seed, pre, post))
}

/// Check the redistribution phase of GroupBy (Corollary 14): placement
/// and integrity in one verdict.
///
/// * `pre` — this PE's pairs before redistribution (operation input),
/// * `post` — this PE's pairs after redistribution,
/// * `partition_hasher` — the hash function the operation used to assign
///   keys to PEs (`h(key) mod p`).
pub fn check_groupby_redistribution(
    comm: &mut Comm,
    pre: &[(u64, u64)],
    post: &[(u64, u64)],
    partition_hasher: &Hasher,
    perm: &PermChecker,
    seed: u64,
) -> bool {
    let lanes = groupby_lanes(comm, pre, post, partition_hasher, perm, seed);
    verdict(comm, lanes)
}

/// Check the input-redistribution phase of a hash join (Corollary 15):
/// both relations must be partitioned by the same key hash, with no
/// element lost or altered. Equal keys are then co-located by
/// construction of the shared partition function. Both relations' checks
/// share one verdict.
#[allow(clippy::too_many_arguments)] // SPMD checker over two relations: all four data views are required
pub fn check_join_redistribution(
    comm: &mut Comm,
    r_pre: &[(u64, u64)],
    r_post: &[(u64, u64)],
    s_pre: &[(u64, u64)],
    s_post: &[(u64, u64)],
    partition_hasher: &Hasher,
    perm: &PermChecker,
    seed: u64,
) -> bool {
    let r = groupby_lanes(comm, r_pre, r_post, partition_hasher, perm, seed);
    let s_seed = seed ^ 0x6A6F_696E;
    let s = groupby_lanes(comm, s_pre, s_post, partition_hasher, perm, s_seed);
    verdict(comm, r.concat(s))
}

/// Check a *range* redistribution (sort-merge join, Corollary 15): both
/// relations partitioned by the same splitters; additionally exchanges
/// boundary keys so global sortedness of the partition is certified
/// exactly as the paper describes ("exchange the locally largest
/// (smallest) keys with the following (preceding) PE").
#[allow(clippy::too_many_arguments)] // SPMD checker over two relations: all four data views are required
pub fn check_range_redistribution(
    comm: &mut Comm,
    r_pre: &[(u64, u64)],
    r_post: &[(u64, u64)],
    s_pre: &[(u64, u64)],
    s_post: &[(u64, u64)],
    splitters: &[u64],
    perm: &PermChecker,
    seed: u64,
) -> bool {
    let p = comm.size();
    let my_rank = comm.rank();
    let mut local_ok = splitters.len() == p - 1;

    // Placement by range: splitters[i-1] < key ≤ ... (match the
    // partition_point convention: dest = #splitters < key).
    if local_ok {
        let in_range = |k: u64| splitters.partition_point(|&sp| sp < k) == my_rank;
        local_ok =
            r_post.iter().all(|&(k, _)| in_range(k)) && s_post.iter().all(|&(k, _)| in_range(k));
    }
    // Splitters must be replicated consistently: a PE whose copy differs
    // from PE 0's vetoes the multiset verdict.
    let splitters_ok =
        crate::integrity::replica_matches_root(comm, &splitters.to_vec(), seed ^ 0x53504C);

    // Boundary exchange over the combined key range of both relations;
    // a share that fails its placement test says so in the same exchange.
    let keys = || r_post.iter().chain(s_post).map(|&(k, _)| k);
    let summary = match (local_ok, keys().min(), keys().max()) {
        (false, ..) => ShareSummary::Failed,
        (true, Some(min), Some(max)) => ShareSummary::Span { min, max },
        (true, ..) => ShareSummary::Empty,
    };
    let placed_and_ordered = summaries_ordered(comm, summary);

    let digest_seed = seed ^ 0x736F_7274_6A6E;
    let r = multiset_lanes(perm, digest_seed, r_pre, r_post);
    let s = multiset_lanes(perm, digest_seed ^ 1, s_pre, s_post);
    let multisets_ok = verdict(comm, Lanes::veto(!splitters_ok).concat(r).concat(s));

    placed_and_ordered && multisets_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::PermCheckConfig;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;

    fn perm() -> PermChecker {
        PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 77)
    }

    fn partition_hasher() -> Hasher {
        Hasher::new(HasherKind::Tab64, 4242)
    }

    /// Simulate a correct redistribution of `pre` shares.
    fn redistribute(pres: &[Vec<(u64, u64)>], hasher: &Hasher, p: usize) -> Vec<Vec<(u64, u64)>> {
        let mut posts = vec![Vec::new(); p];
        for pre in pres {
            for &(k, v) in pre {
                posts[(hasher.hash(k) % p as u64) as usize].push((k, v));
            }
        }
        posts
    }

    #[test]
    fn accepts_correct_groupby_redistribution() {
        let p = 4;
        let pres: Vec<Vec<(u64, u64)>> = (0..p as u64)
            .map(|rank| (0..50).map(|i| (i % 11, rank * 100 + i)).collect())
            .collect();
        let posts = redistribute(&pres, &partition_hasher(), p);
        let verdicts = run(p, |comm| {
            let r = comm.rank();
            check_groupby_redistribution(comm, &pres[r], &posts[r], &partition_hasher(), &perm(), 1)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn rejects_misplaced_element() {
        let p = 3;
        let pres: Vec<Vec<(u64, u64)>> = (0..p as u64)
            .map(|rank| (0..30).map(|i| (i % 7, rank * 100 + i)).collect())
            .collect();
        let mut posts = redistribute(&pres, &partition_hasher(), p);
        // Move one pair to the wrong PE (multiset stays intact).
        let pair = posts[0].pop().unwrap();
        posts[1].push(pair);
        let verdicts = run(p, |comm| {
            let r = comm.rank();
            check_groupby_redistribution(comm, &pres[r], &posts[r], &partition_hasher(), &perm(), 1)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_value_corruption_in_flight() {
        let p = 3;
        let pres: Vec<Vec<(u64, u64)>> = (0..p as u64)
            .map(|rank| (0..30).map(|i| (i % 7, rank * 100 + i)).collect())
            .collect();
        let mut posts = redistribute(&pres, &partition_hasher(), p);
        posts[2][0].1 ^= 0x8; // bitflip during transit
        let verdicts = run(p, |comm| {
            let r = comm.rank();
            check_groupby_redistribution(comm, &pres[r], &posts[r], &partition_hasher(), &perm(), 1)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_dropped_element() {
        let p = 2;
        let pres: Vec<Vec<(u64, u64)>> = (0..p as u64)
            .map(|rank| (0..30).map(|i| (i % 7, rank * 100 + i)).collect())
            .collect();
        let mut posts = redistribute(&pres, &partition_hasher(), p);
        posts[0].pop();
        let verdicts = run(p, |comm| {
            let r = comm.rank();
            check_groupby_redistribution(comm, &pres[r], &posts[r], &partition_hasher(), &perm(), 1)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn join_redistribution_both_relations() {
        let p = 3;
        let r_pres: Vec<Vec<(u64, u64)>> = (0..p as u64)
            .map(|rank| (0..20).map(|i| (i % 5, rank * 100 + i)).collect())
            .collect();
        let s_pres: Vec<Vec<(u64, u64)>> = (0..p as u64)
            .map(|rank| (0..15).map(|i| (i % 4, 1000 + rank * 100 + i)).collect())
            .collect();
        let r_posts = redistribute(&r_pres, &partition_hasher(), p);
        let s_posts = redistribute(&s_pres, &partition_hasher(), p);
        let verdicts = run(p, |comm| {
            let r = comm.rank();
            check_join_redistribution(
                comm,
                &r_pres[r],
                &r_posts[r],
                &s_pres[r],
                &s_posts[r],
                &partition_hasher(),
                &perm(),
                9,
            )
        });
        assert!(verdicts.iter().all(|&v| v));

        // Corrupt only the s relation: still rejected.
        let mut s_bad = s_posts.clone();
        s_bad[1][0].0 = s_bad[1][0].0.wrapping_add(1);
        let verdicts = run(p, |comm| {
            let r = comm.rank();
            check_join_redistribution(
                comm,
                &r_pres[r],
                &r_posts[r],
                &s_pres[r],
                &s_bad[r],
                &partition_hasher(),
                &perm(),
                9,
            )
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn range_redistribution_accepts_and_rejects() {
        let p = 3;
        let splitters = vec![10u64, 20];
        let route = |k: u64| splitters.partition_point(|&sp| sp < k);
        let r_pres: Vec<Vec<(u64, u64)>> = (0..p as u64)
            .map(|rank| (0..30).map(|i| (i % 30, rank * 100 + i)).collect())
            .collect();
        let s_pres: Vec<Vec<(u64, u64)>> = (0..p as u64)
            .map(|rank| (0..18).map(|i| (i % 25, 1000 + rank * 100 + i)).collect())
            .collect();
        let mut r_posts = vec![Vec::new(); p];
        let mut s_posts = vec![Vec::new(); p];
        for pre in &r_pres {
            for &(k, v) in pre {
                r_posts[route(k)].push((k, v));
            }
        }
        for pre in &s_pres {
            for &(k, v) in pre {
                s_posts[route(k)].push((k, v));
            }
        }
        let verdicts = run(p, |comm| {
            let r = comm.rank();
            check_range_redistribution(
                comm,
                &r_pres[r],
                &r_posts[r],
                &s_pres[r],
                &s_posts[r],
                &splitters,
                &perm(),
                13,
            )
        });
        assert!(verdicts.iter().all(|&v| v));

        // Swap two pairs across a range boundary → placement fails.
        let mut r_bad = r_posts.clone();
        let a = r_bad[0].pop().unwrap();
        let b = r_bad[2].pop().unwrap();
        r_bad[0].push(b);
        r_bad[2].push(a);
        let verdicts = run(p, |comm| {
            let r = comm.rank();
            check_range_redistribution(
                comm,
                &r_pres[r],
                &r_bad[r],
                &s_pres[r],
                &s_posts[r],
                &splitters,
                &perm(),
                13,
            )
        });
        assert!(verdicts.iter().all(|&v| !v));

        // PE 0's splitter copy differs only above its own keys: its
        // placement test passes, so only the splitter veto rejects.
        let verdicts = run(p, |comm| {
            let r = comm.rank();
            let mine = if r == 0 {
                vec![10, 21]
            } else {
                splitters.clone()
            };
            check_range_redistribution(
                comm,
                &r_pres[r],
                &r_posts[r],
                &s_pres[r],
                &s_posts[r],
                &mine,
                &perm(),
                13,
            )
        });
        assert!(verdicts.iter().all(|&v| !v));
    }
}
