//! Minimum/maximum aggregation checking (§6.2, Theorem 9).
//!
//! Min/max cannot use the sum checker (`min(a,b) = a` for `b ≥ a`
//! violates the ⊕ requirement), and checking that every asserted minimum
//! *occurs* in the input seems to require Ω(k) communication without
//! help. The paper's remedy: the asserted output **and** a certificate
//! naming, for every key, the PE that holds the minimum must be
//! replicated at all PEs. Then:
//!
//! * (a) no PE may hold an element smaller than its key's asserted
//!   minimum — checked locally against the replicated output,
//! * (b) the PE named by the certificate must actually hold an element
//!   equal to the asserted minimum — checked locally by that PE,
//! * every input key must appear in the asserted output (a "forgotten"
//!   key is detected by the PE holding its elements),
//! * the replicas themselves must be consistent (§2 result integrity).
//!
//! This checker is **deterministic**: it never errs (Theorem 9).

use ccheck_net::Comm;

use crate::integrity::replica_matches_root;

/// Which extremum an [`check_extrema`] call verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extremum {
    /// Per-key minimum.
    Min,
    /// Per-key maximum.
    Max,
}

/// Check a min/max aggregation (Theorem 9).
///
/// * `input` — this PE's share of the operation's input.
/// * `asserted` — the **full** asserted output `(key, optimum)`, sorted
///   by key, replicated at every PE.
/// * `locations` — the certificate: `(key, rank)` sorted by key, also
///   replicated; `rank` claims to hold an element equal to the optimum.
///
/// Deterministic and exact; every PE returns the same verdict.
pub fn check_extrema(
    comm: &mut Comm,
    which: Extremum,
    input: &[(u64, u64)],
    asserted: &[(u64, u64)],
    locations: &[(u64, u64)],
) -> bool {
    // Replicas must agree everywhere (result integrity, §2): a replica
    // that differs from PE 0's fails the local tests. The seed is
    // arbitrary but shared; integrity failure probability is ~2^-64.
    let mut local_ok = replica_matches_root(
        comm,
        &(asserted.to_vec(), locations.to_vec()),
        0x6D69_6E6D_6178,
    );

    // The certificate must cover exactly the asserted key set, ordered.
    if asserted.len() != locations.len()
        || asserted
            .iter()
            .zip(locations)
            .any(|(&(ka, _), &(kl, _))| ka != kl)
        || !asserted.windows(2).all(|w| w[0].0 < w[1].0)
    {
        local_ok = false;
    }
    // Certificate ranks must be valid PE ids.
    if locations
        .iter()
        .any(|&(_, rank)| rank >= comm.size() as u64)
    {
        local_ok = false;
    }

    if local_ok {
        let lookup = |key: u64| -> Option<u64> {
            asserted
                .binary_search_by_key(&key, |&(k, _)| k)
                .ok()
                .map(|i| asserted[i].1)
        };
        // (a) + key coverage: every local element's key must be asserted
        // and must not beat the asserted optimum.
        for &(k, v) in input {
            match lookup(k) {
                None => {
                    local_ok = false; // operation "forgot" this key
                    break;
                }
                Some(opt) => {
                    let beats = match which {
                        Extremum::Min => v < opt,
                        Extremum::Max => v > opt,
                    };
                    if beats {
                        local_ok = false;
                        break;
                    }
                }
            }
        }
    }

    if local_ok {
        // (b) witness check: for certificate entries naming this PE, an
        // element equal to the optimum must exist locally.
        let my_rank = comm.rank() as u64;
        let mine: Vec<(u64, u64)> = locations
            .iter()
            .filter(|&&(_, rank)| rank == my_rank)
            .map(|&(k, _)| {
                let opt = asserted[asserted
                    .binary_search_by_key(&k, |&(ak, _)| ak)
                    .expect("cert keys = asserted keys")]
                .1;
                (k, opt)
            })
            .collect();
        if !mine.is_empty() {
            let local_set: std::collections::HashSet<(u64, u64)> = input.iter().copied().collect();
            if mine.iter().any(|pair| !local_set.contains(pair)) {
                local_ok = false;
            }
        }
    }

    comm.all_agree(local_ok)
}

/// Certificate-free min/max check with `O(n/p + β·k + α·log p)` cost —
/// the bitvector alternative §6.2 sketches before introducing the
/// location certificate:
///
/// "it is easy to verify in time O(n/p + βk + α log p) using a bitwise
/// or reduction on a bitvector of size k specifying which keys' minima
/// are present locally, and testing whether each bit is set in the
/// result."
///
/// Trades Θ(k) communication (linear in the *output*, still sublinear in
/// the input) for needing no certificate. Deterministic; requires only
/// the asserted output replicated at all PEs.
pub fn check_extrema_bitvector(
    comm: &mut Comm,
    which: Extremum,
    input: &[(u64, u64)],
    asserted: &[(u64, u64)],
) -> bool {
    let replica_ok = replica_matches_root(comm, &asserted.to_vec(), 0x6269_7476_6563);
    let sorted_ok = asserted.windows(2).all(|w| w[0].0 < w[1].0);

    // Property (a) + key coverage, locally.
    let mut local_ok = replica_ok && sorted_ok;
    let k = asserted.len();
    let mut witness_bits = vec![0u64; k.div_ceil(64)];
    if local_ok {
        for &(key, v) in input {
            match asserted.binary_search_by_key(&key, |&(ak, _)| ak) {
                Err(_) => {
                    local_ok = false;
                    break;
                }
                Ok(i) => {
                    let opt = asserted[i].1;
                    let beats = match which {
                        Extremum::Min => v < opt,
                        Extremum::Max => v > opt,
                    };
                    if beats {
                        local_ok = false;
                        break;
                    }
                    if v == opt {
                        // Property (b) witness: this PE holds the optimum.
                        witness_bits[i / 64] |= 1 << (i % 64);
                    }
                }
            }
        }
    }
    // Property (b) globally: OR-reduce the witness bitvector; every
    // asserted optimum must be witnessed by some PE.
    let merged = comm.allreduce(witness_bits, |mut a, b| {
        for (x, y) in a.iter_mut().zip(b) {
            *x |= y;
        }
        a
    });
    let all_witnessed = (0..k).all(|i| merged[i / 64] & (1 << (i % 64)) != 0);
    comm.all_agree(local_ok) && all_witnessed
}

/// Convenience wrapper for minimum aggregation.
pub fn check_min(
    comm: &mut Comm,
    input: &[(u64, u64)],
    asserted: &[(u64, u64)],
    locations: &[(u64, u64)],
) -> bool {
    check_extrema(comm, Extremum::Min, input, asserted, locations)
}

/// Convenience wrapper for maximum aggregation.
pub fn check_max(
    comm: &mut Comm,
    input: &[(u64, u64)],
    asserted: &[(u64, u64)],
    locations: &[(u64, u64)],
) -> bool {
    check_extrema(comm, Extremum::Max, input, asserted, locations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::run;
    use std::collections::HashMap;

    /// Per-PE inputs plus correct (asserted, locations) for min.
    type Instance = (Vec<Vec<(u64, u64)>>, Vec<(u64, u64)>, Vec<(u64, u64)>);

    fn make_instance(p: usize) -> Instance {
        let mut inputs: Vec<Vec<(u64, u64)>> = Vec::new();
        for rank in 0..p as u64 {
            inputs.push(
                (0..40)
                    .map(|i| (i % 8, 100 + (rank * 37 + i * 13) % 50))
                    .collect(),
            );
        }
        let mut best: HashMap<u64, (u64, u64)> = HashMap::new();
        for (rank, input) in inputs.iter().enumerate() {
            for &(k, v) in input {
                best.entry(k)
                    .and_modify(|(bv, br)| {
                        if v < *bv {
                            *bv = v;
                            *br = rank as u64;
                        }
                    })
                    .or_insert((v, rank as u64));
            }
        }
        let mut asserted: Vec<(u64, u64)> = best.iter().map(|(&k, &(v, _))| (k, v)).collect();
        let mut locations: Vec<(u64, u64)> = best.iter().map(|(&k, &(_, r))| (k, r)).collect();
        asserted.sort_unstable();
        locations.sort_unstable();
        (inputs, asserted, locations)
    }

    #[test]
    fn accepts_correct_minima() {
        for p in [1, 2, 4] {
            let (inputs, asserted, locations) = make_instance(p);
            let verdicts = run(p, |comm| {
                check_min(comm, &inputs[comm.rank()], &asserted, &locations)
            });
            assert!(verdicts.iter().all(|&v| v), "p={p}");
        }
    }

    #[test]
    fn rejects_minimum_too_large() {
        // Asserted min raised by one: some PE holds a smaller element.
        let (inputs, mut asserted, locations) = make_instance(3);
        asserted[2].1 += 1;
        let verdicts = run(3, |comm| {
            check_min(comm, &inputs[comm.rank()], &asserted, &locations)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_minimum_too_small() {
        // Asserted min lowered: no element equals it → witness fails.
        let (inputs, mut asserted, locations) = make_instance(3);
        asserted[2].1 -= 1;
        let verdicts = run(3, |comm| {
            check_min(comm, &inputs[comm.rank()], &asserted, &locations)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_forgotten_key() {
        let (inputs, mut asserted, mut locations) = make_instance(3);
        asserted.remove(0);
        locations.remove(0);
        let verdicts = run(3, |comm| {
            check_min(comm, &inputs[comm.rank()], &asserted, &locations)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_wrong_location_certificate() {
        let (inputs, asserted, locations) = make_instance(3);
        // Point every certificate entry at a PE that does NOT hold the
        // minimum (rotate ranks by 1 — with 3 PEs and our data, at least
        // one entry must break).
        let bad_locations: Vec<(u64, u64)> =
            locations.iter().map(|&(k, r)| (k, (r + 1) % 3)).collect();
        let verdicts = run(3, |comm| {
            check_min(comm, &inputs[comm.rank()], &asserted, &bad_locations)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_inconsistent_replicas() {
        let (inputs, asserted, locations) = make_instance(2);
        let verdicts = run(2, |comm| {
            let mut my_asserted = asserted.clone();
            if comm.rank() == 1 {
                my_asserted[0].1 += 7; // PE 1 received a corrupt replica
            }
            check_min(comm, &inputs[comm.rank()], &my_asserted, &locations)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn a_replica_that_only_the_fingerprint_tells_apart_rejects() {
        // PE 1's copies name one more key, held by PE 0 as far as PE 1
        // knows: every local test passes, so only the replica comparison
        // in the all_agree rejects. The bitvector check's own witness
        // test fails on PE 1 alone; the comparison makes that unanimous.
        let (inputs, asserted, locations) = make_instance(2);
        for extra in [false, true] {
            let verdicts = run(2, |comm| {
                let (mut asserted, mut locations) = (asserted.clone(), locations.clone());
                if extra && comm.rank() == 1 {
                    asserted.push((999, 1));
                    locations.push((999, 0));
                }
                let input = &inputs[comm.rank()];
                let certified = check_min(comm, input, &asserted, &locations);
                let bitvector = check_extrema_bitvector(comm, Extremum::Min, input, &asserted);
                [certified, bitvector]
            });
            assert_eq!(verdicts, [[!extra; 2]; 2]);
        }
    }

    #[test]
    fn rejects_certificate_key_mismatch() {
        let (inputs, asserted, mut locations) = make_instance(2);
        locations[0].0 = 999; // cert names a key not in the output
        let verdicts = run(2, |comm| {
            check_min(comm, &inputs[comm.rank()], &asserted, &locations)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_out_of_range_rank() {
        let (inputs, asserted, mut locations) = make_instance(2);
        locations[0].1 = 17;
        let verdicts = run(2, |comm| {
            check_min(comm, &inputs[comm.rank()], &asserted, &locations)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn max_variant_works() {
        let (inputs, _, _) = make_instance(3);
        // Build max result.
        let mut best: HashMap<u64, (u64, u64)> = HashMap::new();
        for (rank, input) in inputs.iter().enumerate() {
            for &(k, v) in input {
                best.entry(k)
                    .and_modify(|(bv, br)| {
                        if v > *bv {
                            *bv = v;
                            *br = rank as u64;
                        }
                    })
                    .or_insert((v, rank as u64));
            }
        }
        let mut asserted: Vec<(u64, u64)> = best.iter().map(|(&k, &(v, _))| (k, v)).collect();
        let mut locations: Vec<(u64, u64)> = best.iter().map(|(&k, &(_, r))| (k, r)).collect();
        asserted.sort_unstable();
        locations.sort_unstable();
        let verdicts = run(3, |comm| {
            check_max(comm, &inputs[comm.rank()], &asserted, &locations)
        });
        assert!(verdicts.iter().all(|&v| v));
        // And a corrupted max is caught.
        let mut bad = asserted.clone();
        bad[1].1 += 1;
        let verdicts = run(3, |comm| {
            check_max(comm, &inputs[comm.rank()], &bad, &locations)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn empty_input_empty_assertion_accepted() {
        let verdicts = run(2, |comm| check_min(comm, &[], &[], &[]));
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn bitvector_variant_accepts_correct_minima() {
        for p in [1, 2, 4] {
            let (inputs, asserted, _) = make_instance(p);
            let verdicts = run(p, |comm| {
                check_extrema_bitvector(comm, Extremum::Min, &inputs[comm.rank()], &asserted)
            });
            assert!(verdicts.iter().all(|&v| v), "p={p}");
        }
    }

    #[test]
    fn bitvector_variant_rejects_wrong_minima() {
        let (inputs, asserted, _) = make_instance(3);
        // Too large: some PE holds a smaller element.
        let mut bad = asserted.clone();
        bad[1].1 += 1;
        let verdicts = run(3, |comm| {
            check_extrema_bitvector(comm, Extremum::Min, &inputs[comm.rank()], &bad)
        });
        assert!(verdicts.iter().all(|&v| !v));
        // Too small: no witness anywhere — the OR-reduced bit stays 0.
        let mut bad = asserted.clone();
        bad[1].1 -= 1;
        let verdicts = run(3, |comm| {
            check_extrema_bitvector(comm, Extremum::Min, &inputs[comm.rank()], &bad)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn bitvector_variant_rejects_forgotten_key() {
        let (inputs, asserted, _) = make_instance(2);
        let mut bad = asserted.clone();
        bad.remove(0);
        let verdicts = run(2, |comm| {
            check_extrema_bitvector(comm, Extremum::Min, &inputs[comm.rank()], &bad)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn bitvector_max_variant() {
        let (inputs, _, _) = make_instance(2);
        let mut best: HashMap<u64, u64> = HashMap::new();
        for input in &inputs {
            for &(k, v) in input {
                best.entry(k).and_modify(|b| *b = v.max(*b)).or_insert(v);
            }
        }
        let mut asserted: Vec<(u64, u64)> = best.into_iter().collect();
        asserted.sort_unstable();
        let verdicts = run(2, |comm| {
            check_extrema_bitvector(comm, Extremum::Max, &inputs[comm.rank()], &asserted)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn bitvector_volume_linear_in_keys_not_input() {
        use ccheck_net::router::run_with_stats;
        // Volume tracks k (output keys), not n (input size).
        let volume = |n: u64, k: u64| {
            let (_, snap) = run_with_stats(2, |comm| {
                let input: Vec<(u64, u64)> = (0..n).map(|i| (i % k, 100 + (i / k) % 50)).collect();
                let mut best: HashMap<u64, u64> = HashMap::new();
                for &(key, v) in &input {
                    best.entry(key).and_modify(|b| *b = v.min(*b)).or_insert(v);
                }
                let mut asserted: Vec<(u64, u64)> = best.into_iter().collect();
                asserted.sort_unstable();
                assert!(check_extrema_bitvector(
                    comm,
                    Extremum::Min,
                    &input,
                    &asserted
                ));
            });
            snap.total_bytes()
        };
        assert_eq!(volume(1_000, 64), volume(8_000, 64));
        assert!(volume(8_000, 2048) > volume(8_000, 64));
    }
}
