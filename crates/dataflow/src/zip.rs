//! `Zip` (§6.4): combine two equal-length distributed sequences
//! index-wise. The sequences need not share a distribution, so elements
//! of the second sequence are routed to match the first sequence's
//! layout before pairing — the data movement the Zip checker verifies.

use ccheck_net::Comm;

use crate::Pair;

/// The PE owning global index `global_idx` of sequence `a`, given the
/// allgathered per-PE range starts: the last PE whose a-range starts at
/// or before the index. Ranges of empty PEs share a start; the owner is
/// the last PE with this start that actually has elements — routing to
/// the first match would still target an empty range, so advance past
/// them.
fn owner_of(a_starts: &[u64], global_idx: u64) -> usize {
    match a_starts.binary_search(&global_idx) {
        Ok(mut i) => {
            while i + 1 < a_starts.len() && a_starts[i + 1] == global_idx {
                i += 1;
            }
            i
        }
        Err(i) => i - 1,
    }
}

/// Zip two distributed sequences of equal global length. The output
/// adopts the distribution of `a`: PE i returns one pair per local
/// element of `a`. Both inputs are only read, so a caller that still
/// needs them (a checker, say) lends them; owned `Vec`s work as well.
/// This is [`zip_chunked`] at `chunk = usize::MAX`: each peer gets the
/// `b` elements it owns in one message.
///
/// # Panics
/// Panics (on every PE) if the global lengths differ.
pub fn zip(comm: &mut Comm, a: impl AsRef<[u64]>, b: impl AsRef<[u64]>) -> Vec<Pair> {
    let b = b.as_ref();
    zip_chunked(comm, a, (b.len() as u64, b.iter().copied()), usize::MAX)
}

/// [`zip`] over a streamed `b`, given as `(local_len, stream)` and routed
/// to `a`'s owners in `chunk`-sized batches with bounded per-peer
/// buffers ([`Comm::all_to_all_chunked`]). The length comes first because
/// an element's owner depends on its *global* index, a prefix sum taken
/// before the stream is read. The output is the same for every chunk
/// size; `chunk` must be equal on every PE.
///
/// # Panics
/// Panics if the global lengths differ, or if `b`'s stream yields a
/// different number of elements than declared.
pub fn zip_chunked<I>(comm: &mut Comm, a: impl AsRef<[u64]>, b: (u64, I), chunk: usize) -> Vec<Pair>
where
    I: IntoIterator<Item = u64>,
{
    let a = a.as_ref();
    let (a_start, a_total) = comm.exclusive_prefix_sum(a.len() as u64);
    let (b_start, b_total) = comm.exclusive_prefix_sum(b.0);
    assert_eq!(a_total, b_total, "Zip requires equal global lengths");

    // Every PE's a-range start, so each b element (tagged with its global
    // index) is routed to its a-owner and placed in its local a range.
    let a_starts: Vec<u64> = comm.allgather(a_start);
    let mut b_aligned: Vec<u64> = vec![0; a.len()];
    let mut filled = vec![false; a.len()];
    let mut sent = 0u64;
    comm.all_to_all_chunked(
        (b_start..).zip(b.1).inspect(|_| sent += 1),
        chunk,
        |&(gidx, _)| owner_of(&a_starts, gidx),
        |_, batch| {
            for (gidx, val) in batch {
                let local = (gidx - a_start) as usize;
                b_aligned[local] = val;
                filled[local] = true;
            }
        },
    );
    assert_eq!(sent, b.0, "b stream shorter/longer than declared");
    assert!(filled.iter().all(|&f| f), "zip alignment left holes");

    a.iter().copied().zip(b_aligned).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::run;

    fn check_zip(p: usize, a_sizes: &[usize], b_sizes: &[usize]) {
        assert_eq!(a_sizes.len(), p);
        assert_eq!(b_sizes.len(), p);
        let total_a: usize = a_sizes.iter().sum();
        let total_b: usize = b_sizes.iter().sum();
        assert_eq!(total_a, total_b);
        let a_sizes = a_sizes.to_vec();
        let b_sizes = b_sizes.to_vec();
        let results = run(p, |comm| {
            let rank = comm.rank();
            let a_start: usize = a_sizes[..rank].iter().sum();
            let b_start: usize = b_sizes[..rank].iter().sum();
            // Global sequence a: 0,1,2,...; b: 1000,1001,1002,...
            let a: Vec<u64> = (0..a_sizes[rank]).map(|i| (a_start + i) as u64).collect();
            let b: Vec<u64> = (0..b_sizes[rank])
                .map(|i| 1000 + (b_start + i) as u64)
                .collect();
            zip(comm, a, b)
        });
        let zipped: Vec<Pair> = results.into_iter().flatten().collect();
        assert_eq!(zipped.len(), total_a);
        for &(x, y) in &zipped {
            assert_eq!(y, 1000 + x, "element {x} paired with {y}");
        }
    }

    #[test]
    fn equal_distributions() {
        check_zip(4, &[25, 25, 25, 25], &[25, 25, 25, 25]);
    }

    #[test]
    fn skewed_distributions() {
        check_zip(4, &[100, 0, 0, 0], &[0, 0, 0, 100]);
        check_zip(3, &[10, 50, 40], &[40, 50, 10]);
    }

    #[test]
    fn with_empty_pes() {
        check_zip(4, &[0, 30, 0, 30], &[15, 15, 15, 15]);
    }

    #[test]
    fn chunked_matches_slice_path() {
        for (a_sizes, b_sizes) in [
            (vec![25usize, 25, 25, 25], vec![25usize, 25, 25, 25]),
            (vec![100, 0, 0, 0], vec![0, 0, 0, 100]),
            (vec![0, 30, 0, 30], vec![15, 15, 15, 15]),
        ] {
            for chunk in [1usize, 9, 4096] {
                let p = a_sizes.len();
                let a_sizes = a_sizes.clone();
                let b_sizes = b_sizes.clone();
                let results = run(p, move |comm| {
                    let rank = comm.rank();
                    let a_start: usize = a_sizes[..rank].iter().sum();
                    let b_start: usize = b_sizes[..rank].iter().sum();
                    let a: Vec<u64> = (0..a_sizes[rank]).map(|i| (a_start + i) as u64).collect();
                    let b: Vec<u64> = (0..b_sizes[rank])
                        .map(|i| 1000 + (b_start + i) as u64)
                        .collect();
                    let slice = zip(comm, &a, &b);
                    let chunked = zip_chunked(comm, a, (b.len() as u64, b.into_iter()), chunk);
                    (slice, chunked)
                });
                for (slice, chunked) in results {
                    assert_eq!(slice, chunked, "chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn single_pe() {
        check_zip(1, &[42], &[42]);
    }

    #[test]
    fn all_empty() {
        check_zip(3, &[0, 0, 0], &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "equal global lengths")]
    fn unequal_lengths_rejected() {
        // Run a single-PE instance to get a clean panic in this thread.
        let mut comms = ccheck_net::router::Router::build(1).into_comms();
        let comm = &mut comms[0];
        let _ = zip(comm, vec![1, 2, 3], vec![1]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Zip pairs global index i of a with global index i of b,
            /// for arbitrary (matching-total) distributions.
            #[test]
            fn prop_zip_aligns_global_indices(
                sizes_a in prop::collection::vec(0usize..40, 1..5),
                seed: u64,
            ) {
                let p = sizes_a.len();
                let total: usize = sizes_a.iter().sum();
                // b gets a rotated distribution of the same total.
                let mut sizes_b = sizes_a.clone();
                sizes_b.rotate_left(1.min(p - 1));
                let results = ccheck_net::run(p, |comm| {
                    let r = comm.rank();
                    let a_start: usize = sizes_a[..r].iter().sum();
                    let b_start: usize = sizes_b[..r].iter().sum();
                    let a: Vec<u64> = (0..sizes_a[r])
                        .map(|i| (a_start + i) as u64 ^ seed)
                        .collect();
                    let b: Vec<u64> = (0..sizes_b[r])
                        .map(|i| 1_000_000 + (b_start + i) as u64)
                        .collect();
                    zip(comm, a, b)
                });
                let zipped: Vec<Pair> = results.into_iter().flatten().collect();
                prop_assert_eq!(zipped.len(), total);
                for (x, y) in zipped {
                    prop_assert_eq!(y - 1_000_000, x ^ seed);
                }
            }
        }
    }
}
