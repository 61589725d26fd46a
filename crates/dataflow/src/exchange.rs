//! Key-hash redistribution — the data-exchange phase shared by
//! ReduceByKey, GroupBy, and hash Join, and the phase the paper's
//! *invasive* checkers (Corollaries 14/15) verify.

use ccheck_hashing::Hasher;
use ccheck_net::Comm;

use crate::Pair;

/// The PE responsible for `key` under hash partitioning.
#[inline]
pub fn key_to_pe(hasher: &Hasher, key: u64, p: usize) -> usize {
    (hasher.hash(key) % p as u64) as usize
}

/// Route every pair to the PE owning its key (`h(key) mod p`):
/// [`redistribute_by_key_hash_chunked`] at `chunk = usize::MAX`, one
/// message per peer. Returns this PE's received pairs in sender-rank
/// order, each sender's pairs in their original local order (a stable
/// redistribution; the GroupBy checker relies on nothing more than the
/// multiset).
pub fn redistribute_by_key_hash(
    comm: &mut Comm,
    data: impl IntoIterator<Item = Pair>,
    hasher: &Hasher,
) -> Vec<Pair> {
    let mut by_src: Vec<Vec<Pair>> = vec![Vec::new(); comm.size()];
    redistribute_by_key_hash_chunked(comm, data, hasher, usize::MAX, |src, batch| {
        by_src[src].extend(batch)
    });
    by_src.concat()
}

/// Route every pair to its key's owner in `chunk`-sized batches per
/// destination ([`Comm::all_to_all_chunked`]): sender-side memory is
/// O(chunk · p). Received batches go to `on_recv(src, batch)`, in order
/// per source (interleaving between sources is unspecified), to be
/// collected or folded into a table or sketch. The received volume is
/// the raw stream's, so pre-reduce first, as
/// [`crate::reduce_by_key_chunked`] does, when the footprint must stay
/// small. `chunk` must be equal on every PE.
pub fn redistribute_by_key_hash_chunked<I, F>(
    comm: &mut Comm,
    data: I,
    hasher: &Hasher,
    chunk: usize,
    on_recv: F,
) where
    I: IntoIterator<Item = Pair>,
    F: FnMut(usize, Vec<Pair>),
{
    let p = comm.size();
    comm.all_to_all_chunked(data, chunk, |pair| key_to_pe(hasher, pair.0, p), on_recv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;

    fn test_hasher() -> Hasher {
        Hasher::new(HasherKind::Tab64, 12345)
    }

    #[test]
    fn all_pairs_arrive_somewhere() {
        for p in [1, 2, 4, 5] {
            let results = run(p, |comm| {
                let rank = comm.rank() as u64;
                let local: Vec<Pair> = (0..100).map(|i| (rank * 100 + i, i)).collect();
                let hasher = test_hasher();
                redistribute_by_key_hash(comm, local, &hasher)
            });
            let total: usize = results.iter().map(Vec::len).sum();
            assert_eq!(total, 100 * p, "p={p}");
        }
    }

    #[test]
    fn each_pe_receives_only_its_keys() {
        let p = 4;
        let results = run(p, |comm| {
            let rank = comm.rank() as u64;
            let local: Vec<Pair> = (0..200).map(|i| (rank ^ i, i)).collect();
            let hasher = test_hasher();
            let received = redistribute_by_key_hash(comm, local, &hasher);
            (comm.rank(), received)
        });
        let hasher = test_hasher();
        for (rank, received) in results {
            for (k, _) in received {
                assert_eq!(key_to_pe(&hasher, k, p), rank, "key {k} misrouted");
            }
        }
    }

    #[test]
    fn same_key_lands_on_same_pe() {
        let results = run(3, |comm| {
            let local: Vec<Pair> = (0..50).map(|i| (i % 10, comm.rank() as u64)).collect();
            let hasher = test_hasher();
            redistribute_by_key_hash(comm, local, &hasher)
        });
        // Each key appears on exactly one PE.
        let mut key_owner = std::collections::HashMap::new();
        for (rank, received) in results.iter().enumerate() {
            for (k, _) in received {
                let prev = key_owner.insert(*k, rank);
                assert!(prev.is_none_or(|r| r == rank), "key {k} on two PEs");
            }
        }
        assert_eq!(key_owner.len(), 10);
    }

    #[test]
    fn chunked_redistribution_matches_slice_path() {
        for p in [1, 2, 4] {
            for chunk in [1usize, 5, 64, 10_000] {
                let results = run(p, move |comm| {
                    let rank = comm.rank() as u64;
                    let local: Vec<Pair> =
                        (0..120).map(|i| (i * 11 % 31, rank * 120 + i)).collect();
                    let hasher = test_hasher();
                    let mut slice = redistribute_by_key_hash(comm, local.clone(), &hasher);
                    let mut chunked = Vec::new();
                    redistribute_by_key_hash_chunked(comm, local, &hasher, chunk, |_, batch| {
                        chunked.extend(batch)
                    });
                    slice.sort_unstable();
                    chunked.sort_unstable();
                    (slice, chunked)
                });
                for (slice, chunked) in results {
                    assert_eq!(slice, chunked, "p={p} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn received_pairs_come_in_sender_rank_order() {
        // Values encode (sender, position), so a stable redistribution
        // delivers ascending values to every receiver.
        for p in [1, 2, 3, 5] {
            let results = run(p, move |comm| {
                let rank = comm.rank() as u64;
                let local: Vec<Pair> = (0..40).map(|i| (i % 9, rank * 1000 + i)).collect();
                redistribute_by_key_hash(comm, local, &test_hasher())
            });
            for received in results {
                assert!(
                    received.windows(2).all(|w| w[0].1 < w[1].1),
                    "p={p}: not in sender-rank order"
                );
            }
        }
    }

    #[test]
    fn multiset_preserved() {
        let p = 3;
        let results = run(p, |comm| {
            let rank = comm.rank() as u64;
            let local: Vec<Pair> = (0..30).map(|i| (i * 7 % 13, rank * 1000 + i)).collect();
            let hasher = test_hasher();
            (
                local.clone(),
                redistribute_by_key_hash(comm, local, &hasher),
            )
        });
        let mut before: Vec<Pair> = results.iter().flat_map(|(b, _)| b.clone()).collect();
        let mut after: Vec<Pair> = results.iter().flat_map(|(_, a)| a.clone()).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }
}
