//! `ReduceByKey` — the paper's sum/count aggregation (§4, also §2
//! "Reduction"): local hash-table pre-reduction, key-hash redistribution,
//! final local reduction.

use std::collections::HashMap;

use ccheck_hashing::Hasher;
use ccheck_net::Comm;

use crate::exchange::{redistribute_by_key_hash, redistribute_by_key_hash_chunked};
use crate::Pair;

/// Reduce all values sharing a key with the associative, commutative
/// `reduce` function. Returns this PE's shard of the result (each key on
/// exactly one PE, shard sorted by key).
///
/// This is the operation
/// `SELECT key, SUM(value) FROM table GROUP BY key` when
/// `reduce = |a, b| a + b`.
///
/// The input is consumed element by element, so a caller holding a
/// slice passes `data.iter().copied()` rather than a copy of it.
pub fn reduce_by_key<I, F>(comm: &mut Comm, data: I, hasher: &Hasher, reduce: F) -> Vec<Pair>
where
    I: IntoIterator<Item = Pair>,
    F: Fn(u64, u64) -> u64,
{
    // Phase 1: local pre-reduction (the hash table `h` of §2).
    let data = data.into_iter();
    let mut table: HashMap<u64, u64> = HashMap::with_capacity(data.size_hint().0.min(1 << 16));
    for (k, v) in data {
        table
            .entry(k)
            .and_modify(|acc| *acc = reduce(*acc, v))
            .or_insert(v);
    }
    // Phase 2: route pre-reduced pairs to key owners.
    let routed = redistribute_by_key_hash(comm, table.into_iter().collect(), hasher);
    // Phase 3: final local reduction.
    let mut table: HashMap<u64, u64> = HashMap::with_capacity(routed.len());
    for (k, v) in routed {
        table
            .entry(k)
            .and_modify(|acc| *acc = reduce(*acc, v))
            .or_insert(v);
    }
    let mut out: Vec<Pair> = table.into_iter().collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

/// Streaming form of [`reduce_by_key`]: consumes the input from an
/// iterator — the data is **never** materialized as a slice. Memory is
/// O(local distinct keys + chunk · p): phase 1 folds the stream directly
/// into the pre-reduction table, phase 2 ships the pre-reduced pairs in
/// `chunk`-sized batches with bounded per-peer buffers, and phase 3
/// folds arriving batches straight into the final table.
///
/// The result (each key on exactly one PE, shard sorted by key) equals
/// [`reduce_by_key`] on the materialized stream for any commutative
/// `reduce`, for every chunk size.
pub fn reduce_by_key_chunked<I, F>(
    comm: &mut Comm,
    data: I,
    hasher: &Hasher,
    chunk: usize,
    reduce: F,
) -> Vec<Pair>
where
    I: IntoIterator<Item = Pair>,
    F: Fn(u64, u64) -> u64,
{
    // Phase 1: stream the input into the local pre-reduction table.
    let mut table: HashMap<u64, u64> = HashMap::new();
    for (k, v) in data {
        table
            .entry(k)
            .and_modify(|acc| *acc = reduce(*acc, v))
            .or_insert(v);
    }
    // Phases 2+3 fused: route pre-reduced pairs in bounded batches and
    // fold each arriving batch into the final table as it lands.
    let mut out_table: HashMap<u64, u64> = HashMap::new();
    redistribute_by_key_hash_chunked(comm, table, hasher, chunk, |_, batch| {
        for (k, v) in batch {
            out_table
                .entry(k)
                .and_modify(|acc| *acc = reduce(*acc, v))
                .or_insert(v);
        }
    });
    let mut out: Vec<Pair> = out_table.into_iter().collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;
    use std::collections::HashMap;

    fn oracle(all: &[Pair]) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for &(k, v) in all {
            *m.entry(k).or_insert(0) += v;
        }
        m
    }

    fn run_reduce(p: usize, per_pe: usize, key_mod: u64) -> (Vec<Pair>, HashMap<u64, u64>) {
        let results = run(p, |comm| {
            let rank = comm.rank() as u64;
            let local: Vec<Pair> = (0..per_pe as u64)
                .map(|i| ((rank * per_pe as u64 + i) % key_mod, i + 1))
                .collect();
            let hasher = Hasher::new(HasherKind::Tab64, 7);
            (
                local.clone(),
                reduce_by_key(comm, local, &hasher, |a, b| a + b),
            )
        });
        let input: Vec<Pair> = results.iter().flat_map(|(i, _)| i.clone()).collect();
        let output: Vec<Pair> = results.iter().flat_map(|(_, o)| o.clone()).collect();
        (output, oracle(&input))
    }

    #[test]
    fn matches_sequential_oracle() {
        for p in [1, 2, 3, 4, 8] {
            let (output, expected) = run_reduce(p, 100, 17);
            assert_eq!(output.len(), expected.len(), "p={p}: key count");
            for (k, v) in output {
                assert_eq!(expected.get(&k), Some(&v), "p={p} key={k}");
            }
        }
    }

    #[test]
    fn chunked_matches_slice_path() {
        for p in [1, 2, 4] {
            for chunk in [1usize, 7, 4096] {
                let results = run(p, move |comm| {
                    let rank = comm.rank() as u64;
                    let local: Vec<Pair> = (0..150u64)
                        .map(|i| ((rank * 150 + i) % 23, i + 1))
                        .collect();
                    let hasher = Hasher::new(HasherKind::Tab64, 7);
                    let slice = reduce_by_key(comm, local.clone(), &hasher, |a, b| a + b);
                    let chunked = reduce_by_key_chunked(comm, local, &hasher, chunk, |a, b| a + b);
                    (slice, chunked)
                });
                for (slice, chunked) in results {
                    assert_eq!(slice, chunked, "p={p} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn single_key_all_values() {
        let results = run(4, |comm| {
            let local: Vec<Pair> = (0..25).map(|i| (42, i + 1)).collect();
            let hasher = Hasher::new(HasherKind::Tab64, 7);
            reduce_by_key(comm, local, &hasher, |a, b| a + b)
        });
        let all: Vec<Pair> = results.into_iter().flatten().collect();
        assert_eq!(all, vec![(42, 4 * 25 * 26 / 2)]);
    }

    #[test]
    fn empty_input() {
        let results = run(3, |comm| {
            let hasher = Hasher::new(HasherKind::Tab64, 7);
            reduce_by_key(comm, Vec::new(), &hasher, |a, b| a + b)
        });
        assert!(results.iter().all(Vec::is_empty));
    }

    #[test]
    fn works_with_other_operators() {
        // xor aggregation (also satisfies the paper's ⊕ requirements)
        let results = run(2, |comm| {
            let rank = comm.rank() as u64;
            let local: Vec<Pair> = vec![(1, 0b1010 << rank), (2, rank + 1)];
            let hasher = Hasher::new(HasherKind::Tab64, 7);
            reduce_by_key(comm, local, &hasher, |a, b| a ^ b)
        });
        let mut all: Vec<Pair> = results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![(1, 0b1010 ^ 0b10100), (2, 1 ^ 2)]);
    }

    #[test]
    fn keys_partitioned_disjointly() {
        let results = run(4, |comm| {
            let local: Vec<Pair> = (0..50).map(|i| (i % 10, 1)).collect();
            let hasher = Hasher::new(HasherKind::Tab64, 7);
            reduce_by_key(comm, local, &hasher, |a, b| a + b)
        });
        let mut seen = std::collections::HashSet::new();
        for shard in &results {
            for (k, _) in shard {
                assert!(seen.insert(*k), "key {k} on two PEs");
            }
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn shards_sorted_by_key() {
        let results = run(2, |comm| {
            let local: Vec<Pair> = (0..100).rev().map(|i| (i, 1)).collect();
            let hasher = Hasher::new(HasherKind::Tab64, 7);
            reduce_by_key(comm, local, &hasher, |a, b| a + b)
        });
        for shard in results {
            assert!(shard.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }
}
