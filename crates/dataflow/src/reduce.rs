//! `ReduceByKey` — the paper's sum/count aggregation (§4, also §2
//! "Reduction"): local hash-table pre-reduction, key-hash redistribution,
//! final local reduction.

use std::collections::HashMap;

use ccheck_hashing::Hasher;
use ccheck_net::Comm;

use crate::exchange::redistribute_by_key_hash_chunked;
use crate::Pair;

/// Reduce all values sharing a key with the associative, commutative
/// `reduce` function — `SELECT key, SUM(value) FROM table GROUP BY key`
/// when `reduce = |a, b| a + b`. Returns this PE's shard of the result
/// (each key on exactly one PE, shard sorted by key).
///
/// This is [`reduce_by_key_chunked`] at `chunk = usize::MAX`: each peer
/// gets its pre-reduced pairs in one message. The input is consumed
/// element by element, so a caller holding a slice passes
/// `data.iter().copied()` rather than a copy of it.
pub fn reduce_by_key<I, F>(comm: &mut Comm, data: I, hasher: &Hasher, reduce: F) -> Vec<Pair>
where
    I: IntoIterator<Item = Pair>,
    F: Fn(u64, u64) -> u64,
{
    reduce_by_key_chunked(comm, data, hasher, usize::MAX, reduce)
}

/// [`reduce_by_key`] with a bounded exchange, in O(local distinct keys +
/// chunk · p) memory: the input stream is folded into the local
/// pre-reduction table (the hash table `h` of §2), whose pairs ship in
/// `chunk`-sized batches and are folded into the final table as they
/// land. The result is the same for every chunk size; `chunk` must be
/// equal on every PE.
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
    let fold = |table: &mut HashMap<u64, u64>, (k, v): Pair| {
        table
            .entry(k)
            .and_modify(|acc| *acc = reduce(*acc, v))
            .or_insert(v);
    };
    let data = data.into_iter();
    let mut table: HashMap<u64, u64> = HashMap::with_capacity(data.size_hint().0.min(1 << 16));
    data.for_each(|pair| fold(&mut table, pair));
    let mut out_table: HashMap<u64, u64> = HashMap::with_capacity(table.len());
    redistribute_by_key_hash_chunked(comm, table, hasher, chunk, |_, batch| {
        batch
            .into_iter()
            .for_each(|pair| fold(&mut out_table, pair))
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
