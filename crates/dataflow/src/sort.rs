//! Distributed sample sort.
//!
//! Classic three-phase scheme: local sort → splitter selection from a
//! gathered oversample → range partition + all-to-all → local k-way merge.
//! The output is globally sorted: every element on PE i precedes every
//! element on PE i+1, and each local share is ascending.

use ccheck_net::Comm;

use crate::kway::kway_merge;

/// Oversampling factor: samples taken per PE for splitter selection.
const OVERSAMPLE: usize = 16;

/// Splitter selection: evenly spaced samples of the locally sorted
/// data, allgathered so all PEs derive the identical `p − 1` splitters.
fn select_splitters(comm: &mut Comm, local: &[u64]) -> Vec<u64> {
    let p = comm.size();
    let s = OVERSAMPLE.min(local.len());
    // Midpoints of s equal strata: index (2i+1)·len/(2s) < len.
    let samples: Vec<u64> = (0..s)
        .map(|i| local[(2 * i + 1) * local.len() / (2 * s)])
        .collect();
    let mut all_samples: Vec<u64> = comm.allgather(samples).into_iter().flatten().collect();
    all_samples.sort_unstable();
    // p−1 splitters: evenly spaced in the oversample (all 0 if it is empty).
    let at = |i: usize| i * all_samples.len() / p;
    (1..p)
        .map(|i| all_samples.get(at(i)).copied().unwrap_or(0))
        .collect()
}

/// Sort a distributed sequence. Each PE passes its local share and
/// receives its shard of the globally sorted result. The share is sorted
/// in place, then exchanged as in [`sort_chunked`] at
/// `chunk = usize::MAX`: one message per peer.
pub fn sort(comm: &mut Comm, mut local: Vec<u64>) -> Vec<u64> {
    local.sort_unstable();
    exchange_sorted(comm, local, usize::MAX)
}

/// [`sort`] over a stream, with bounded ingest and exchange buffers: the
/// input is consumed in `chunk`-sized batches, each sorted into a run,
/// and the runs k-way merged — it is never materialized unsorted — and
/// range partitions ship in `chunk`-sized batches
/// ([`Comm::all_to_all_chunked`]). The local data is still O(n/p), as
/// sorting without spilling to disk must be, but the buffers are bounded
/// by `chunk`. The result is the same for every chunk size (same
/// samples, splitters and partition); `chunk` must be equal on every PE.
pub fn sort_chunked<I>(comm: &mut Comm, data: I, chunk: usize) -> Vec<u64>
where
    I: IntoIterator<Item = u64>,
{
    assert!(chunk > 0, "chunk size must be positive");
    // Sorted runs of at most `chunk` elements, merged into the sorted
    // local sequence `sort` starts from.
    let data = data.into_iter();
    let mut runs: Vec<Vec<u64>> = Vec::new();
    let mut current: Vec<u64> = Vec::with_capacity(chunk.min(data.size_hint().0));
    for x in data {
        current.push(x);
        if current.len() == chunk {
            current.sort_unstable();
            runs.push(std::mem::take(&mut current));
        }
    }
    current.sort_unstable();
    runs.push(current);
    exchange_sorted(comm, kway_merge(runs), chunk)
}

/// After the local sort: each element to its splitter interval in
/// `chunk`-sized batches, then a k-way merge of the per-source runs.
fn exchange_sorted(comm: &mut Comm, local: Vec<u64>, chunk: usize) -> Vec<u64> {
    let p = comm.size();
    if p == 1 {
        return local;
    }
    let splitters = select_splitters(comm, &local);
    // Elements equal to a splitter go to the lower side. A source's first
    // batch is kept as is: a peer's one batch at chunk = ∞ is not copied.
    let mut received: Vec<Vec<u64>> = vec![Vec::new(); p];
    comm.all_to_all_chunked(
        local,
        chunk,
        |&x| splitters.partition_point(|&sp| sp < x),
        |src, batch| {
            if received[src].is_empty() {
                received[src] = batch;
            } else {
                received[src].extend(batch);
            }
        },
    );
    kway_merge(received)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::run;

    /// Run a distributed sort and return (global input, concatenated output).
    fn dsort(p: usize, make_local: impl Fn(usize) -> Vec<u64> + Sync) -> (Vec<u64>, Vec<u64>) {
        let results = run(p, |comm| {
            let local = make_local(comm.rank());
            (local.clone(), sort(comm, local))
        });
        let input: Vec<u64> = results.iter().flat_map(|(i, _)| i.clone()).collect();
        let output: Vec<u64> = results.iter().flat_map(|(_, o)| o.clone()).collect();
        (input, output)
    }

    #[test]
    fn sorts_random_data() {
        for p in [1, 2, 3, 4, 8] {
            let (mut input, output) = dsort(p, |rank| {
                (0..500u64)
                    .map(|i| {
                        let x = (rank as u64) * 1_000_003 + i;
                        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % 100_000
                    })
                    .collect()
            });
            input.sort_unstable();
            assert_eq!(output, input, "p={p}");
        }
    }

    #[test]
    fn chunked_matches_slice_path() {
        for p in [1, 2, 4] {
            for chunk in [1usize, 13, 100, 10_000] {
                let results = run(p, move |comm| {
                    let rank = comm.rank() as u64;
                    let local: Vec<u64> = (0..300u64)
                        .map(|i| (rank * 300 + i).wrapping_mul(0x9E37_79B9) % 5000)
                        .collect();
                    let slice = sort(comm, local.clone());
                    let chunked = sort_chunked(comm, local, chunk);
                    (slice, chunked)
                });
                for (slice, chunked) in results {
                    assert_eq!(slice, chunked, "p={p} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn globally_sorted_across_pe_boundaries() {
        let results = run(4, |comm| {
            let rank = comm.rank() as u64;
            let local: Vec<u64> = (0..100).map(|i| (i * 17 + rank * 31) % 1000).collect();
            sort(comm, local)
        });
        // Concatenation in rank order must already be sorted.
        let concat: Vec<u64> = results.iter().flatten().copied().collect();
        assert!(concat.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn handles_duplicates_heavy_input() {
        let (mut input, output) = dsort(4, |_| vec![5u64; 200]);
        input.sort_unstable();
        assert_eq!(output, input);
    }

    #[test]
    fn handles_empty_and_skewed_input() {
        // PE 0 holds everything, the rest nothing.
        let (mut input, output) = dsort(4, |rank| {
            if rank == 0 {
                (0..400u64).rev().collect()
            } else {
                Vec::new()
            }
        });
        input.sort_unstable();
        assert_eq!(output, input);
    }

    #[test]
    fn all_empty() {
        let (_, output) = dsort(3, |_| Vec::new());
        assert!(output.is_empty());
    }

    #[test]
    fn already_sorted_input() {
        let (mut input, output) = dsort(3, |rank| {
            ((rank as u64) * 100..(rank as u64) * 100 + 100).collect()
        });
        input.sort_unstable();
        assert_eq!(output, input);
    }
}
