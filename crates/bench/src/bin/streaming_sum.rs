//! A checked **streaming** distributed sum aggregation: the big-n
//! scenario the sketch refactor exists for.
//!
//! Per PE, the power-law input share is produced by a *lazy generator*
//! (never materialized), aggregated with the chunked
//! `reduce_by_key_chunked` (bounded per-peer exchange buffers), and then
//! verified by streaming a second pass of the regenerated input through
//! the [`ccheck::SumChecker`] sketch — so resident memory is
//! O(distinct keys + chunk · p + its · d), independent of `n`. The CI
//! `streaming-smoke` job runs this binary at n = 10⁷ on 4 TCP processes
//! under a hard `ulimit -v` address-space ceiling to prove exactly that.
//!
//! ```text
//! CCHECK_N=10000000 ccheck-launch -p 4 -- \
//!     target/release/streaming_sum --transport tcp --chunk 65536
//! ```
//!
//! Scale knobs: `CCHECK_N` (global elements, default 10⁶),
//! `CCHECK_KEYS` (distinct keys, default 10⁵), `--chunk` (batch size,
//! default 65 536). Set `CCHECK_CORRUPT=1` to flip one output value and
//! assert the checker *rejects* (the binary then exits 0 on rejection).
//! Rank 0 prints a `STREAMING_SUM_JSON {...}` line for machine
//! consumption (the `BENCH_streaming.json` baseline).

use std::time::Instant;

use ccheck::config::SumCheckConfig;
use ccheck::sketch::Sketch;
use ccheck::SumChecker;
use ccheck_bench::cli::{run_opts, run_spmd};
use ccheck_bench::env_param;
use ccheck_dataflow::reduce_by_key_chunked;
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_workloads::{local_range, zipf_valued_pairs_iter};

/// Peak virtual address-space usage of this process in KiB (Linux
/// `VmPeak`; 0 where /proc is unavailable). This is the quantity
/// `ulimit -v` caps, so it is what the bounded-memory claim is made in.
fn vm_peak_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmPeak:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn main() {
    let opts = run_opts();
    let n = env_param("CCHECK_N", 1_000_000);
    let keys = env_param("CCHECK_KEYS", 100_000) as u64;
    let chunk = opts.chunk_or(1 << 16);
    let corrupt = std::env::var("CCHECK_CORRUPT").is_ok_and(|v| v == "1");
    let seed = 0x5EED_u64;

    let ok = run_spmd(&opts, |comm| {
        let p = comm.size();
        let rank = comm.rank();
        let range = local_range(n, rank, p);
        let share = range.len();
        // The lazy input share; cloning replays the identical stream,
        // which is how the checker gets its own pass without any slice.
        let input = zipf_valued_pairs_iter(seed, keys, 1 << 20, range);

        // The operation under test: streaming SELECT key, SUM(value)
        // GROUP BY key with bounded exchange buffers.
        let hasher = Hasher::new(HasherKind::Tab64, 0xD157);
        let t0 = Instant::now();
        let mut shard = reduce_by_key_chunked(comm, input.clone(), &hasher, chunk, |a, b| {
            a.wrapping_add(b)
        });
        let op_secs = t0.elapsed().as_secs_f64();

        if corrupt && rank == 0 {
            // Injected fault the checker must catch; an empty shard
            // (possible for degenerate key counts) instead asserts an
            // aggregate for key 0, which the zipf workload (keys in
            // 1..=keys) never generates.
            match shard.first_mut() {
                Some(first) => first.1 ^= 0x40,
                None => shard.push((0, 1)),
            }
        }

        // The check: one streaming pass over the regenerated input and
        // the local output shard; only the sketch digests travel.
        let checker = SumChecker::new(SumCheckConfig::new(4, 16, 9, HasherKind::Tab64), 42);
        let t1 = Instant::now();
        let (mut seen, mut asserted) = (checker.sketch(), checker.sketch());
        seen.update_iter(input);
        asserted.update_iter(shard.iter().copied());
        let verdict = checker.check_distributed_sketches(comm, seen, asserted);
        let check_secs = t1.elapsed().as_secs_f64();

        let peak_kb = comm.allreduce(vm_peak_kb(), |a, b| a.max(b));
        let (op_max, check_max) =
            comm.allreduce((op_secs, check_secs), |a, b| (a.0.max(b.0), a.1.max(b.1)));
        let stats = comm.gather_stats();

        if rank == 0 {
            let accepted = if verdict { "ACCEPTED" } else { "REJECTED" };
            println!(
                "Streaming checked sum: n = {n}, {keys} keys, {p} PE(s), \
                 chunk = {chunk} elems{}",
                if corrupt { ", corruption injected" } else { "" }
            );
            println!(
                "  operation (reduce_by_key_chunked): {op_max:.3} s  \
                 ({:.2e} elems/s global)",
                n as f64 / op_max
            );
            println!(
                "  check (sketch fold, 2nd pass):     {check_max:.3} s  \
                 ({:.2e} elems/s per PE)",
                share as f64 / check_max
            );
            println!("  peak address space (max over PEs): {peak_kb} KiB");
            println!("  verdict: {accepted}");
            if let Some(stats) = stats {
                println!("\nCommunication summary:\n{}", stats.render_table());
                println!(
                    "STREAMING_SUM_JSON {{\"n\": {n}, \"keys\": {keys}, \"pes\": {p}, \
                     \"chunk\": {chunk}, \"op_elems_per_sec\": {:.0}, \
                     \"check_elems_per_sec_per_pe\": {:.0}, \"vm_peak_kb\": {peak_kb}, \
                     \"bottleneck_bytes\": {}, \"total_bytes\": {}, \"verdict\": {verdict}}}",
                    n as f64 / op_max,
                    share as f64 / check_max,
                    stats.bottleneck_volume(),
                    stats.total_bytes(),
                );
            }
        }
        verdict
    });

    // Exit status: success means "the checker gave the right answer" —
    // accept on a clean run, reject when a fault was injected.
    let expected = !corrupt;
    if ok.iter().any(|&v| v != expected) {
        std::process::exit(1);
    }
}
