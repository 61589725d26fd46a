//! Reproduce **Table 5** of the paper: sequential overhead of the sum
//! aggregation checker — local input processing time per element for
//! 10⁶ pairs of 64-bit integers.
//!
//! The paper measures 3.8–10.0 ns/element on a 3.6 GHz Ryzen 1800X with
//! hardware CRC32. The CRC rows here run on the same `crc32`
//! instruction where the CPU has SSE 4.2 (on the slice-by-8 software
//! fallback elsewhere), every row through the fused bucket fold that
//! `condense` shares with every other sum path; absolute numbers depend
//! on the host.
//!
//! ```text
//! cargo run -p ccheck-bench --bin table5 --release
//! [CCHECK_N=1000000 CCHECK_REPS=50]
//! ```

use ccheck::config::table5_configs;
use ccheck::SumChecker;
use ccheck_bench::{env_param, time_min_secs};
use ccheck_workloads::{uniform_ints, zipf_pairs};

fn main() {
    let n = env_param("CCHECK_N", 1_000_000);
    let reps = env_param("CCHECK_REPS", 25);
    println!(
        "Table 5: checker local input processing time, {n} pairs of 64-bit integers, {reps} runs (min)\n"
    );
    println!(
        "{:>18} {:>12} {:>18} {:>22}",
        "Configuration", "δ", "time/element [ns]", "paper [ns] (hw CRC)"
    );
    let paper_ns = [4.5, 4.6, 5.1, 3.8, 4.7, 7.3, 10.0];

    // Workload: power-law keys (as in §7.1); values stay below 2^32 so
    // the lazy-modulo accumulators follow the common no-overflow path —
    // any realistic count/sum workload does (values near 2^64 would
    // trip the overflow reduction on every add).
    let keys = zipf_pairs(42, 1_000_000, 0..n);
    let values = uniform_ints(43, 1 << 32, 0..n);
    let pairs: Vec<(u64, u64)> = keys
        .into_iter()
        .zip(values)
        .map(|((k, _), v)| (k, v))
        .collect();

    for (cfg, paper) in table5_configs().into_iter().zip(paper_ns) {
        let checker = SumChecker::new(cfg, 7);
        let mut table = checker.new_table();
        let secs = time_min_secs(reps, || {
            table.iter_mut().for_each(|s| *s = 0);
            checker.condense(&pairs, &mut table);
            std::hint::black_box(&table);
        });
        let ns_per_elem = secs * 1e9 / n as f64;
        println!(
            "{:>18} {:>12.1e} {:>18.1} {:>22.1}",
            cfg.label(),
            cfg.failure_bound(),
            ns_per_elem,
            paper,
        );
    }
    println!(
        "\nReference: the main reduce operation itself costs ≈ 88 ns/element (paper, single core)."
    );
}
