//! Reproduce **Fig. 3** of the paper: detection accuracy of the sum
//! aggregation checker for different manipulators.
//!
//! Workload: 50 000 input elements following a power-law distribution
//! over 10⁶ possible values (wordcount shape: value 1 per element).
//! For each (configuration × manipulator) the experiment manipulates the
//! input seen by the checker and reports the *failure rate divided by
//! the configuration's δ* — values ≤ 1 mean the checker performs at
//! least as well as theory guarantees (the y-axis of Fig. 3).
//!
//! The paper uses 100 000 trials; the default here is 1 000 (override
//! with `CCHECK_TRIALS`). Trials whose manipulation is a semantic no-op
//! are re-drawn, as they carry no information about detection.
//!
//! Trials are partitioned across PEs (each rank draws from a disjoint
//! seed stream) and failure counts merge with an allreduce, so the
//! experiment parallelizes with `--pes N` and distributes across
//! processes with `--transport tcp`:
//!
//! ```text
//! cargo run -p ccheck-bench --bin fig3 --release [-- --pes 4]
//! [CCHECK_TRIALS=100000 CCHECK_N=50000]
//! ccheck-launch -p 4 -- target/release/fig3 --transport tcp
//! ```

use std::collections::HashMap;

use ccheck::config::{table3_accuracy_shapes, SumCheckConfig};
use ccheck::sketch::digest_chunked;
use ccheck::SumChecker;
use ccheck_bench::cli::{partition_trials, run_cell, run_opts, run_spmd};
use ccheck_bench::env_param;
use ccheck_hashing::HasherKind;
use ccheck_manip::SumManipulator;
use ccheck_workloads::zipf_valued_pairs;

/// Sequential oracle for sum aggregation.
fn aggregate(input: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut m: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in input {
        *m.entry(k).or_insert(0) = m.get(&k).copied().unwrap_or(0).wrapping_add(v);
    }
    let mut out: Vec<(u64, u64)> = m.into_iter().collect();
    out.sort_unstable();
    out
}

fn main() {
    let opts = run_opts();
    let n = env_param("CCHECK_N", 50_000);
    let trials = env_param("CCHECK_TRIALS", 1_000);
    // `--chunk`: run every check through the streaming sketch path in
    // chunks of this many elements instead of whole slices. Verdicts are
    // guaranteed identical (chunking invariance); the knob exists to
    // benchmark streaming vs. materialized execution.
    let chunk = opts.chunk;

    run_spmd(&opts, |comm| {
        let p = comm.size();
        if comm.rank() == 0 {
            println!(
                "Fig. 3: Sum-aggregation checker accuracy — {n} power-law elements \
                 (10⁶ possible values), {trials} effective trials/cell on {p} PE(s)"
            );
            match chunk {
                Some(c) => println!("Checker execution: streaming sketches, {c}-element chunks"),
                None => println!("Checker execution: materialized slices (use --chunk to stream)"),
            }
            println!("Cells: measured failure rate ÷ δ (≤ 1 ⇒ meets theoretical guarantee)\n");
        }

        // Power-law keys with varying values (SwitchValues needs them);
        // the generator is deterministic, so every rank holds the same
        // workload and only the trial seeds differ.
        let input = zipf_valued_pairs(1, 1_000_000, 1 << 32, 0..n);
        let correct = aggregate(&input);
        let manipulators = SumManipulator::all();

        // This rank's share of the trials and its private seed stream
        // (disjoint streams: with p = 1 this reproduces the original
        // single-threaded experiment seed for seed).
        let share = partition_trials(comm, trials);

        // Header.
        if comm.rank() == 0 {
            print!("{:>16} {:>10}", "Config", "δ");
            for m in &manipulators {
                print!(" {:>13}", m.label());
            }
            println!();
        }

        for (its, d, m_exp) in table3_accuracy_shapes() {
            for hasher in [HasherKind::Crc32c, HasherKind::Tab32] {
                let cfg = SumCheckConfig::new(its, d, m_exp, hasher);
                let delta = cfg.failure_bound();
                if comm.rank() == 0 {
                    print!("{:>16} {:>10.1e}", cfg.label(), delta);
                }
                for manip in &manipulators {
                    let (failures, effective) = run_cell(comm, share, &manip.label(), |seed| {
                        let mut bad = input.clone();
                        if !manip.apply(&mut bad, seed ^ 0xF163) {
                            return None; // semantic no-op: re-draw
                        }
                        let checker = SumChecker::new(cfg, seed);
                        // "failure" = accepted an incorrect computation.
                        Some(match chunk {
                            Some(c) => {
                                let digest = |side: &[(u64, u64)]| {
                                    digest_chunked(|| checker.sketch(), side.iter().copied(), c)
                                };
                                checker.lanes(digest(&bad), digest(&correct)).accepts()
                            }
                            None => checker.check_local(&bad, &correct),
                        })
                    });
                    if comm.rank() == 0 {
                        let rate = failures as f64 / effective as f64;
                        print!(" {:>13.3}", rate / delta);
                    }
                }
                if comm.rank() == 0 {
                    println!();
                }
            }
        }
        let stats = comm.gather_stats();
        if comm.rank() == 0 {
            println!(
                "\nNote: cells for low-δ configurations carry limited significance at \
                 {trials} trials (expected failures ≈ δ·trials), as in the paper's own caveat."
            );
            if let Some(stats) = stats {
                if comm.size() > 1 {
                    println!("\nCommunication summary:\n{}", stats.render_table());
                }
            }
        }
    });
}
