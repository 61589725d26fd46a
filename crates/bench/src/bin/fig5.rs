//! Reproduce **Fig. 5** (Appendix A) of the paper: detection accuracy of
//! the permutation/sort checker for different manipulators and hash
//! configurations.
//!
//! Workload: uniformly distributed integers with 10⁸ possible values
//! (default 10⁵ elements, paper: 10⁶ — override with `CCHECK_N`).
//! Manipulations are applied *before sorting*, so the permutation
//! property (not trivial sortedness) is what's tested. Cells report
//! failure rate ÷ δ with δ = 2^−log H.
//!
//! The paper's headline finding: CRC-32C lacks randomness for the
//! `Increment` manipulator (ratios ≫ 1), tabulation hashing is uniformly
//! fine — watch the CRC/Increment column.
//!
//! Like `fig3`, trials are partitioned across PEs and merged with an
//! allreduce (`--pes N` / `--transport tcp` under `ccheck-launch`):
//!
//! ```text
//! cargo run -p ccheck-bench --bin fig5 --release [-- --pes 4]
//! [CCHECK_TRIALS=100000 CCHECK_N=1000000]
//! ```

use ccheck::permutation::{PermCheckConfig, PermChecker};
use ccheck::sketch::digest_chunked;
use ccheck_bench::cli::{partition_trials, run_cell, run_opts, run_spmd};
use ccheck_bench::env_param;
use ccheck_hashing::HasherKind;
use ccheck_manip::PermManipulator;
use ccheck_workloads::uniform_ints;

fn main() {
    let opts = run_opts();
    let n = env_param("CCHECK_N", 100_000);
    let trials = env_param("CCHECK_TRIALS", 400);
    // `--chunk`: fold both sides through the streaming sketch path in
    // chunks (verdicts identical by chunking invariance).
    let chunk = opts.chunk;

    run_spmd(&opts, |comm| {
        let p = comm.size();
        if comm.rank() == 0 {
            println!(
                "Fig. 5: Permutation/Sort checker accuracy — {n} uniform elements \
                 (10⁸ possible values), {trials} effective trials/cell on {p} PE(s)"
            );
            match chunk {
                Some(c) => println!("Checker execution: streaming sketches, {c}-element chunks"),
                None => println!("Checker execution: materialized slices (use --chunk to stream)"),
            }
            println!("Cells: measured failure rate ÷ δ (δ = 2^-logH)\n");
        }

        let input = uniform_ints(2, 100_000_000, 0..n);
        let log_hs = [1u32, 2, 3, 4, 6, 8, 12];
        let manipulators = PermManipulator::all();

        let share = partition_trials(comm, trials);

        if comm.rank() == 0 {
            print!("{:>8}", "Config");
            for m in &manipulators {
                print!(" {:>11}", m.label());
            }
            println!();
        }

        for hasher in [HasherKind::Crc32c, HasherKind::Tab32] {
            for &log_h in &log_hs {
                let cfg = PermCheckConfig::hash_sum(hasher, log_h);
                let delta = (0.5f64).powi(log_h as i32);
                if comm.rank() == 0 {
                    print!("{:>5}{:<3}", hasher.label(), log_h);
                }
                for manip in &manipulators {
                    let (failures, effective) = run_cell(comm, share, manip.label(), |seed| {
                        let mut bad = input.clone();
                        if !manip.apply(&mut bad, seed ^ 0xF165) {
                            return None;
                        }
                        let checker = PermChecker::new(cfg, seed);
                        Some(match chunk {
                            Some(c) => {
                                let digest = |side: &[u64]| {
                                    digest_chunked(|| checker.sketch(), side.iter().copied(), c)
                                };
                                checker.lanes(digest(&input), digest(&bad)).accepts()
                            }
                            None => checker.check_local(&input, &bad),
                        })
                    });
                    if comm.rank() == 0 {
                        let rate = failures as f64 / effective as f64;
                        print!(" {:>11.3}", rate / delta);
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
                "\nExpected shape (paper): Tab ratios ≈ 1 everywhere; CRC shows \
                 elevated ratios for Increment (insufficient randomness in low bits)."
            );
            if let Some(stats) = stats {
                if comm.size() > 1 {
                    println!("\nCommunication summary:\n{}", stats.render_table());
                }
            }
        }
    });
}
