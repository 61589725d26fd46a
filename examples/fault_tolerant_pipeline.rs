//! Graceful degradation: self-checking operations that retry on
//! transient faults and fall back to a verified slow path on hard
//! faults — the deployment mode sketched in the paper's conclusion.
//!
//! A flaky aggregation node corrupts its output with a configurable
//! probability; `checked_reduce_with` detects each corruption, retries,
//! and (if the fault persists) falls back to the gather-based reference
//! implementation. The pipeline *always* delivers a correct result.
//!
//! ```text
//! cargo run --example fault_tolerant_pipeline --release
//! ```

use ccheck::SumCheckConfig;
use ccheck_dataflow::checked::{checked_reduce_with, CheckedOutcome};
use ccheck_dataflow::reduce_by_key;
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_manip::SumManipulator;
use ccheck_net::run;
use ccheck_workloads::{local_range, zipf_valued_pairs};
use std::collections::HashMap;

const PES: usize = 4;
const N: usize = 40_000;

/// Fault model: corrupt the local output shard on the first
/// `faulty_attempts` attempts.
fn pipeline(faulty_attempts: usize) -> (CheckedOutcome, bool) {
    let results = run(PES, |comm| {
        let data = zipf_valued_pairs(8, 10_000, 1 << 24, local_range(N, comm.rank(), PES));
        let hasher = Hasher::new(HasherKind::Tab64, 2);
        let cfg = SumCheckConfig::new(6, 16, 9, HasherKind::Tab64); // δ ≈ 9e-8
        let mut attempt = 0usize;
        let (shard, outcome) = checked_reduce_with(comm, data.clone(), cfg, 55, 2, |comm, d| {
            let mut out = reduce_by_key(comm, d.iter().copied(), &hasher, |a, b| a.wrapping_add(b));
            attempt += 1;
            if attempt <= faulty_attempts && comm.rank() == 1 {
                // A "silently failing node": random key corruption.
                let mut s = attempt as u64;
                while !SumManipulator::RandKey.apply(&mut out, s) {
                    s += 1;
                }
            }
            out
        });
        (data, shard, outcome)
    });

    // Validate the delivered result against a sequential oracle.
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for (data, _, _) in &results {
        for &(k, v) in data {
            *oracle.entry(k).or_insert(0) = oracle.get(&k).copied().unwrap_or(0).wrapping_add(v);
        }
    }
    let mut delivered: Vec<(u64, u64)> = results
        .iter()
        .flat_map(|(_, shard, _)| shard.clone())
        .collect();
    delivered.sort_unstable();
    let mut expected: Vec<(u64, u64)> = oracle.into_iter().collect();
    expected.sort_unstable();
    (results[0].2.clone(), delivered == expected)
}

fn main() {
    println!("self-checking aggregation of {N} records on {PES} PEs (max 2 retries)\n");
    for (scenario, faulty_attempts) in [
        ("healthy cluster", 0usize),
        ("one transient corruption", 1),
        ("two consecutive corruptions", 2),
        ("persistently faulty node", 99),
    ] {
        let (outcome, correct) = pipeline(faulty_attempts);
        println!(
            "  {:<28} → {:?}, result correct: {correct}",
            scenario, outcome
        );
        assert!(correct, "the pipeline must never deliver a wrong result");
    }
    println!("\nEvery scenario delivered a verified-correct aggregate.");
}
