//! Workload shapes and the seed → input mapping. The program under test
//! receives only what this module generates: `JobSpec`s for the service
//! workloads, element counts and seeds for pipe-check.

use ccheck_service::{FaultSpec, JobOp, JobSpec};

use crate::catalog::{PIPE_CHECK, SVC_LARGE, SVC_STREAM, SVC_TINY};

/// World size of every workload: fixed (not `nproc`) so numbers do not
/// depend on the host's core count.
pub const PES: usize = 2;

pub const OPS: [JobOp; 3] = [JobOp::Reduce, JobOp::Sort, JobOp::Zip];

/// The job shape of one service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvcShape {
    pub n: u64,
    pub keys: u64,
    pub chunk: u64,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Jobs per timed round; a multiple of 3 so every round has the same
    /// op mix.
    pub jobs_per_round: u64,
    /// Receipts a first world writes into the ledger before the worlds
    /// that are timed start on it (0: they start on a fresh ledger).
    pub warm_ledger_receipts: u64,
    /// Whether the jobs' phases last long enough for the receipts'
    /// ms-granular `timing` to resolve them.
    pub receipts_resolve_phases: bool,
}

pub fn svc_shape(workload: &str) -> Option<SvcShape> {
    const LARGE_N: u64 = 2_000_000;
    match workload {
        SVC_TINY => Some(SvcShape {
            n: 100,
            keys: 11,
            chunk: 0,
            clients: 2,
            jobs_per_round: 300,
            warm_ledger_receipts: 500,
            receipts_resolve_phases: false,
        }),
        SVC_LARGE => Some(SvcShape {
            n: LARGE_N,
            keys: LARGE_N / 10,
            chunk: 0,
            clients: 1,
            jobs_per_round: 6,
            warm_ledger_receipts: 0,
            receipts_resolve_phases: true,
        }),
        // One variable away from svc-large.
        SVC_STREAM => Some(SvcShape {
            n: LARGE_N,
            keys: LARGE_N / 10,
            chunk: 65_536,
            clients: 1,
            jobs_per_round: 6,
            warm_ledger_receipts: 0,
            receipts_resolve_phases: true,
        }),
        _ => None,
    }
}

/// Elements per pipe-check pipeline.
pub const PIPE_N: u64 = 4_000_000;

/// Splitmix64: derives job, checker and fault seeds from `--seed`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stream of seeds private to one `(run seed, workload, purpose)`.
pub fn derive(seed: u64, workload: &str, purpose: u64) -> u64 {
    let tag = match workload {
        SVC_TINY => 1,
        SVC_LARGE => 2,
        SVC_STREAM => 3,
        PIPE_CHECK => 4,
        _ => 0,
    };
    mix(mix(seed ^ (tag << 56)) ^ purpose)
}

/// The `index`-th timed job of a service workload: round-robin
/// reduce/sort/zip, the workload's shape, a seed of its own. The service
/// default checker config (4×16 Tab64 m9) rides along unchanged.
pub fn job_spec(workload: &str, shape: &SvcShape, seed: u64, index: u64) -> JobSpec {
    JobSpec {
        op: OPS[(index % 3) as usize],
        n: shape.n,
        keys: shape.keys,
        seed: mix(derive(seed, workload, 0x10B) ^ index),
        chunk: shape.chunk,
        ..JobSpec::default()
    }
}

/// The untimed correctness jobs of a service workload: each op one-shot
/// and chunked at the workload's `n` (clean), then one `bitflip` job per
/// op (must not verify). Chunked jobs use the workload's own chunk, or
/// `n/4` where the workload is one-shot.
pub fn preflight_specs(workload: &str, shape: &SvcShape, seed: u64) -> Vec<JobSpec> {
    let chunked = if shape.chunk > 0 {
        shape.chunk
    } else {
        (shape.n / 4).max(1)
    };
    let base = derive(seed, workload, 0x9F);
    let mut specs = Vec::new();
    for (i, op) in OPS.into_iter().enumerate() {
        for chunk in [0, chunked] {
            specs.push(JobSpec {
                op,
                n: shape.n,
                keys: shape.keys,
                seed: mix(base ^ i as u64),
                chunk,
                ..JobSpec::default()
            });
        }
    }
    for (i, op) in OPS.into_iter().enumerate() {
        specs.push(JobSpec {
            op,
            n: shape.n,
            keys: shape.keys,
            seed: mix(base ^ (0x100 + i as u64)),
            chunk: shape.chunk,
            // A fault job runs the op once, then the fallback: retries
            // would only re-run the same rejected attempt.
            max_retries: 0,
            fault: Some(FaultSpec {
                kind: "bitflip".into(),
                seed: derive(seed, workload, 0xFA + i as u64),
            }),
            ..JobSpec::default()
        });
    }
    specs
}

/// The smallest job the service accepts on this world (one element per
/// PE): what the "empty job" rows run.
pub fn empty_job_spec(seed: u64) -> JobSpec {
    JobSpec {
        op: JobOp::Reduce,
        n: PES as u64,
        keys: 1,
        seed,
        ..JobSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::wire;

    fn spec_bytes(workload: &str, seed: u64) -> Vec<u8> {
        let shape = svc_shape(workload).unwrap();
        let mut specs: Vec<JobSpec> = (0..50)
            .map(|i| job_spec(workload, &shape, seed, i))
            .collect();
        specs.extend(preflight_specs(workload, &shape, seed));
        let mut bytes = Vec::new();
        for spec in &specs {
            bytes.extend(wire::encode(spec));
            bytes.extend(spec.to_json().render().into_bytes());
        }
        bytes
    }

    #[test]
    fn same_seed_gives_byte_identical_specs() {
        for workload in [SVC_TINY, SVC_LARGE, SVC_STREAM] {
            assert_eq!(spec_bytes(workload, 7), spec_bytes(workload, 7));
            assert_ne!(spec_bytes(workload, 7), spec_bytes(workload, 8));
        }
        // Workloads draw from separate seed streams.
        let shape = svc_shape(SVC_LARGE).unwrap();
        assert_ne!(
            job_spec(SVC_LARGE, &shape, 1, 0).seed,
            job_spec(SVC_STREAM, &shape, 1, 0).seed
        );
    }

    #[test]
    fn specs_are_valid_and_rounds_hold_the_full_op_mix() {
        for workload in [SVC_TINY, SVC_LARGE, SVC_STREAM] {
            let shape = svc_shape(workload).unwrap();
            assert_eq!(shape.jobs_per_round % 3, 0);
            for i in 0..6 {
                let spec = job_spec(workload, &shape, 1, i);
                assert_eq!(spec.validate(), Ok(()));
                assert_eq!(spec.op, OPS[(i % 3) as usize]);
            }
            let preflight = preflight_specs(workload, &shape, 1);
            assert_eq!(preflight.len(), 9);
            for spec in &preflight {
                assert_eq!(spec.validate(), Ok(()));
                assert_eq!(ccheck_service::exec::validate_fault(spec), Ok(()));
            }
            assert_eq!(preflight.iter().filter(|s| s.fault.is_some()).count(), 3);
            assert!(preflight.iter().any(|s| s.chunk > 0 && s.fault.is_none()));
        }
        assert_eq!(empty_job_spec(3).validate(), Ok(()));
        // svc-stream differs from svc-large in the chunk alone.
        let (large, stream) = (
            svc_shape(SVC_LARGE).unwrap(),
            svc_shape(SVC_STREAM).unwrap(),
        );
        assert_eq!(SvcShape { chunk: 0, ..stream }, large);
    }
}
