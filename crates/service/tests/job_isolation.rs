//! Job isolation property: an **arbitrary interleaving** of N concurrent
//! jobs — mixed reduce/sort/zip, mixed chunked/one-shot, some fault-
//! injected — produces verdicts and digests identical to running the
//! same jobs serially, each on a dedicated world.
//!
//! The interleaving is genuinely arbitrary: every job is submitted from
//! its own client thread (submission order races) and all jobs execute
//! concurrently over one shared transport per PE, so their collectives
//! interleave at the whim of the scheduler. Isolation (tag scoping +
//! per-scope stats) is what makes the outcome deterministic anyway.
//!
//! Admission runs no barrier: a slot's next job starts in the slot's next
//! scope generation while a slower PE may still be finishing the previous
//! one. The back-to-back tests below hold one slot busy with job after
//! job and check every receipt against the same job run alone.

use std::sync::mpsc;
use std::time::Duration;

use ccheck_net::Backend;
use ccheck_service::{
    execute_job, run_service_world, FaultSpec, JobOp, JobSpec, Receipt, ServiceClient,
    ServiceConfig, Verdict, MAX_INFLIGHT,
};
use proptest::prelude::*;

/// Decode one proptest-drawn job description into a spec.
/// `(op, chunk, n, seed, fault)` selectors keep the strategy on plain
/// integer ranges (the offline proptest stand-in's vocabulary).
fn make_spec(op_sel: u8, chunk_sel: u8, n: u64, seed: u64, fault_sel: u8) -> JobSpec {
    let op = match op_sel % 3 {
        0 => JobOp::Reduce,
        1 => JobOp::Sort,
        _ => JobOp::Zip,
    };
    let chunk = match chunk_sel % 3 {
        0 => 0, // one-shot
        1 => 128,
        _ => 1024,
    };
    // Roughly half the jobs get an injected fault, drawn from the op's
    // manipulator family.
    let fault = match (fault_sel % 8, op) {
        (0, JobOp::Reduce) => Some("bitflip"),
        (1, JobOp::Reduce) => Some("switchvalues"),
        (0, JobOp::Sort) => Some("dupneighbor"),
        (1, JobOp::Sort) => Some("swapadjacent"),
        (0 | 1, JobOp::Zip) => Some("swappairs"),
        (2, _) => Some("randomize"),
        _ => None,
    };
    // "randomize" only exists for sort and zip outputs.
    let fault = match (fault, op) {
        (Some("randomize"), JobOp::Reduce) => Some("randkey"),
        (f, _) => f,
    };
    JobSpec {
        op,
        n: 500 + n,
        keys: 79,
        seed,
        chunk,
        iterations: 3,
        max_retries: 1,
        fault: fault.map(|kind| FaultSpec {
            kind: kind.into(),
            seed: seed ^ 0xFA,
        }),
        ..JobSpec::default()
    }
}

/// The job run alone on a dedicated `p`-PE world on `backend`.
fn serial_receipt(backend: Backend, p: usize, spec: &JobSpec) -> Receipt {
    ccheck_net::run_on(backend, p, |comm| execute_job(comm, 0, spec)).swap_remove(0)
}

proptest! {
    // Each case spins up a full service world plus one standalone world
    // per job; keep the case budget in line with the other cross-crate
    // distributed properties.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn concurrent_jobs_equal_serial_jobs(
        jobs in prop::collection::vec(
            (0u8..3, 0u8..3, 0u64..2500, 0u64..10_000, 0u8..8),
            2..=4,
        ),
        world_seed in 0u64..1000,
    ) {
        let p = 3;
        let specs: Vec<JobSpec> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(op, chunk, n, seed, fault))| {
                // world_seed decorrelates datasets across cases.
                make_spec(op, chunk, n, seed ^ (world_seed << 10) ^ i as u64, fault)
            })
            .collect();

        // Serial ground truth, each job alone on a dedicated world.
        let serial: Vec<Receipt> = specs
            .iter()
            .map(|s| serial_receipt(Backend::Local, p, s))
            .collect();

        // Concurrent run: all jobs in flight at once.
        let (tx, rx) = mpsc::channel();
        let cfg = ServiceConfig {
            announce: Some(tx),
            max_inflight: specs.len(),
            ..ServiceConfig::default()
        };
        let world = {
            let cfg = cfg.clone();
            std::thread::spawn(move || run_service_world(Backend::Local, p, &cfg))
        };
        let addr = rx.recv_timeout(Duration::from_secs(30)).expect("address");
        let concurrent: Vec<Receipt> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let spec = spec.clone();
                    scope.spawn(move || {
                        let mut client = ServiceClient::connect_with_retry(
                            &addr.to_string(),
                            Duration::from_secs(10),
                        )
                        .expect("connect");
                        client.run(&spec).expect("receipt")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        ServiceClient::connect_with_retry(&addr.to_string(), Duration::from_secs(10))
            .expect("connect")
            .shutdown()
            .expect("shutdown");
        world.join().expect("world exits");

        for ((spec, serial), concurrent) in specs.iter().zip(&serial).zip(&concurrent) {
            prop_assert_eq!(&concurrent.verdict, &serial.verdict);
            prop_assert_eq!(concurrent.digest, serial.digest);
            prop_assert_eq!(concurrent.output_elems, serial.output_elems);
            // Per-job comm volumes are part of the receipt contract too.
            prop_assert_eq!(&concurrent.comm, &serial.comm);
            // Faulty one-shot reduce/sort jobs degrade, never lie:
            if spec.fault.is_some() && spec.chunk == 0 && spec.op != JobOp::Zip {
                prop_assert!(matches!(
                    concurrent.verdict,
                    Verdict::FellBack | Verdict::VerifiedAfterRetry(_)
                ));
            }
            // Faulty chunked/zip jobs are flagged:
            if spec.fault.is_some() && (spec.chunk != 0 || spec.op == JobOp::Zip) {
                prop_assert_eq!(&concurrent.verdict, &Verdict::Rejected);
            }
        }
    }
}

/// Run `jobs` mixed jobs through a `max_inflight`-slot world of `p` PEs on
/// `backend` and compare every receipt with the standalone run. With
/// `queued`, every job is submitted before the first finishes, so the
/// loop admits each the moment the slot frees; otherwise each job is
/// submitted once the previous receipt is back.
fn back_to_back(backend: Backend, p: usize, max_inflight: usize, jobs: u64, queued: bool) {
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| {
            let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Every tenth job is large enough that its worker retires
            // afterwards, so the slot's next job starts a new one.
            let n = if i % 10 == 9 { 9_000 } else { (h >> 16) % 1500 };
            make_spec(
                (i % 3) as u8,
                (h >> 8) as u8,
                n,
                (h >> 24) % 10_000 + 100 * p as u64,
                (h >> 40) as u8,
            )
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let cfg = ServiceConfig {
        announce: Some(tx),
        max_inflight,
        ..ServiceConfig::default()
    };
    let world = std::thread::spawn(move || run_service_world(backend, p, &cfg));
    let addr = rx.recv_timeout(Duration::from_secs(30)).expect("address");
    let mut client = ServiceClient::connect_with_retry(&addr.to_string(), Duration::from_secs(10))
        .expect("connect");
    // A broken world stops answering rather than erring: bound the wait.
    let receipt = |client: &mut ServiceClient, id: u64| {
        client
            .wait_timeout(id, Some(Duration::from_secs(60)))
            .expect("wait")
            .unwrap_or_else(|| panic!("job {id}: no receipt within 60 s"))
    };
    let receipts: Vec<Receipt> = if queued {
        let ids: Vec<u64> = specs
            .iter()
            .map(|spec| client.submit(spec).expect("submit"))
            .collect();
        ids.into_iter().map(|id| receipt(&mut client, id)).collect()
    } else {
        specs
            .iter()
            .map(|spec| {
                let id = client.submit(spec).expect("submit");
                receipt(&mut client, id)
            })
            .collect()
    };
    client.shutdown().expect("shutdown");
    world.join().expect("world exits");

    for (spec, got) in specs.iter().zip(&receipts) {
        let alone = serial_receipt(backend, p, spec);
        let what = format!("{backend:?} p={p} slots={max_inflight} job {}", got.job_id);
        assert_eq!(got.verdict, alone.verdict, "{what}: verdict");
        assert_eq!(got.digest, alone.digest, "{what}: digest");
        assert_eq!(got.output_elems, alone.output_elems, "{what}: output_elems");
        assert_eq!(got.comm, alone.comm, "{what}: comm");
    }
}

/// One slot, 30 jobs queued at once: each job's scope generation opens
/// while the previous job may still be running on another PE.
#[test]
fn one_slot_back_to_back_jobs_equal_standalone_jobs() {
    for backend in [Backend::Local, Backend::TcpLoopback] {
        for p in [2, 3] {
            back_to_back(backend, p, 1, 30, true);
        }
    }
}

/// At `MAX_INFLIGHT` every slot has exactly two scope generations, so a
/// client's back-to-back jobs, which all land on slot 0, reuse a scope id
/// every second job.
#[test]
fn scope_ids_reused_every_second_job_at_max_inflight() {
    for backend in [Backend::Local, Backend::TcpLoopback] {
        back_to_back(backend, 2, MAX_INFLIGHT, 30, false);
    }
}
