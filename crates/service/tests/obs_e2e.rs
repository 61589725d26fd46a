//! End-to-end observability tests: a full service world with obs
//! collection enabled must (a) seal a `timing` block into every
//! receipt that survives ledger replay byte-identically, and (b)
//! answer the `metrics` protocol command with live, world-merged
//! transport / scheduler / executor series.
//!
//! Obs state (the enabled flag and the metric registry) is process
//! global, so these tests only ever switch collection ON and assert
//! with `>=` — parallel test threads add to the same counters.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use ccheck_net::Backend;
use ccheck_service::json::Json;
use ccheck_service::{
    run_service_world, JobOp, JobSpec, Ledger, Receipt, ServiceClient, ServiceConfig,
};

fn start_world(
    p: usize,
    cfg: ServiceConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Vec<ccheck_service::ServiceSummary>>,
) {
    let (tx, rx) = mpsc::channel();
    let cfg = ServiceConfig {
        announce: Some(tx),
        ..cfg
    };
    let world = std::thread::spawn(move || run_service_world(Backend::Local, p, &cfg));
    let addr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("service never announced its address");
    (addr, world)
}

fn connect(addr: std::net::SocketAddr) -> ServiceClient {
    ServiceClient::connect_with_retry(&addr.to_string(), Duration::from_secs(10))
        .expect("client connects")
}

fn mixed_specs() -> Vec<JobSpec> {
    vec![
        JobSpec {
            op: JobOp::Reduce,
            n: 4_000,
            keys: 97,
            seed: 11,
            ..JobSpec::default()
        },
        JobSpec {
            op: JobOp::Sort,
            n: 3_000,
            keys: 4_096,
            seed: 12,
            chunk: 1_000,
            ..JobSpec::default()
        },
        JobSpec {
            op: JobOp::Zip,
            n: 2_000,
            keys: 64,
            seed: 13,
            ..JobSpec::default()
        },
    ]
}

fn temp_ledger(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ccheck-obs-e2e-{tag}-{}.log", std::process::id()))
}

/// Satellite 3 (receipt timing): every receipt of a mixed workload
/// carries a timing block, its phases are monotone against the wall
/// clock, and the sealed block survives a ledger replay byte-for-byte
/// (same canonical bytes, same content hash).
#[test]
fn receipt_timing_present_monotone_and_replay_stable() {
    ccheck_obs::set_enabled(true);
    let path = temp_ledger("timing");
    let _ = std::fs::remove_file(&path);
    let (addr, world) = start_world(
        2,
        ServiceConfig {
            ledger_path: Some(path.clone()),
            max_inflight: 2,
            ..ServiceConfig::default()
        },
    );
    let mut client = connect(addr);
    let mut receipts: Vec<Receipt> = Vec::new();
    // Chunked reduce and sort fold their input through the single-pass
    // tee, whose fold time is moved from exec into check: the split
    // must still fit inside the wall clock.
    let single_pass = [(JobOp::Reduce, 256), (JobOp::Sort, 257)].map(|(op, chunk)| JobSpec {
        op,
        n: 20_000,
        keys: 97,
        seed: 14,
        chunk,
        ..JobSpec::default()
    });
    for spec in mixed_specs().into_iter().chain(single_pass) {
        let id = client.submit(&spec).expect("submit");
        receipts.push(client.wait(id).expect("wait"));
    }
    client.shutdown().expect("shutdown");
    world.join().expect("world joins");

    for r in &receipts {
        let timing = r
            .timing
            .unwrap_or_else(|| panic!("job {} receipt has no timing block", r.job_id));
        // Phase times are measured in µs and floored to ms against the
        // same clock, so the split can never exceed the whole.
        assert!(
            timing.exec_ms + timing.check_ms <= r.wall_ms,
            "job {}: exec {} + check {} exceeds wall {}",
            r.job_id,
            timing.exec_ms,
            timing.check_ms,
            r.wall_ms
        );
        assert!(r.content_hash.is_some(), "receipt is sealed");
    }

    // Replay the ledger: the stored receipts (timing block included)
    // must round-trip byte-identically — equal field-for-field, and the
    // canonical bytes must still hash to the sealed content_hash.
    let replayed = Ledger::replay(&path).expect("replay");
    assert_eq!(replayed.len(), receipts.len());
    for r in &receipts {
        let stored = replayed
            .iter()
            .find(|s| s.job_id == r.job_id)
            .unwrap_or_else(|| panic!("job {} missing from replay", r.job_id));
        assert_eq!(stored, r, "replayed receipt differs from the one served");
        assert_eq!(
            stored.content_hash(),
            stored.content_hash.clone().expect("sealed"),
            "replayed canonical bytes no longer match the sealed hash"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Tentpole (live introspection): the `metrics` protocol command
/// returns a world-merged snapshot with non-zero transport, scheduler,
/// and executor series, plus a Prometheus rendering of the same.
#[test]
fn metrics_command_reports_world_series() {
    ccheck_obs::set_enabled(true);
    let pes = 2;
    let (addr, world) = start_world(pes, ServiceConfig::default());
    let mut client = connect(addr);
    let jobs = mixed_specs();
    let n_jobs = jobs.len() as u64;
    for spec in jobs {
        let id = client.submit(&spec).expect("submit");
        client.wait(id).expect("wait");
    }

    let snap = client.metrics().expect("metrics");
    assert_eq!(snap.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(snap.get("enabled").and_then(Json::as_bool), Some(true));
    assert_eq!(snap.get("sources").and_then(Json::as_u64), Some(pes as u64));

    let counter = |name: &str| {
        snap.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("metrics response lacks counter {name}"))
    };
    // Executor: both PEs ran every job, so the merged count is p × jobs
    // at minimum (other tests in this process may add more).
    assert!(counter("exec.jobs") >= pes as u64 * n_jobs);
    // Scheduler series only exist on rank 0, but merge in regardless.
    assert!(counter("sched.enqueued") >= n_jobs);
    assert!(counter("sched.admitted") >= n_jobs);
    // Transport: job collectives moved real frames.
    assert!(counter("net.tx.msgs") > 0);
    assert!(counter("net.tx.bytes") > 0);
    // The always-on transport ledger rides along even where obs
    // collection has nothing (same series the final report prints).
    assert!(counter("world.comm.bytes_sent") > 0);

    let hist_count = |name: &str| {
        snap.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("metrics response lacks histogram {name}"))
    };
    assert!(hist_count("exec.execute_us") >= pes as u64 * n_jobs);
    assert!(hist_count("sched.queue_wait_ms") >= n_jobs);
    assert!(hist_count("net.frame.bytes") > 0);

    // The embedded Prometheus rendering exposes the same series under
    // sanitized names.
    let prom = snap
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prometheus text");
    assert!(prom.contains("# TYPE exec_jobs counter"));
    assert!(prom.contains("# TYPE net_frame_bytes histogram"));
    assert!(prom.contains("world_comm_bytes_sent"));

    client.shutdown().expect("shutdown");
    world.join().expect("world joins");
}

/// Each thread that records keeps its trace ring for the life of the
/// process, so a thread per job would add a ring per PE per job. Slot
/// workers are persistent: however many traced jobs a client runs, their
/// spans come from the same threads — each PE's slot worker, plus rank
/// 0's daemon loop for the `queue`/`admit` lanes.
#[test]
fn traced_jobs_reuse_the_same_threads() {
    ccheck_obs::set_enabled(true);
    // A tenant no other test uses: only this world's spans carry it.
    let tenant = "tid-pin";
    let (addr, world) = start_world(
        2,
        ServiceConfig {
            max_inflight: 2,
            ..ServiceConfig::default()
        },
    );
    let mut client = connect(addr);
    let tids_after = |client: &mut ServiceClient, jobs: u64| {
        for seed in 0..jobs {
            let spec = JobSpec {
                op: [JobOp::Reduce, JobOp::Sort, JobOp::Zip][seed as usize % 3],
                n: 300,
                keys: 17,
                seed,
                tenant: Some(tenant.into()),
                ..JobSpec::default()
            };
            client.run(&spec).expect("receipt");
        }
        let marker = format!("@{tenant}#");
        let tids: std::collections::BTreeSet<u32> = ccheck_obs::trace_snapshot()
            .events
            .iter()
            .filter(|ev| ev.name.contains(&marker))
            .map(|ev| ev.tid)
            .collect();
        tids.len()
    };
    let few = tids_after(&mut client, 3);
    let many = tids_after(&mut client, 12);
    client.shutdown().expect("shutdown");
    world.join().expect("world joins");
    assert_eq!(few, 3, "two slot workers and rank 0's loop");
    assert_eq!(
        many, few,
        "15 traced jobs recorded on more threads than 3 did"
    );
}
