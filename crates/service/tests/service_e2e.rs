//! End-to-end service tests — the PR's acceptance demo, in test form:
//! a 4-PE world running the service accepts concurrently submitted
//! jobs, executes them with interleaved collectives over one shared
//! transport, and every receipt's verdict + per-job communication
//! volume matches the same job run standalone on a dedicated world —
//! on both the local and the TCP transport.

use std::sync::mpsc;
use std::time::Duration;

use ccheck_net::Backend;
use ccheck_service::{
    execute_job, run_service_world, FaultSpec, JobOp, JobSpec, Receipt, ServiceClient,
    ServiceConfig, Verdict,
};

/// Start a `p`-PE service world on `backend` in a background thread;
/// returns (client address, world join handle).
fn start_world(
    backend: Backend,
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
    let world = std::thread::spawn(move || run_service_world(backend, p, &cfg));
    let addr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("service never announced its address");
    (addr, world)
}

fn connect(addr: std::net::SocketAddr) -> ServiceClient {
    ServiceClient::connect_with_retry(&addr.to_string(), Duration::from_secs(10))
        .expect("client connects")
}

/// Run `spec` standalone on a dedicated `p`-PE world (same backend) and
/// return rank 0's receipt.
fn standalone(backend: Backend, p: usize, job_id: u64, spec: &JobSpec) -> Receipt {
    let spec = spec.clone();
    let receipts = ccheck_net::run_on(backend, p, move |comm| execute_job(comm, job_id, &spec));
    receipts.into_iter().next().expect("rank 0 receipt")
}

fn mixed_specs() -> Vec<JobSpec> {
    vec![
        // One-shot sum aggregation.
        JobSpec {
            op: JobOp::Reduce,
            n: 6_000,
            keys: 151,
            seed: 41,
            ..JobSpec::default()
        },
        // Chunked streaming sort.
        JobSpec {
            op: JobOp::Sort,
            n: 5_000,
            keys: 1 << 20,
            seed: 42,
            chunk: 512,
            ..JobSpec::default()
        },
        // One-shot zip.
        JobSpec {
            op: JobOp::Zip,
            n: 4_000,
            seed: 43,
            iterations: 2,
            ..JobSpec::default()
        },
    ]
}

#[test]
fn concurrent_receipts_match_standalone_both_transports() {
    for backend in [Backend::Local, Backend::TcpLoopback] {
        let p = 4;
        let (addr, world) = start_world(backend, p, ServiceConfig::default());

        // Submit all jobs concurrently, one client connection each, so
        // their collectives genuinely interleave over the shared
        // transport (max_inflight = 4 admits all three at once).
        let specs = mixed_specs();
        let receipts: Vec<Receipt> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let spec = spec.clone();
                    scope.spawn(move || {
                        let mut client = connect(addr);
                        client.run(&spec).expect("job runs to a receipt")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        connect(addr).shutdown().expect("shutdown accepted");
        let summaries = world.join().expect("world exits cleanly");
        assert_eq!(summaries[0].jobs_run, 3, "{backend:?}");
        assert!(summaries[0].stats.is_some());

        for (spec, receipt) in specs.iter().zip(&receipts) {
            assert_eq!(receipt.verdict, Verdict::Verified, "{backend:?} {spec:?}");
            let solo = standalone(backend, p, receipt.job_id, spec);
            assert_eq!(receipt.verdict, solo.verdict, "{backend:?}");
            assert_eq!(receipt.digest, solo.digest, "{backend:?}");
            assert_eq!(receipt.output_elems, solo.output_elems, "{backend:?}");
            // The acceptance bar: per-job communication volume under the
            // service is byte-for-byte the standalone volume.
            assert_eq!(
                receipt.comm, solo.comm,
                "{backend:?} {:?}: interleaved job volume differs from standalone",
                spec.op
            );
        }
    }
}

#[test]
fn corrupted_job_flags_while_concurrent_clean_jobs_verify() {
    // Satellite: service-level fault injection with the zip and sort
    // manipulators — the corrupted jobs must come back Rejected/FellBack
    // while clean jobs running *at the same time* still verify.
    let (addr, world) = start_world(Backend::Local, 4, ServiceConfig::default());

    let jobs: Vec<(JobSpec, Verdict)> = vec![
        (
            // Clean reduce — must stay Verified despite the chaos around it.
            JobSpec {
                op: JobOp::Reduce,
                n: 6_000,
                keys: 97,
                seed: 7,
                ..JobSpec::default()
            },
            Verdict::Verified,
        ),
        (
            // Sorted-output corruption (multiset damage): one-shot sort
            // retries, then falls back to the reference sort.
            JobSpec {
                op: JobOp::Sort,
                n: 4_000,
                keys: 1 << 20,
                seed: 8,
                max_retries: 1,
                fault: Some(FaultSpec {
                    kind: "dupneighbor".into(),
                    seed: 3,
                }),
                ..JobSpec::default()
            },
            Verdict::FellBack,
        ),
        (
            // Zipped-output corruption (pair swap): zip has no fallback,
            // so the receipt must say Rejected.
            JobSpec {
                op: JobOp::Zip,
                n: 4_000,
                seed: 9,
                fault: Some(FaultSpec {
                    kind: "swappairs".into(),
                    seed: 5,
                }),
                ..JobSpec::default()
            },
            Verdict::Rejected,
        ),
        (
            // Clean chunked sort, also concurrent.
            JobSpec {
                op: JobOp::Sort,
                n: 4_000,
                keys: 1 << 20,
                seed: 10,
                chunk: 256,
                ..JobSpec::default()
            },
            Verdict::Verified,
        ),
    ];

    let receipts: Vec<(Receipt, Verdict)> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(spec, expected)| {
                let spec = spec.clone();
                let expected = *expected;
                scope.spawn(move || {
                    let mut client = connect(addr);
                    (client.run(&spec).expect("receipt"), expected)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    connect(addr).shutdown().expect("shutdown");
    world.join().expect("world exits");

    for (receipt, expected) in &receipts {
        assert_eq!(
            receipt.verdict, *expected,
            "job {} ({:?})",
            receipt.job_id, receipt.op
        );
    }
    // The fallback result is trustworthy, the rejected one is not.
    assert!(receipts
        .iter()
        .all(|(r, _)| (r.verdict != Verdict::Rejected) == r.verdict.result_ok()));
}

#[test]
fn backpressure_refuses_when_queue_full() {
    let cfg = ServiceConfig {
        max_inflight: 1,
        queue_cap: 1,
        ..ServiceConfig::default()
    };
    let (addr, world) = start_world(Backend::Local, 2, cfg);
    let mut client = connect(addr);

    // Flood: with one slot and a one-deep queue, rapid submissions must
    // eventually bounce with `busy`.
    let spec = JobSpec {
        op: JobOp::Sort,
        n: 50_000,
        keys: 1 << 20,
        seed: 3,
        ..JobSpec::default()
    };
    let mut accepted = Vec::new();
    let mut saw_busy = false;
    for _ in 0..50 {
        match client.submit(&spec) {
            Ok(id) => accepted.push(id),
            Err(ccheck_service::ServiceError::Refused(msg)) => {
                assert!(msg.contains("busy"), "{msg}");
                saw_busy = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(saw_busy, "queue never filled despite 50 rapid submissions");
    // Everything that was accepted still completes and verifies.
    for id in accepted {
        let receipt = client.wait(id).expect("accepted job completes");
        assert_eq!(receipt.verdict, Verdict::Verified);
    }
    client.shutdown().expect("shutdown");
    world.join().expect("world exits");
}

#[test]
fn protocol_errors_are_answered_not_fatal() {
    use std::io::{BufRead, BufReader, Write};

    let (addr, world) = start_world(Backend::Local, 2, ServiceConfig::default());
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();

    // Garbage, unknown command, bad spec: each gets an error response
    // and the connection survives.
    for request in [
        "this is not json\n",
        "{\"cmd\":\"frobnicate\"}\n",
        "{\"cmd\":\"submit\",\"job\":{\"op\":\"join\"}}\n",
        "{\"cmd\":\"submit\",\"job\":{\"n\":0}}\n",
        "{\"cmd\":\"submit\",\"job\":{\"fault\":{\"kind\":\"nosuch\"}}}\n",
        "{\"cmd\":\"poll\",\"id\":999}\n",
    ] {
        stream.write_all(request.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"ok\":false"),
            "request {request:?} should be refused, got {line:?}"
        );
    }

    // And a well-formed job on the very same connection still works.
    stream
        .write_all(b"{\"cmd\":\"submit\",\"job\":{\"op\":\"reduce\",\"n\":2000,\"keys\":53}}\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");

    let mut client = connect(addr);
    client.shutdown().expect("shutdown");
    world.join().expect("world exits");
}

/// Every slot cycles through at least two of the job tag scopes, which
/// bounds `--max-inflight`: past the bound `ccheck-serve` refuses the
/// flag as a usage error (exit 2) before it starts a world, and at the
/// bound it accepts it.
#[test]
fn max_inflight_beyond_the_scope_space_is_a_usage_error() {
    let serve = |max_inflight: usize| {
        std::process::Command::new(env!("CARGO_BIN_EXE_ccheck-serve"))
            .args(["--max-inflight", &max_inflight.to_string(), "--pes", "0"])
            .output()
            .expect("run ccheck-serve")
    };
    let out = serve(200);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!(
            "--max-inflight expects an integer in 1..={}",
            ccheck_service::MAX_INFLIGHT
        )),
        "{stderr}"
    );
    // At the bound the flag parses: the run then stops at the next
    // (deliberately bad) flag instead.
    let out = serve(ccheck_service::MAX_INFLIGHT);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--pes expects"));
}
