//! The service workloads' machinery: an in-process service world on the
//! TCP loopback backend with a ledger, closed-loop clients, timed rounds,
//! the restart/cold-start set-up measurement, and the correctness
//! preflight against standalone `execute_job`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccheck_net::{run_on, Backend};
use ccheck_service::{
    execute_job, run_service_world, JobOp, JobSpec, Receipt, ServiceClient, ServiceConfig,
    ServiceSummary, Verdict,
};

use crate::specs::{self, SvcShape, PES};
use crate::trace::{Trace, NONE};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// A running service world (one thread per PE, one process) and how to
/// reach it.
pub struct World {
    addr: String,
    handle: JoinHandle<Vec<ServiceSummary>>,
}

impl World {
    /// Start a `PES`-PE world on `Backend::TcpLoopback` with its ledger at
    /// `ledger` (replayed if it exists), and wait for its listener.
    pub fn start(ledger: &Path) -> World {
        let (tx, rx) = mpsc::channel();
        let cfg = ServiceConfig {
            announce: Some(tx),
            // Closed-loop clients never queue more than one job each.
            queue_cap: 64,
            ledger_path: Some(ledger.to_path_buf()),
            ..ServiceConfig::default()
        };
        let handle = std::thread::Builder::new()
            .name("perf-ladder-world".into())
            .spawn(move || run_service_world(Backend::TcpLoopback, PES, &cfg))
            .expect("spawn service world");
        let addr = rx
            .recv_timeout(CONNECT_TIMEOUT)
            .expect("service world announces its address")
            .to_string();
        World { addr, handle }
    }

    pub fn connect(&self) -> ServiceClient {
        ServiceClient::connect_with_retry(&self.addr, CONNECT_TIMEOUT)
            .expect("connect to the service world")
    }

    /// Drain and stop the world; waits for every PE thread.
    pub fn stop(self) {
        self.connect().shutdown().expect("request shutdown");
        self.handle.join().expect("service world exits cleanly");
    }
}

/// What the client saw of one job.
pub struct JobRecord {
    pub spec_n: u64,
    pub op: JobOp,
    pub submit_start: Instant,
    pub submit_done: Instant,
    pub wait_done: Instant,
    /// The receipt, or why there is none (error, refusal).
    pub outcome: Result<Receipt, String>,
}

fn millis(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

impl JobRecord {
    /// Submit to receipt, as the client saw it.
    pub fn latency_ms(&self) -> f64 {
        millis(self.submit_start, self.wait_done)
    }

    pub fn submit_ms(&self) -> f64 {
        millis(self.submit_start, self.submit_done)
    }

    pub fn wait_ms(&self) -> f64 {
        millis(self.submit_done, self.wait_done)
    }

    /// A clean job succeeded iff its receipt says `Verified`.
    pub fn verified(&self) -> bool {
        matches!(&self.outcome, Ok(r) if r.verdict == Verdict::Verified)
    }
}

/// Submit `spec` and block for its receipt, as `ServiceClient::run` does,
/// noting when the submit call returned.
pub fn run_job(client: &mut ServiceClient, spec: &JobSpec) -> JobRecord {
    let submit_start = Instant::now();
    let submitted = client.submit(spec);
    let submit_done = Instant::now();
    let outcome = submitted
        .and_then(|id| client.wait(id))
        .map_err(|e| e.to_string());
    JobRecord {
        spec_n: spec.n,
        op: spec.op,
        submit_start,
        submit_done,
        wait_done: Instant::now(),
        outcome,
    }
}

/// Spans of one job: `job` → `submit`, `wait`; under `wait`, the phases
/// the receipt reports, laid end to end from the submit's return
/// (`queue_wait`, `exec`, `check`, `receipt_other`).
fn record_job_spans(trace: &mut Trace, job: u64, rec: &JobRecord) {
    let (t0, t1, t2) = (
        trace.at(rec.submit_start),
        trace.at(rec.submit_done),
        trace.at(rec.wait_done),
    );
    let root = trace.push("job", t0, t2, NONE, job);
    trace.push("submit", t0, t1, root, job);
    let wait = trace.push("wait", t1, t2, root, job);
    let Ok(receipt) = &rec.outcome else { return };
    let timing = receipt.timing.unwrap_or_default();
    let other = receipt
        .wall_ms
        .saturating_sub(timing.exec_ms + timing.check_ms);
    let mut at = t1;
    for (name, ms) in [
        ("queue_wait", timing.queue_wait_ms),
        ("exec", timing.exec_ms),
        ("check", timing.check_ms),
        ("receipt_other", other),
    ] {
        trace.push(name, at, at + ms * 1000, wait, job);
        at += ms * 1000;
    }
}

/// One timed round: `jobs` jobs starting at job index `first`, pulled off
/// a shared counter by the closed-loop `clients`. With `trace`, every
/// client records spans into a buffer pre-sized for its share.
pub struct Round {
    pub wall_s: f64,
    pub jobs: Vec<JobRecord>,
}

pub fn run_round(
    clients: &mut [ServiceClient],
    workload: &str,
    shape: &SvcShape,
    seed: u64,
    first: u64,
    jobs: u64,
    trace: Option<&mut Trace>,
) -> Round {
    let next = AtomicU64::new(first);
    // Client buffers share the workload trace's clock.
    let epoch = trace.as_ref().map(|t| t.epoch());
    let t0 = Instant::now();
    let per_client: Vec<(Vec<JobRecord>, Option<Trace>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(jobs as usize);
                    let mut spans =
                        epoch.map(|epoch| Trace::with_capacity(epoch, 7 * jobs as usize));
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= first + jobs {
                            return (mine, spans);
                        }
                        let rec = run_job(client, &specs::job_spec(workload, shape, seed, index));
                        if let Some(spans) = &mut spans {
                            record_job_spans(spans, index, &rec);
                        }
                        mine.push(rec);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut all = Vec::with_capacity(jobs as usize);
    let mut trace = trace;
    for (records, spans) in per_client {
        all.extend(records);
        if let (Some(trace), Some(spans)) = (trace.as_deref_mut(), spans) {
            trace.absorb(spans);
        }
    }
    Round { wall_s, jobs: all }
}

/// Where a workload process keeps its ledgers; removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(out_dir: &Path, workload: &str) -> Scratch {
        let dir = out_dir.join(format!("scratch-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch { dir }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Time from starting a world on `ledger` to the first receipt of an
/// `n = 100` job, then stop the world. With a replayed ledger this is the
/// restart path; with a fresh one, the cold start.
pub fn time_to_first_receipt(ledger: &Path, seed: u64) -> Result<f64, String> {
    let spec = JobSpec {
        n: 100,
        keys: 11,
        seed,
        ..JobSpec::default()
    };
    let t0 = Instant::now();
    let world = World::start(ledger);
    let outcome = world.connect().run(&spec);
    let elapsed = t0.elapsed().as_secs_f64();
    world.stop();
    match outcome {
        Ok(r) if r.verdict == Verdict::Verified => Ok(elapsed),
        Ok(r) => Err(format!("first job came back {:?}", r.verdict)),
        Err(e) => Err(e.to_string()),
    }
}

/// One preflight finding: what was checked and whether it held.
pub struct Check {
    pub what: String,
    pub ok: bool,
}

/// Run the workload's preflight specs once through the service and once
/// via standalone `execute_job` on a bare world of the same backend.
/// Clean jobs must come back `Verified` both ways with equal digest and
/// equal `comm.total_bytes`; a faulted job must not come back `Verified`
/// either way. Returns the findings and the service receipts (clean ones
/// feed the `net.job_*` counts).
///
/// `fault_must_verify` inverts the fault expectation: the harness's own
/// negative control, which must make the run fail.
pub fn preflight(
    client: &mut ServiceClient,
    specs: &[JobSpec],
    fault_must_verify: bool,
) -> (Vec<Check>, Vec<Receipt>) {
    let via_service: Vec<Result<Receipt, String>> = specs
        .iter()
        .map(|spec| client.run(spec).map_err(|e| e.to_string()))
        .collect();
    // A world of its own per spec: a bare communicator's statistics run
    // on from job to job, and a receipt reports them whole.
    let standalone: Vec<Receipt> = specs
        .iter()
        .map(|spec| {
            run_on(Backend::TcpLoopback, PES, |comm| execute_job(comm, 1, spec)).swap_remove(0)
        })
        .collect();

    let mut checks = Vec::new();
    let mut receipts = Vec::new();
    for ((spec, served), alone) in specs.iter().zip(via_service).zip(&standalone) {
        let label = format!(
            "{} chunk={}{}",
            spec.op.name(),
            spec.chunk,
            if spec.fault.is_some() {
                " fault=bitflip"
            } else {
                ""
            }
        );
        let served = match served {
            Ok(r) => r,
            Err(e) => {
                checks.push(Check {
                    what: format!("{label}: service answered with a receipt ({e})"),
                    ok: false,
                });
                continue;
            }
        };
        if spec.fault.is_some() {
            let caught = served.verdict != Verdict::Verified && alone.verdict != Verdict::Verified;
            checks.push(Check {
                what: format!(
                    "{label}: not Verified (service {:?}, standalone {:?})",
                    served.verdict, alone.verdict
                ),
                ok: caught != fault_must_verify,
            });
            continue;
        }
        checks.push(Check {
            what: format!(
                "{label}: Verified (service {:?}, standalone {:?})",
                served.verdict, alone.verdict
            ),
            ok: served.verdict == Verdict::Verified && alone.verdict == Verdict::Verified,
        });
        checks.push(Check {
            what: format!("{label}: service digest == standalone digest"),
            ok: served.digest == alone.digest,
        });
        let bytes = |r: &Receipt| r.comm.map(|c| c.total_bytes);
        checks.push(Check {
            what: format!(
                "{label}: comm.total_bytes equal ({:?} vs {:?})",
                bytes(&served),
                bytes(alone)
            ),
            ok: bytes(&served).is_some() && bytes(&served) == bytes(alone),
        });
        receipts.push(served);
    }
    (checks, receipts)
}
