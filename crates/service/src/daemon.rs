//! The service daemon: one long-running SPMD loop per PE.
//!
//! Architecture (see the crate docs for the wire protocols):
//!
//! ```text
//!             clients (line-JSON over TCP, PE 0 only)
//!                │ submit / poll / wait / shutdown
//!        ┌───────▼────────┐
//!        │ listener thread │──▶ registry (job → status/receipt)
//!        └───────┬────────┘
//!                │ submit queue (bounded)
//!        ┌───────▼────────┐   control scope (broadcast)
//!  PE 0: │  daemon loop    │◀═══════════════════════════════▶ PE 1..p
//!        └──┬──────────▲──┘
//!    Admit  │          │ (slot, sealed receipt)   PE 0 only
//!  (job,    │          │
//!   slot)┌──▼──────────┴──┐
//!        │ slot workers    │  one thread per slot, fed over a channel;
//!        └────────────────┘  each job on its own scoped communicator
//!                            (CommMux)
//! ```
//!
//! **Slot workers.** A slot's worker thread starts at the slot's first
//! admission and runs the slot's jobs one after another, on every PE; PE
//! 0's worker seals each receipt and reports `(slot, sealed receipt)` to
//! the daemon loop, which frees the slot before it publishes the receipt.
//! A worker retires after a job of at least `HEAVY_JOB_ELEMS` elements
//! and the slot's next job starts a fresh one, so a large job's freed
//! heap is not pinned by a long-lived thread's allocator cache.
//!
//! **Determinism.** Only PE 0 makes scheduling decisions; every decision
//! is broadcast on the control scope, so all PEs admit the same jobs to
//! the same slots in the same order. Job execution itself interleaves
//! freely (slot workers over scoped communicators), which is safe
//! because scopes are tag-isolated. Admission needs no barrier: every PE
//! counts the same admissions per slot, and a slot's `g`-th job runs in
//! scope `job_scope(slot, g)`, which differs from the scope of the
//! slot's previous job. PE 0 admits a slot's next job only once the
//! previous one finished on PE 0, and that job's final collective needs
//! every PE to have started it — so by the time a scope id comes round
//! again (two or more generations later) every PE has left the job that
//! last used it. A PE that is still finishing a slot's previous job
//! finds the next job's early packets stashed in the mux.
//!
//! **Backpressure.** At most `max_inflight` jobs execute concurrently
//! (that many slot workers per PE, at most [`MAX_INFLIGHT`]); beyond that,
//! submissions queue up to `queue_cap`, and further submissions are
//! refused with a `busy` error — under the non-FIFO policies the
//! refusal carries the scheduler's retry-after hint, so the client
//! knows when capacity is expected to free up.
//!
//! **Waiting.** No thread waits by sleeping: the scheduling loop, the
//! `wait`/`watch` handlers and the heartbeat senders park on a `Wake`
//! (generation counter + condvar) that the event they wait for moves,
//! and the listener blocks in `accept` until shutdown connects to it.
//! `docs/ARCHITECTURE.md` names the wake edges.
//!
//! **Scheduling.** Which queued job a freed slot runs is the
//! [`crate::sched`] subsystem's decision: PE 0 drives a
//! [`SchedCore`] (policy + tenant quotas + deadline expiry + adaptive
//! checker tuning) and broadcasts each pick; the default
//! [`crate::sched::PolicyCfg::Fifo`] reproduces the PR-4 loop exactly.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccheck_net::{Backend, Comm, NetError, StatsSnapshot, Tag};
use ccheck_obs::{HistogramSnapshot, HistoryPayload, HistoryReader, HistoryWriter};

use crate::exec::{execute_job_traced, validate_fault, TraceCtx};
use crate::health::{
    HealthCfg, HealthTracker, Heartbeat, Liveness, PeHealth, SampleRing, SlowJob, StragglerWatch,
    WatchSample,
};
use crate::job::{CtlMsg, JobSpec, JobStatus, Receipt, Verdict};
use crate::json::{self, Json};
use crate::ledger::Ledger;
use crate::sched::{PolicyCfg, SchedCore};
use crate::slo::{AlertEvent, SloEngine};

/// The health plane's dedicated tag scope: the very top of the scope
/// space, above every job scope.
const HEALTH_SCOPE: u64 = ccheck_net::scope::MAX_SCOPE;

/// Job scopes are `1..=JOB_SCOPES`: everything between the control
/// scope (0) and [`HEALTH_SCOPE`].
const JOB_SCOPES: u64 = HEALTH_SCOPE - 1;

/// Largest `max_inflight`: each slot cycles through
/// `⌊JOB_SCOPES / max_inflight⌋` scope generations, and barrier-free
/// admission needs at least two (see the module docs).
pub const MAX_INFLIGHT: usize = (JOB_SCOPES / 2) as usize;

/// The tag scope of slot `slot`'s `generation`-th job (counted from 0)
/// in a service with `max_inflight` slots:
/// `1 + slot + max_inflight · (generation mod ⌊JOB_SCOPES / max_inflight⌋)`.
/// Consecutive generations of a slot never share a scope, and no two
/// slots ever do.
fn job_scope(slot: usize, generation: u64, max_inflight: usize) -> u64 {
    let generations = JOB_SCOPES / max_inflight as u64;
    1 + slot as u64 + max_inflight as u64 * (generation % generations)
}

/// The one message tag on the health scope.
const HEARTBEAT_TAG: Tag = Tag(1);

/// Service configuration (identical on every PE; the listener fields
/// are only used by rank 0).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Client listener bind address (rank 0). `"127.0.0.1:0"` picks an
    /// ephemeral port; discover it via `addr_file` or `announce`.
    pub listen: String,
    /// If set, rank 0 writes the bound listener address to this file
    /// (atomically, via a temp file) once it is accepting connections.
    pub addr_file: Option<PathBuf>,
    /// If set, rank 0 sends the bound listener address here — the
    /// in-process discovery path for tests and benchmarks.
    pub announce: Option<mpsc::Sender<SocketAddr>>,
    /// Maximum concurrently executing jobs (= slot workers per PE), at
    /// most [`MAX_INFLIGHT`] (every slot needs two tag scopes).
    pub max_inflight: usize,
    /// Maximum queued-but-not-admitted jobs before submissions are
    /// refused with `busy`.
    pub queue_cap: usize,
    /// Completed receipts retained in memory for `poll`/`wait` (oldest
    /// evicted first) — bounds the registry of a long-lived service.
    /// With a ledger the invariant is *index resident, receipts on
    /// disk; resident receipts ≤ `receipt_cap`*: the ledger keeps an
    /// offset per record and reads an evicted or replayed receipt back
    /// from its file. Without one, clients should collect receipts
    /// promptly; polling an evicted job returns an unknown-id error.
    pub receipt_cap: usize,
    /// Which scheduling policy decides slot assignment. The default
    /// [`PolicyCfg::Fifo`] is byte-identical to the PR-4 admission loop.
    pub policy: PolicyCfg,
    /// If set, rank 0 opens (or creates) the durable receipt ledger at
    /// this path: completed receipts are sealed into per-tenant hash
    /// chains and appended to the log, an existing log is replayed on
    /// startup (restoring fetchable receipts, tenant aggregates, tuner
    /// rungs, and the id/admission counters), and `(tenant, job_id)`
    /// resubmissions are answered from the ledger without re-running
    /// (`docs/PROTOCOL.md` §6–§7). `None` keeps receipts in memory
    /// only.
    pub ledger_path: Option<PathBuf>,
    /// If set (identically on every PE), the world gathers its trace
    /// buffers at shutdown and rank 0 writes a Chrome `trace_event`
    /// JSON file here (load via `chrome://tracing` or Perfetto). Spans
    /// are only recorded while `CCHECK_OBS` collection is enabled.
    pub trace_out: Option<PathBuf>,
    /// Health-plane tuning: heartbeat cadence, the Suspect/Dead age
    /// thresholds, and the straggler multiplier (identical on every
    /// PE; the watchdog itself runs on rank 0).
    pub health: HealthCfg,
    /// If set, rank 0 opens (or reopens past any torn tail) the durable
    /// telemetry history at this path and appends every watch sample on
    /// the heartbeat cadence, every world-merged metrics snapshot, and
    /// every SLO alert transition (`docs/OBSERVABILITY.md` §9). On
    /// startup the existing file is replayed to refold the SLO window
    /// state, so burn rates continue across restarts exactly as if the
    /// service had never died.
    pub history_path: Option<PathBuf>,
    /// If set, rank 0 loads declarative SLO specs from this line-JSON
    /// file ([`crate::slo::parse_specs`]) and evaluates them against
    /// the live sample stream, emitting durable alerts into the
    /// history (when configured), warn logs, and the
    /// `slo.budget_remaining.*` / `slo.breaches_total` metrics.
    pub slo_path: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            listen: "127.0.0.1:0".into(),
            addr_file: None,
            announce: None,
            max_inflight: 4,
            queue_cap: 64,
            receipt_cap: 4096,
            policy: PolicyCfg::Fifo,
            ledger_path: None,
            trace_out: None,
            health: HealthCfg::default(),
            history_path: None,
            slo_path: None,
        }
    }
}

/// Per-tenant outcome aggregates for the final report. Maintained
/// incrementally on completion, so they stay exact even after old
/// receipts are evicted under `receipt_cap`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantAgg {
    /// Completed jobs.
    pub jobs: u64,
    /// `Verified` receipts.
    pub verified: u64,
    /// `VerifiedAfterRetry` receipts.
    pub retried: u64,
    /// `FellBack` receipts.
    pub fellback: u64,
    /// `Rejected` receipts.
    pub rejected: u64,
    /// Queued jobs refused (missed deadlines).
    pub refused: u64,
    /// Sum of per-job total communication bytes.
    pub total_bytes: u64,
    /// Sum of per-job wall milliseconds.
    pub wall_ms: u64,
}

impl TenantAgg {
    fn absorb(&mut self, receipt: &Receipt) {
        self.jobs += 1;
        match receipt.verdict {
            Verdict::Verified => self.verified += 1,
            Verdict::VerifiedAfterRetry(_) => self.retried += 1,
            Verdict::FellBack => self.fellback += 1,
            Verdict::Rejected => self.rejected += 1,
        }
        self.total_bytes += receipt.comm.map_or(0, |c| c.total_bytes);
        self.wall_ms += receipt.wall_ms;
    }
}

/// What [`run_service`] reports after a clean shutdown.
#[derive(Debug, Clone)]
pub struct ServiceSummary {
    /// Jobs admitted and executed by this world.
    pub jobs_run: u64,
    /// Rank 0: the gathered whole-service per-PE communication totals
    /// (control plane plus every job). `None` on other ranks.
    pub stats: Option<StatsSnapshot>,
    /// Rank 0: every completed job's receipt, in job-id order (capped
    /// by `receipt_cap`; the aggregates below stay exact regardless).
    pub receipts: Vec<crate::job::Receipt>,
    /// Rank 0: per-tenant outcome breakdown, sorted by tenant (the
    /// anonymous default tenant reports as `""`).
    pub tenants: Vec<(String, TenantAgg)>,
    /// Rank 0: the scheduling policy that ran.
    pub policy: &'static str,
    /// Rank 0: queued jobs refused for missed deadlines.
    pub refused: u64,
    /// Rank 0: jobs admitted over their tenant's inflight quota by
    /// work stealing.
    pub stolen: u64,
    /// Payload bytes this rank's registry folded back when retiring
    /// finished job scopes (on the in-process backend all PEs share one
    /// registry, so rank 0 carries the whole world's figure).
    pub retired_scope_bytes: u64,
    /// Wall time from service start to clean shutdown on this rank —
    /// the denominator of the final report's jobs-per-second figure.
    pub elapsed: Duration,
}

type Registry = Arc<Mutex<HashMap<u64, JobStatus>>>;

/// The daemon's one wake primitive: a generation counter under a mutex
/// plus a condvar, so no thread waits by sleeping. A waiter reads the
/// generation *before* it checks the state it waits on and then blocks
/// only while the generation is still the one it read — a `notify`
/// landing between the check and the wait has already moved the
/// counter, so it is never lost.
#[derive(Default)]
struct Wake {
    generation: Mutex<u64>,
    moved: Condvar,
}

impl Wake {
    fn generation(&self) -> u64 {
        *self.generation.lock().expect("wake poisoned")
    }

    fn notify(&self) {
        *self.generation.lock().expect("wake poisoned") += 1;
        self.moved.notify_all();
    }

    /// Block until the generation is no longer `seen`, or for `timeout`
    /// if one is given.
    fn wait_past(&self, seen: u64, timeout: Option<Duration>) {
        let generation = self.generation.lock().expect("wake poisoned");
        match timeout {
            None => drop(
                self.moved
                    .wait_while(generation, |g| *g == seen)
                    .expect("wake poisoned"),
            ),
            Some(timeout) => drop(
                self.moved
                    .wait_timeout_while(generation, timeout, |g| *g == seen)
                    .expect("wake poisoned"),
            ),
        }
    }
}

/// Passes of PE 0's scheduling loop (`service.sched.wakeups`): an idle
/// daemon makes one per watch-sample tick, a busy one a few per job.
fn sched_wakeups() -> &'static ccheck_obs::Counter {
    static WAKEUPS: OnceLock<Arc<ccheck_obs::Counter>> = OnceLock::new();
    WAKEUPS.get_or_init(|| ccheck_obs::registry().counter("service.sched.wakeups"))
}

/// One admitted job, handed to its slot's worker.
struct Work {
    job_id: u64,
    seq: u64,
    queue_wait_ms: u64,
    spec: JobSpec,
    /// The job's scoped communicator, registered at admission.
    comm: Comm,
    trace_ctx: TraceCtx,
}

/// Jobs of at least this many elements hold buffers above glibc's
/// default mmap threshold (128 KiB of 16-byte pairs), and those come
/// from the worker's arena once the threshold has adapted upwards. The
/// small chunks a job frees last stay in the thread's allocator cache,
/// which only a thread exit flushes; sitting above the job's freed
/// buffers, they keep the arena from reusing or returning that space,
/// and a persistent worker's heap ratchets up job by job. A worker
/// therefore retires after such a job, and the slot's next job starts a
/// fresh one (measured on `svc-stream`: peak RSS +22 % without this).
const HEAVY_JOB_ELEMS: u64 = 1 << 13;

/// A slot's worker thread: it runs the slot's jobs one after another, in
/// admission order, until a heavy job retires it (see
/// [`HEAVY_JOB_ELEMS`]) or the service stops.
struct SlotWorker {
    /// `None` once the worker is retiring: it exits after the job it has.
    work: Option<mpsc::Sender<Work>>,
    handle: JoinHandle<()>,
}

/// Rank 0's report of a finished job: its slot and its sealed receipt.
type Finished = (usize, Receipt);

/// What every slot worker of a PE shares.
#[derive(Clone)]
struct WorkerCtx {
    inflight: Arc<AtomicU64>,
    root_stats: Arc<ccheck_net::CommStats>,
    retired_scope_bytes: Arc<AtomicU64>,
    /// Rank 0 only: the frontend that seals receipts, and the channel on
    /// which a worker reports `(slot, sealed receipt)` to the daemon loop.
    report: Option<(Arc<Frontend>, mpsc::Sender<Finished>)>,
}

impl SlotWorker {
    fn spawn(slot: usize, ctx: WorkerCtx) -> SlotWorker {
        let (work, jobs) = mpsc::channel::<Work>();
        let handle = std::thread::Builder::new()
            .name(format!("ccheck-slot-{slot}"))
            .spawn(move || {
                for job in jobs {
                    run_job(slot, job, &ctx);
                }
            })
            .expect("spawn slot worker");
        SlotWorker {
            work: Some(work),
            handle,
        }
    }

    /// Queue `job`; after a heavy one the worker retires.
    fn run(&mut self, job: Work) {
        let heavy = job.spec.n >= HEAVY_JOB_ELEMS;
        let work = self.work.as_ref().expect("an open slot worker");
        work.send(job).expect("slot worker alive");
        if heavy {
            self.work = None;
        }
    }

    /// Close the worker's queue and wait until it has run what it has.
    fn join(self) {
        drop(self.work);
        let _ = self.handle.join();
    }
}

/// One PE's job slots.
struct Slots {
    workers: Vec<Option<SlotWorker>>,
    /// Admissions per slot — counted alike on every PE, so the slot's
    /// next [`job_scope`] generation.
    admitted: Vec<u64>,
    /// The slots whose job has not reported back yet (read on rank 0
    /// only, where the reports arrive).
    busy: Vec<bool>,
    /// Rank 0: `(slot, sealed receipt)` from the workers.
    done: mpsc::Receiver<Finished>,
    ctx: WorkerCtx,
}

impl Slots {
    /// Hand an admitted job to slot `slot`'s worker, starting one if the
    /// slot has none or its worker retired. A retired worker is joined
    /// first, so its successor inherits the allocator arena it released
    /// instead of growing another.
    fn admit(&mut self, slot: usize, job: Work) {
        self.busy[slot] = true;
        let worker = &mut self.workers[slot];
        if worker.as_ref().is_some_and(|w| w.work.is_none()) {
            worker.take().expect("checked").join();
        }
        let ctx = &self.ctx;
        worker
            .get_or_insert_with(|| SlotWorker::spawn(slot, ctx.clone()))
            .run(job);
    }

    /// Rank 0: slot `slot`'s job reported back. A retiring worker is
    /// joined before the slot is offered again (see [`Slots::admit`]).
    fn free(&mut self, slot: usize) {
        if let Some(worker) = self.workers[slot].take_if(|w| w.work.is_none()) {
            worker.join();
        }
        self.busy[slot] = false;
    }

    /// Stop every worker once it has run the jobs it was handed.
    fn join_all(&mut self) {
        for worker in self.workers.iter_mut().filter_map(Option::take) {
            worker.join();
        }
    }
}

/// Run one admitted job on its slot's worker and, on rank 0, seal the
/// receipt and hand it to the daemon loop.
fn run_job(slot: usize, job: Work, ctx: &WorkerCtx) {
    let Work {
        job_id,
        seq,
        queue_wait_ms,
        spec,
        mut comm,
        trace_ctx,
    } = job;
    let mut receipt = execute_job_traced(&mut comm, job_id, &spec, Some(&trace_ctx));
    // The admission sequence travels in the Admit broadcast, so a
    // restarted world continues the ledger's numbering on every PE.
    receipt.admit_seq = seq;
    // So does the scheduler's queue-wait measurement: every PE stamps the
    // identical timing block the ledger will seal.
    if let Some(timing) = receipt.timing.as_mut() {
        timing.queue_wait_ms = queue_wait_ms;
    }
    drop(comm);
    ctx.inflight.fetch_sub(1, Ordering::Relaxed);
    // The receipt has captured the per-job volumes; retire the scope so a
    // long-lived service keeps its stats registry bounded (totals
    // preserved — the returned final snapshot feeds the rank's
    // retired-traffic tally).
    if let Some(snapshot) = ctx.root_stats.retire_scope(&format!("job-{job_id}")) {
        ctx.retired_scope_bytes
            .fetch_add(snapshot.total_bytes(), Ordering::Relaxed);
    }
    if let Some((fe, done)) = &ctx.report {
        let sealed = fe.record_done(job_id, receipt);
        // The daemon loop frees the slot, then publishes the receipt.
        let _ = done.send((slot, sealed));
        fe.sched_wake.notify();
    }
}

/// Shared state between PE 0's daemon loop and its listener threads.
struct Frontend {
    registry: Registry,
    /// The scheduler state machine: listener threads enqueue (or get
    /// refused) under this lock, the daemon loop picks, job workers
    /// feed completions back. Never held across another Frontend lock.
    sched: Mutex<SchedCore>,
    /// Service-clock epoch (all scheduler times are ms since this).
    start: Instant,
    next_id: AtomicU64,
    shutdown_requested: AtomicBool,
    /// Cleared by the daemon as the final fence before it broadcasts
    /// `Shutdown`: no submission that passed the `accepting` check can
    /// be lost (the daemon waits for `submitting` to reach zero and
    /// re-drains the queue before committing to shut down).
    accepting: AtomicBool,
    /// Number of submit handlers between the `accepting` check and the
    /// completed enqueue.
    submitting: AtomicUsize,
    stopping: AtomicBool,
    /// Wakes the scheduling loop: a completed enqueue (and `submitting`
    /// falling), a slot worker finishing, a parked `metrics`/`timeline`
    /// waiter, a shutdown request.
    sched_wake: Wake,
    /// Wakes `wait` handlers: a job finished (done or refused), or the
    /// daemon is stopping.
    status_wake: Wake,
    /// Wakes `watch` long-polls: a sample was pushed, or the daemon is
    /// stopping.
    sample_wake: Wake,
    /// Finished (done or refused) job ids in finish order, for
    /// registry eviction.
    done_order: Mutex<VecDeque<u64>>,
    receipt_cap: usize,
    /// Per-tenant outcome aggregates (exact across receipt eviction).
    agg: Mutex<BTreeMap<String, TenantAgg>>,
    /// The durable receipt ledger, when configured. Lock ordering: the
    /// ledger mutex is always taken alone, never while holding another
    /// Frontend lock.
    ledger: Option<Mutex<Ledger>>,
    /// Live (queued or running) jobs' idempotency keys: job id →
    /// `(tenant key, spec fingerprint)`. Lets a duplicate submission of
    /// an in-flight `(tenant, job_id)` be acknowledged instead of
    /// re-enqueued, and a conflicting one be refused.
    pending: Mutex<HashMap<u64, (String, String)>>,
    /// Admission sequence allocator. Starts at the ledger's replayed
    /// maximum so a restarted world continues the dead world's
    /// numbering (each Admit broadcasts its sequence number).
    admit_seq: AtomicU64,
    /// Clients waiting on a `metrics` response: the listener parks a
    /// sender here, the daemon loop broadcasts [`CtlMsg::Metrics`],
    /// gathers the world snapshot, and answers every waiter at once.
    metrics_waiters: Mutex<Vec<mpsc::Sender<Json>>>,
    /// Clients waiting on a `timeline` response, keyed by job id: the
    /// daemon loop broadcasts [`CtlMsg::Trace`], gathers the world's
    /// trace rings, and answers every waiter for that job at once.
    trace_waiters: Mutex<Vec<(u64, mpsc::Sender<Json>)>>,
    /// World size (for the `health` report).
    world: usize,
    /// Health-plane tuning (the watch-sample cadence and thresholds
    /// echoed in the `health` response).
    health_cfg: HealthCfg,
    /// The PE-0 watchdog: per-PE heartbeat ages and Healthy/Suspect/
    /// Dead classification. Fed by the collector thread and rank 0's
    /// own self-beat; read lock-free of any collective by `health`.
    health: Mutex<HealthTracker>,
    /// Last classification logged per PE, so liveness transitions are
    /// logged once per change rather than once per tick.
    pe_states: Mutex<Vec<Liveness>>,
    /// The straggler watch: per-op wall-time history and inflight
    /// admission times.
    straggler: Mutex<StragglerWatch>,
    /// Currently-flagged stragglers that are still running (cleared on
    /// completion), for the `health` response.
    slow_live: Mutex<Vec<SlowJob>>,
    /// The `watch` command's time-series ring of periodic samples.
    samples: Mutex<SampleRing>,
    /// Service-clock ms of the last pushed watch sample.
    last_sample_ms: AtomicU64,
    /// Jobs currently executing on this rank (shared with the Admit
    /// arm and job workers; also what rank 0's self-beat reports).
    inflight: Arc<AtomicU64>,
    /// Jobs completed since startup (receipts recorded).
    jobs_done: AtomicU64,
    /// Wall-time distribution of completed jobs, for the watch
    /// samples' p50/p95.
    wall_hist: Mutex<HistogramSnapshot>,
    /// The most recent metrics-derived lagging-PE verdict, if any.
    lagging: Mutex<Option<(usize, f64)>>,
    /// The durable telemetry history, when configured. Lock ordering:
    /// like the ledger, taken alone — tick() builds the sample and
    /// evaluates SLOs first, then appends under this lock.
    history: Option<Mutex<HistoryWriter>>,
    /// The SLO evaluator (empty when no `--slo` file). Lock ordering:
    /// taken alone.
    slo: Mutex<SloEngine>,
    /// Objectives currently firing — read lock-free by sample building
    /// and the `health` response.
    alerts_active: AtomicU64,
    /// Wall-clock ms of the last persisted metrics snapshot (rank 0
    /// persists its local registry on a slower cadence than samples).
    last_metrics_wall_ms: AtomicU64,
}

impl Frontend {
    /// Milliseconds on the service clock.
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Mark a finished job in the registry and evict the oldest
    /// finished entries beyond `receipt_cap` so the registry stays
    /// bounded over the service's lifetime.
    fn finish(&self, job_id: u64, status: JobStatus) {
        {
            let mut registry = self.registry.lock().expect("registry poisoned");
            let mut done_order = self.done_order.lock().expect("done order poisoned");
            registry.insert(job_id, status);
            done_order.push_back(job_id);
            while done_order.len() > self.receipt_cap {
                let evicted = done_order.pop_front().expect("non-empty");
                registry.remove(&evicted);
            }
        }
        self.status_wake.notify();
    }

    /// Mark the daemon stopped and release every parked `wait` and
    /// `watch` handler.
    fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        self.status_wake.notify();
        self.sample_wake.notify();
    }

    /// Record a completed job: seal it into the ledger first (the
    /// durable record is the authoritative one), then scheduler
    /// feedback (tenant accounting, adaptive tuner) and aggregates.
    /// Returns the sealed receipt, which the scheduling loop publishes
    /// with [`Frontend::finish`] once it has joined the worker.
    fn record_done(&self, job_id: u64, mut receipt: crate::job::Receipt) -> Receipt {
        // The §7 idempotency key is the *submitted* spec's fingerprint
        // (recorded at enqueue), not the broadcast spec's — an adaptive
        // job runs with tuner-resolved knobs, but resubmission dedupe
        // must match what the client sent.
        if let Some((_, fingerprint)) = self
            .pending
            .lock()
            .expect("pending poisoned")
            .remove(&job_id)
        {
            receipt.spec_fingerprint = Some(fingerprint);
        }
        if let Some(ledger) = &self.ledger {
            let mut ledger = ledger.lock().expect("ledger poisoned");
            match ledger.append(receipt.clone()) {
                Ok(sealed) => receipt = sealed,
                Err(e) => {
                    ccheck_obs::error!("service", "ledger append failed for job {job_id}: {e}")
                }
            }
        }
        self.sched
            .lock()
            .expect("scheduler poisoned")
            .complete(&receipt);
        // Health-plane bookkeeping: the wall time teaches the straggler
        // history, a flagged job stops being live, and the watch
        // samples' latency quantiles learn the completion.
        self.straggler
            .lock()
            .expect("straggler poisoned")
            .completed(job_id, receipt.wall_ms);
        self.slow_live
            .lock()
            .expect("slow live poisoned")
            .retain(|s| s.job_id != job_id);
        self.wall_hist
            .lock()
            .expect("wall hist poisoned")
            .observe(receipt.wall_ms.max(1));
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
        {
            let mut agg = self.agg.lock().expect("aggregates poisoned");
            agg.entry(receipt.tenant.clone().unwrap_or_default())
                .or_default()
                .absorb(&receipt);
        }
        receipt
    }

    /// Record a queued job the scheduler refused (deadline expiry).
    fn record_refused(&self, job_id: u64, tenant: &str, reason: String) {
        {
            let mut agg = self.agg.lock().expect("aggregates poisoned");
            agg.entry(tenant.to_string()).or_default().refused += 1;
        }
        self.pending
            .lock()
            .expect("pending poisoned")
            .remove(&job_id);
        self.finish(job_id, JobStatus::Refused(reason));
    }

    /// A job's client-visible status: the live registry first, then the
    /// ledger — replayed receipts stay fetchable across restarts and
    /// `receipt_cap` eviction (`docs/PROTOCOL.md` §6.4).
    fn status_of(&self, job_id: u64) -> Option<JobStatus> {
        if let Some(status) = self
            .registry
            .lock()
            .expect("registry poisoned")
            .get(&job_id)
        {
            return Some(status.clone());
        }
        let ledger = self.ledger.as_ref()?;
        let ledger = ledger.lock().expect("ledger poisoned");
        ledger.get(job_id).map(JobStatus::Done)
    }

    /// One watchdog pass, run from every pass of PE 0's scheduling loop
    /// (each event, and at least once per heartbeat interval): rank 0's
    /// self-beat, liveness-transition logging, gauge export, the
    /// straggler scan, and (on the heartbeat cadence) one `watch` sample
    /// pushed into the ring.
    fn tick(&self) {
        let now = self.now_ms();
        let self_beat = Heartbeat {
            rank: 0,
            uptime_ms: now,
            inflight: self.inflight.load(Ordering::Relaxed),
            last_admit_seq: self.admit_seq.load(Ordering::Relaxed),
            bye: false,
        };
        let (counts, report) = {
            let mut health = self.health.lock().expect("health poisoned");
            health.beat(&self_beat, now);
            health.export_gauges(now);
            (health.counts(now), health.report(now))
        };
        {
            let mut prev = self.pe_states.lock().expect("pe states poisoned");
            for pe in &report {
                if prev[pe.rank] != pe.state {
                    ccheck_obs::warn!(
                        "health",
                        "PE {} is now {} (heartbeat age {} ms{})",
                        pe.rank,
                        pe.state.name(),
                        pe.age_ms,
                        pe.exited
                            .as_deref()
                            .map(|r| format!(", {r}"))
                            .unwrap_or_default()
                    );
                    prev[pe.rank] = pe.state;
                }
            }
        }
        let slow = self
            .straggler
            .lock()
            .expect("straggler poisoned")
            .check(now);
        if !slow.is_empty() {
            for s in &slow {
                ccheck_obs::warn!(
                    "health",
                    "straggler: job {} ({}) running {} ms, threshold {} ms (op p95 {} ms)",
                    s.job_id,
                    s.op,
                    s.running_ms,
                    s.threshold_ms,
                    s.p95_ms
                );
                if ccheck_obs::enabled() {
                    ccheck_obs::registry().counter("health.stragglers").inc();
                    ccheck_obs::instant(&format!("straggler.job{}", s.job_id));
                }
            }
            self.slow_live
                .lock()
                .expect("slow live poisoned")
                .extend(slow);
        }
        // One watch sample per heartbeat interval (the tick itself runs
        // on every scheduling-loop pass).
        let interval = self.health_cfg.heartbeat_interval_ms.max(1);
        let last = self.last_sample_ms.load(Ordering::Acquire);
        if now >= last.saturating_add(interval)
            && self
                .last_sample_ms
                .compare_exchange(last, now, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            let (queue_depth, refused) = {
                let sched = self.sched.lock().expect("scheduler poisoned");
                (sched.queue_len() as u64, sched.refused())
            };
            let (p50_ms, p95_ms) = {
                let hist = self.wall_hist.lock().expect("wall hist poisoned");
                (hist.quantile(0.5), hist.quantile(0.95))
            };
            let (tenants, jobs_failed) = {
                let agg = self.agg.lock().expect("aggregates poisoned");
                (
                    agg.iter().map(|(t, a)| (t.clone(), a.jobs)).collect(),
                    agg.values().map(|a| a.fellback + a.rejected).sum(),
                )
            };
            let mut sample = WatchSample {
                seq: 0, // stamped by the ring below
                at_ms: now,
                wall_ms: ccheck_obs::unix_ms(),
                alerts: self.alerts_active.load(Ordering::Relaxed),
                jobs_done: self.jobs_done.load(Ordering::Relaxed),
                jobs_failed,
                jobs_refused: refused,
                queue_depth,
                inflight: self.inflight.load(Ordering::Relaxed),
                healthy: counts.0,
                suspect: counts.1,
                dead: counts.2,
                p50_ms,
                p95_ms,
                tenants,
            };
            sample.seq = self
                .samples
                .lock()
                .expect("samples poisoned")
                .push(sample.clone());
            self.sample_wake.notify();
            // SLO pass over the stamped sample: breach transitions get
            // warn logs here; gauges/counters update inside the engine.
            let events = {
                let mut slo = self.slo.lock().expect("slo poisoned");
                let events = slo.observe(&sample, true);
                self.alerts_active
                    .store(slo.active_count(), Ordering::Relaxed);
                events
            };
            for ev in &events {
                ccheck_obs::warn!(
                    "slo",
                    "{} {}: {} (burn {} permille)",
                    ev.slo,
                    if ev.firing { "FIRING" } else { "resolved" },
                    ev.detail,
                    ev.burn_permille
                );
            }
            self.persist_telemetry(&sample, &events);
        }
    }

    /// Append one tick's durable telemetry — the watch sample, any
    /// alert transitions, and (on a 10× slower cadence) rank 0's own
    /// metrics snapshot — then let the writer run its retention pass.
    /// No-op without `--history`.
    fn persist_telemetry(&self, sample: &WatchSample, events: &[AlertEvent]) {
        let Some(history) = &self.history else {
            return;
        };
        let mut history = history.lock().expect("history poisoned");
        let sample_json = sample.to_json().render();
        if let Err(e) = history.append_sample(sample.wall_ms, sample_json.as_bytes()) {
            ccheck_obs::error!("service", "history sample append failed: {e}");
        }
        for ev in events {
            if let Err(e) = history.append_alert(ev.at_ms, ev.to_json().render().as_bytes()) {
                ccheck_obs::error!("service", "history alert append failed: {e}");
            }
        }
        // Rank 0's local registry snapshot (the world-merged snapshot
        // additionally lands whenever a `metrics` gather runs).
        if ccheck_obs::enabled() {
            let cadence = self.health_cfg.heartbeat_interval_ms.max(1) * 10;
            let last = self.last_metrics_wall_ms.load(Ordering::Acquire);
            if sample.wall_ms >= last.saturating_add(cadence) {
                self.last_metrics_wall_ms
                    .store(sample.wall_ms, Ordering::Release);
                let snap = ccheck_obs::registry().snapshot();
                if let Err(e) = history.append_metrics(sample.wall_ms, &snap) {
                    ccheck_obs::error!("service", "history metrics append failed: {e}");
                }
            }
        }
        match history.maybe_compact(sample.wall_ms) {
            Ok(compacted) => {
                if compacted {
                    ccheck_obs::debug!("service", "history compacted ({:?})", history.path());
                }
            }
            Err(e) => ccheck_obs::error!("service", "history compaction failed: {e}"),
        }
    }
}

/// Run the service daemon on this communicator until a client requests
/// shutdown (and the queue has drained). SPMD: every PE of the world
/// calls this; rank 0 additionally serves the client socket.
pub fn run_service(comm: Comm, cfg: &ServiceConfig) -> ServiceSummary {
    assert!(
        (1..=MAX_INFLIGHT).contains(&cfg.max_inflight),
        "max_inflight must be in 1..={MAX_INFLIGHT}, got {}",
        cfg.max_inflight
    );
    let rank = comm.rank();
    let size = comm.size();
    let t_start = Instant::now();
    let mux = comm.into_mux();
    let mut ctl = mux.control();
    ccheck_obs::info!("service", "PE {rank}/{size}: service loop up");

    // Per-rank live counters, shared between the admission loop, job
    // workers, and this rank's heartbeat (rank 0's frontend holds the
    // same `inflight` for its self-beat and the `health` response).
    let inflight = Arc::new(AtomicU64::new(0));
    let last_seq = Arc::new(AtomicU64::new(0));

    // PE 0: client frontend.
    let mut frontend: Option<Arc<Frontend>> = None;
    let mut listener: Option<(JoinHandle<()>, SocketAddr)> = None;
    if rank == 0 {
        let mut sched = SchedCore::new(&cfg.policy, cfg.queue_cap, cfg.max_inflight);
        let mut agg: BTreeMap<String, TenantAgg> = BTreeMap::new();
        // Open and replay the ledger before accepting any client: the
        // restarted world must resume the dead one's adaptive-tuner
        // rungs, tenant aggregates, and id/admission numbering exactly
        // (`docs/PROTOCOL.md` §6.4).
        // The refold rides the replay as a visitor: the ledger keeps an
        // index, not the receipts, so nothing of the replayed log stays
        // resident past this call.
        let ledger = cfg.ledger_path.as_ref().map(|path| {
            Ledger::open_with(path, |receipt| {
                let tenant = receipt.tenant.clone().unwrap_or_default();
                sched.replay_verdict(&tenant, receipt.verdict);
                agg.entry(tenant).or_default().absorb(receipt);
            })
            .unwrap_or_else(|e| panic!("ccheck-serve: cannot open ledger {path:?}: {e}"))
        });
        let (mut next_id, mut admit_base) = (1, 0);
        // Watch samples publish *cumulative* completion counters, and
        // the SLO error-budget math differences them across its window.
        // Seeding `jobs_done` from the replayed ledger keeps the
        // counter monotone across a restart — otherwise the first live
        // sample would appear to un-complete every pre-crash job and
        // spuriously resolve a firing error-budget objective.
        let mut done_base = 0u64;
        if let Some(ledger) = &ledger {
            next_id = ledger.max_job_id() + 1;
            admit_base = ledger.max_admit_seq();
            done_base = ledger.len() as u64;
        }
        // SLO specs load before the history replay so the replay can
        // refold the declared objectives' window state.
        let mut slo_engine = SloEngine::new(match cfg.slo_path.as_ref() {
            None => Vec::new(),
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("ccheck-serve: cannot read SLO file {path:?}: {e}"));
                crate::slo::parse_specs(&text)
                    .unwrap_or_else(|e| panic!("ccheck-serve: bad SLO file {path:?}: {e}"))
            }
        });
        // Open the history at its valid prefix, replaying it through
        // the SLO engine in the same pass: samples refold the burn-rate
        // windows (silently — their transitions are already durable),
        // alert records refill the retained ring. After this, live
        // evaluation continues as if the restart never happened.
        let history = cfg.history_path.as_ref().map(|path| {
            let (mut samples, mut alerts) = (0u64, 0u64);
            let writer = HistoryWriter::open_with(path, |record| {
                let json = |bytes: &[u8]| {
                    std::str::from_utf8(bytes)
                        .ok()
                        .and_then(|t| crate::json::parse(t).ok())
                };
                match &record.payload {
                    HistoryPayload::Sample(bytes) => {
                        if let Some(sample) =
                            json(bytes).and_then(|j| WatchSample::from_json(&j).ok())
                        {
                            slo_engine.observe(&sample, false);
                            samples += 1;
                        }
                    }
                    HistoryPayload::Alert(bytes) => {
                        if let Some(ev) = json(bytes).and_then(|j| AlertEvent::from_json(&j).ok()) {
                            slo_engine.restore_event(ev);
                            alerts += 1;
                        }
                    }
                    HistoryPayload::Metrics(_) => {}
                }
            })
            .unwrap_or_else(|e| panic!("ccheck-serve: cannot open history {path:?}: {e}"));
            if writer.replayed() > 0 {
                ccheck_obs::info!(
                    "service",
                    "history {path:?}: replayed {} records ({samples} samples, \
                     {alerts} alerts) into {} SLOs",
                    writer.replayed(),
                    slo_engine.len()
                );
            }
            writer
        });
        let alerts_active = slo_engine.active_count();
        let fe = Arc::new(Frontend {
            registry: Arc::new(Mutex::new(HashMap::new())),
            sched: Mutex::new(sched),
            start: Instant::now(),
            next_id: AtomicU64::new(next_id),
            shutdown_requested: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            submitting: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
            sched_wake: Wake::default(),
            status_wake: Wake::default(),
            sample_wake: Wake::default(),
            done_order: Mutex::new(VecDeque::new()),
            receipt_cap: cfg.receipt_cap,
            agg: Mutex::new(agg),
            ledger: ledger.map(Mutex::new),
            pending: Mutex::new(HashMap::new()),
            admit_seq: AtomicU64::new(admit_base),
            metrics_waiters: Mutex::new(Vec::new()),
            trace_waiters: Mutex::new(Vec::new()),
            world: size,
            health_cfg: cfg.health.clone(),
            health: Mutex::new(HealthTracker::new(cfg.health.clone(), size, 0)),
            pe_states: Mutex::new(vec![Liveness::Healthy; size]),
            straggler: Mutex::new(StragglerWatch::new(&cfg.health)),
            slow_live: Mutex::new(Vec::new()),
            samples: Mutex::new(SampleRing::new(1024)),
            last_sample_ms: AtomicU64::new(0),
            inflight: Arc::clone(&inflight),
            jobs_done: AtomicU64::new(done_base),
            wall_hist: Mutex::new(HistogramSnapshot::new()),
            lagging: Mutex::new(None),
            history: history.map(Mutex::new),
            slo: Mutex::new(slo_engine),
            alerts_active: AtomicU64::new(alerts_active),
            last_metrics_wall_ms: AtomicU64::new(0),
        });
        listener = Some(spawn_listener(cfg, Arc::clone(&fe)));
        frontend = Some(fe);
    }

    // Health plane: heartbeats ride a dedicated comm scope so liveness
    // keeps flowing while the main loop blocks in a broadcast or a
    // collective. Non-zero ranks run a sender thread; rank 0 runs one
    // collector draining beats from *any* peer (a single stopped PE
    // must not starve the others' beats — that stall is the signal).
    // The senders' stop flag is a `Wake` whose generation leaves 0 at
    // teardown, so a sender between beats sleeps in a timed wait that
    // teardown cuts short.
    let hb_stop = Arc::new(Wake::default());
    let mut hb_handle: Option<JoinHandle<()>> = None;
    if size > 1 {
        let mut hb_comm = mux.scoped(HEALTH_SCOPE, "health");
        if rank == 0 {
            let fe = Arc::clone(frontend.as_ref().expect("rank 0 has a frontend"));
            hb_handle = Some(
                std::thread::Builder::new()
                    .name("ccheck-health-collect".into())
                    .spawn(move || {
                        let mut live = vec![true; size];
                        live[0] = false; // rank 0 self-beats directly
                        let mut remaining = size - 1;
                        while remaining > 0 {
                            match hb_comm.recv_any_or_disconnect::<Heartbeat>(HEARTBEAT_TAG) {
                                Ok((src, hb)) => {
                                    let now = fe.now_ms();
                                    fe.health.lock().expect("health poisoned").beat(&hb, now);
                                    if hb.bye && live[src] {
                                        live[src] = false;
                                        remaining -= 1;
                                    }
                                }
                                Err(NetError::Disconnected { peer }) => {
                                    if live[peer] {
                                        live[peer] = false;
                                        remaining -= 1;
                                        fe.health
                                            .lock()
                                            .expect("health poisoned")
                                            .mark_exited(peer, "connection lost");
                                        ccheck_obs::warn!(
                                            "health",
                                            "PE {peer}: heartbeat connection lost"
                                        );
                                    }
                                }
                                Err(NetError::Decode { from, .. }) => {
                                    ccheck_obs::warn!(
                                        "health",
                                        "malformed heartbeat from PE {from}"
                                    );
                                }
                                Err(_) => {
                                    // Whole-transport teardown (the local
                                    // backend reports this instead of
                                    // per-peer closes): every peer still
                                    // marked live is gone.
                                    let mut health = fe.health.lock().expect("health poisoned");
                                    for (peer, alive) in live.iter_mut().enumerate() {
                                        if *alive {
                                            *alive = false;
                                            health.mark_exited(peer, "transport torn down");
                                        }
                                    }
                                    remaining = 0;
                                }
                            }
                        }
                    })
                    .expect("spawn heartbeat collector"),
            );
        } else {
            let stop = Arc::clone(&hb_stop);
            let hb_inflight = Arc::clone(&inflight);
            let hb_last_seq = Arc::clone(&last_seq);
            let interval = cfg.health.heartbeat_interval_ms.max(1);
            let my_rank = rank as u64;
            hb_handle = Some(
                std::thread::Builder::new()
                    .name("ccheck-health-beat".into())
                    .spawn(move || {
                        let t0 = Instant::now();
                        loop {
                            let bye = stop.generation() != 0;
                            hb_comm.send(
                                0,
                                HEARTBEAT_TAG,
                                &Heartbeat {
                                    rank: my_rank,
                                    uptime_ms: t0.elapsed().as_millis() as u64,
                                    inflight: hb_inflight.load(Ordering::Relaxed),
                                    last_admit_seq: hb_last_seq.load(Ordering::Relaxed),
                                    bye,
                                },
                            );
                            if bye {
                                break;
                            }
                            stop.wait_past(0, Some(Duration::from_millis(interval)));
                        }
                    })
                    .expect("spawn heartbeat sender"),
            );
        }
    }

    // Slot workers start on a slot's first admission; see [`Slots`].
    let (done_tx, done) = mpsc::channel();
    let mut slots = Slots {
        workers: (0..cfg.max_inflight).map(|_| None).collect(),
        admitted: vec![0; cfg.max_inflight],
        busy: vec![false; cfg.max_inflight],
        done,
        ctx: WorkerCtx {
            inflight: Arc::clone(&inflight),
            root_stats: mux.stats(),
            retired_scope_bytes: Arc::new(AtomicU64::new(0)),
            report: frontend.clone().map(|fe| (fe, done_tx)),
        },
    };
    let mut jobs_run = 0u64;

    loop {
        // PE 0 decides the next control action; everyone learns it via
        // the broadcast (non-roots pass a placeholder).
        let decision = if let Some(fe) = &frontend {
            next_action(fe, &mut slots)
        } else {
            CtlMsg::Shutdown
        };
        let msg = ctl.broadcast(0, decision);
        match msg {
            CtlMsg::Admit {
                job_id,
                slot,
                seq,
                queue_wait_ms,
                spec,
            } => {
                let slot = slot as usize;
                let scope = job_scope(slot, slots.admitted[slot], cfg.max_inflight);
                slots.admitted[slot] += 1;
                let comm = mux.scoped(scope, &format!("job-{job_id}"));
                // The trace-correlation identity every span/event of
                // this job carries, on every PE.
                let trace_ctx = TraceCtx {
                    job_id,
                    tenant: spec.tenant.clone().unwrap_or_default(),
                    admit_seq: seq,
                };
                last_seq.store(seq, Ordering::Relaxed);
                inflight.fetch_add(1, Ordering::Relaxed);
                if let Some(fe) = &frontend {
                    fe.registry
                        .lock()
                        .expect("registry poisoned")
                        .insert(job_id, JobStatus::Running);
                    fe.straggler.lock().expect("straggler poisoned").admitted(
                        job_id,
                        spec.op.name(),
                        fe.now_ms(),
                    );
                    // Rank 0 lays the job's queue lane retroactively:
                    // the span ends now (admission) and started when
                    // the scheduler first saw the job.
                    if ccheck_obs::enabled() {
                        let now_us = ccheck_obs::now_us();
                        let wait_us = queue_wait_ms.saturating_mul(1000);
                        ccheck_obs::span_at(
                            &trace_ctx.span_name("queue"),
                            now_us.saturating_sub(wait_us),
                            wait_us.max(1),
                        );
                        ccheck_obs::instant(&trace_ctx.span_name("admit"));
                    }
                    ccheck_obs::debug!(
                        "service",
                        "admit job {job_id} (seq {seq}, slot {slot}, scope {scope}, \
                         queued {queue_wait_ms} ms)"
                    );
                }
                jobs_run += 1;
                slots.admit(
                    slot,
                    Work {
                        job_id,
                        seq,
                        queue_wait_ms,
                        spec,
                        comm,
                        trace_ctx,
                    },
                );
            }
            CtlMsg::Metrics => {
                // Two collectives, same order on every PE: the obs
                // registries, then the world's comm-stats totals (which
                // carry the unified transport series even when obs
                // collection is off).
                let gathered = ctl.gather_metrics();
                let stats = ctl.gather_stats();
                if let Some(fe) = &frontend {
                    let (mut world, per_pe) =
                        gathered.expect("rank 0 receives the gathered metrics");
                    if let Some(stats) = &stats {
                        world.merge(&stats.to_metrics("world.comm"));
                    }
                    // Straggler attribution: the per-rank snapshots
                    // expose per-PE execute-time skew — name the PE the
                    // world is waiting on.
                    let lag = crate::health::lagging_pe(&per_pe);
                    if let Some((pe, skew)) = lag {
                        if skew >= 1.5 {
                            ccheck_obs::info!(
                                "health",
                                "lagging PE {pe}: {skew:.2}x its peers' mean execute time"
                            );
                        }
                        if ccheck_obs::enabled() {
                            ccheck_obs::registry()
                                .gauge("health.lagging_pe")
                                .set(pe as i64);
                        }
                    }
                    *fe.lagging.lock().expect("lagging poisoned") = lag;
                    // The world-merged snapshot is the history's richest
                    // record — persist it whenever a gather runs.
                    if let Some(history) = &fe.history {
                        let mut history = history.lock().expect("history poisoned");
                        if let Err(e) = history.append_metrics(ccheck_obs::unix_ms(), &world) {
                            ccheck_obs::error!("service", "history metrics append failed: {e}");
                        }
                    }
                    let response = metrics_json(&world, per_pe.len(), lag);
                    let waiters = std::mem::take(
                        &mut *fe.metrics_waiters.lock().expect("metrics waiters poisoned"),
                    );
                    for waiter in waiters {
                        let _ = waiter.send(response.clone());
                    }
                }
            }
            CtlMsg::Trace { job_id } => {
                // Collective on every PE, like Metrics: drain the
                // world's trace rings to rank 0 and answer the parked
                // `timeline` clients for this job.
                let traces = ctl.gather_trace();
                if let Some(fe) = &frontend {
                    let response = timeline_json(job_id, traces.as_deref().unwrap_or(&[]));
                    let mut waiters = fe.trace_waiters.lock().expect("trace waiters poisoned");
                    let mut rest = Vec::new();
                    for (id, tx) in waiters.drain(..) {
                        if id == job_id {
                            let _ = tx.send(response.clone());
                        } else {
                            rest.push((id, tx));
                        }
                    }
                    *waiters = rest;
                }
            }
            CtlMsg::Shutdown => {
                slots.join_all();
                break;
            }
        }
    }

    // Health plane teardown first: senders sign off with a final `bye`
    // beat, and the collector exits once every peer has said bye or
    // vanished — all before the control scope's final collectives, so
    // the health scope is quiet when the mux shuts down.
    hb_stop.notify();
    if let Some(handle) = hb_handle {
        let _ = handle.join();
    }
    ccheck_obs::info!("service", "PE {rank}: draining after {jobs_run} jobs");

    // Global quiescence, then the final accounting and teardown.
    ctl.barrier();
    let stats = ctl.gather_stats();
    // Drain the world's trace buffers to rank 0 while the control scope
    // is still alive (collective, so it must be unconditional on every
    // PE whenever any PE writes a trace — cfg is identical world-wide).
    if cfg.trace_out.is_some() {
        let traces = ctl.gather_trace();
        if let (Some(path), Some(traces)) = (&cfg.trace_out, traces) {
            if let Err(e) = std::fs::write(path, ccheck_obs::export::chrome_trace_json(&traces)) {
                ccheck_obs::error!("service", "cannot write trace to {path:?}: {e}");
            }
        }
    }
    drop(ctl);
    mux.shutdown();
    if let Some(fe) = &frontend {
        fe.stop();
        // Flush the fsync batches: a cleanly drained world leaves every
        // sealed receipt and every telemetry record durable.
        if let Some(ledger) = &fe.ledger {
            let _ = ledger.lock().expect("ledger poisoned").sync();
        }
        if let Some(history) = &fe.history {
            let _ = history.lock().expect("history poisoned").sync();
        }
    }
    if let Some((handle, addr)) = listener {
        // The listener blocks in `accept`; a connection to its own
        // address is what makes it look at `stopping`. (A wildcard bind
        // is reached through loopback.)
        let mut addr = addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        match TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
            Ok(_) => {
                let _ = handle.join();
            }
            // Unreachable listener: leave its thread parked rather than
            // hang the shutdown on a join that cannot finish.
            Err(e) => ccheck_obs::error!("service", "cannot wake the listener at {addr}: {e}"),
        }
    }
    let mut receipts: Vec<crate::job::Receipt> = Vec::new();
    let mut tenants: Vec<(String, TenantAgg)> = Vec::new();
    let mut policy = "";
    let mut refused = 0;
    let mut stolen = 0;
    if let Some(fe) = &frontend {
        let registry = fe.registry.lock().expect("registry poisoned");
        receipts = registry
            .values()
            .filter_map(|status| match status {
                JobStatus::Done(receipt) => Some(receipt.clone()),
                _ => None,
            })
            .collect();
        drop(registry);
        tenants = fe
            .agg
            .lock()
            .expect("aggregates poisoned")
            .iter()
            .map(|(t, a)| (t.clone(), a.clone()))
            .collect();
        let sched = fe.sched.lock().expect("scheduler poisoned");
        policy = sched.policy_name();
        refused = sched.refused();
        stolen = sched.stolen();
    }
    receipts.sort_by_key(|r| r.job_id);
    ServiceSummary {
        jobs_run,
        stats,
        receipts,
        tenants,
        policy,
        refused,
        stolen,
        retired_scope_bytes: slots.ctx.retired_scope_bytes.load(Ordering::Relaxed),
        elapsed: t_start.elapsed(),
    }
}

/// Render the merged world metrics for the `metrics` protocol response:
/// every counter and gauge by name, histogram summaries (count, sum,
/// p50/p99), plus the whole snapshot in Prometheus text exposition
/// format for scrapers that want it verbatim.
fn metrics_json(
    world: &ccheck_obs::MetricsSnapshot,
    sources: usize,
    lagging: Option<(usize, f64)>,
) -> Json {
    let counters: BTreeMap<String, Json> = world
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), Json::from(*v)))
        .collect();
    let gauges: BTreeMap<String, Json> = world
        .gauges
        .iter()
        .map(|(name, v)| (name.clone(), Json::Int(*v as i128)))
        .collect();
    let histograms: BTreeMap<String, Json> = world
        .histograms
        .iter()
        .map(|(name, h)| {
            (
                name.clone(),
                Json::obj([
                    ("count", Json::from(h.count())),
                    ("sum", Json::from(h.sum)),
                    ("p50", Json::from(h.p50())),
                    ("p99", Json::from(h.quantile(0.99))),
                ]),
            )
        })
        .collect();
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("enabled", Json::Bool(ccheck_obs::enabled())),
        ("sources", Json::from(sources as u64)),
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
        (
            "prometheus",
            Json::Str(ccheck_obs::export::prometheus_text(world)),
        ),
    ];
    if let Some((pe, skew)) = lagging {
        pairs.push(("lagging_pe", Json::from(pe as u64)));
        pairs.push(("lagging_skew", Json::Float(skew)));
    }
    Json::obj(pairs)
}

/// Merge the world's gathered trace snapshots into one job's timeline:
/// every span and instant whose name carries the job's `job{id}.`
/// correlation prefix — the queue/admit lanes rank 0 lays plus the
/// generate/execute/check/receipt phase lanes every PE's worker emits —
/// sorted by start time. Timestamps are µs since each *process's* own
/// monotonic epoch: exactly comparable within a source, only
/// approximately across sources (`docs/PROTOCOL.md` §2.8).
fn timeline_json(job_id: u64, traces: &[ccheck_obs::TraceSnapshot]) -> Json {
    let prefix = TraceCtx::prefix(job_id);
    let mut events: Vec<(u64, Json)> = Vec::new();
    for snap in traces {
        for ev in &snap.events {
            let Some(rest) = ev.name.strip_prefix(prefix.as_str()) else {
                continue;
            };
            let phase = rest.split('@').next().unwrap_or(rest);
            events.push((
                ev.start_us,
                Json::obj([
                    ("source", Json::from(snap.source)),
                    ("thread", Json::from(ev.thread.as_str())),
                    ("name", Json::from(ev.name.as_str())),
                    ("phase", Json::from(phase)),
                    ("start_us", Json::from(ev.start_us)),
                    ("dur_us", Json::from(ev.dur_us)),
                    (
                        "kind",
                        Json::from(if ev.dur_us == 0 { "instant" } else { "span" }),
                    ),
                ]),
            ));
        }
    }
    events.sort_by_key(|(start, _)| *start);
    Json::obj([
        ("ok", Json::Bool(true)),
        ("id", Json::from(job_id)),
        ("enabled", Json::Bool(ccheck_obs::enabled())),
        (
            "events",
            Json::Arr(events.into_iter().map(|(_, e)| e).collect()),
        ),
    ])
}

/// PE 0's scheduling loop: block until there is something to broadcast.
/// Every decision is the [`SchedCore`]'s: deadline expiry first (jobs
/// refused while queued), then — if a slot is free — the policy's pick.
///
/// Event-driven: with nothing to do the loop parks on `sched_wake`
/// until an enqueue, a finished job, a parked `metrics`/`timeline`
/// waiter or a shutdown request moves it, or until the earlier of the
/// next watch-sample tick and the earliest queued deadline — the two
/// things that happen by the clock alone.
fn next_action(fe: &Arc<Frontend>, slots: &mut Slots) -> CtlMsg {
    loop {
        // Read before looking at any state: whatever changes after this
        // line moves the generation and cuts the wait below short.
        let seen = fe.sched_wake.generation();
        if ccheck_obs::enabled() {
            sched_wakeups().inc();
        }
        // Finished jobs: free the slot, *then* publish the receipt. A
        // client answers a receipt within microseconds; its next job
        // must find the slot free and land on the same worker, whose
        // allocator arena already holds the previous job's freed heap
        // (spread over several workers, each would grow its own).
        while let Ok((slot, sealed)) = slots.done.try_recv() {
            slots.free(slot);
            fe.finish(sealed.job_id, JobStatus::Done(sealed));
        }
        // The watchdog pass rides the scheduling loop: self-beat,
        // straggler scan, liveness-transition logs, watch samples.
        fe.tick();
        // Metrics requests preempt admissions: the gather is cheap, the
        // waiter is a live client connection, and admissions re-run on
        // the next loop iteration anyway.
        if !fe
            .metrics_waiters
            .lock()
            .expect("metrics waiters poisoned")
            .is_empty()
        {
            return CtlMsg::Metrics;
        }
        // Timeline requests preempt for the same reason.
        let trace_job = fe
            .trace_waiters
            .lock()
            .expect("trace waiters poisoned")
            .first()
            .map(|(id, _)| *id);
        if let Some(job_id) = trace_job {
            return CtlMsg::Trace { job_id };
        }
        let now = fe.now_ms();
        let free = slots.busy.iter().position(|&b| !b);
        let (expired, admission, queue_empty, next_deadline) = {
            let mut sched = fe.sched.lock().expect("scheduler poisoned");
            let expired = sched.take_expired(now);
            let admission = match free {
                Some(_) => sched.pick(now),
                None => None,
            };
            (
                expired,
                admission,
                sched.queue_is_empty(),
                sched.next_deadline_ms(),
            )
        };
        for (job_id, tenant, reason) in expired {
            fe.record_refused(job_id, &tenant, reason);
        }
        if let Some(admission) = admission {
            return CtlMsg::Admit {
                job_id: admission.job_id,
                slot: free.expect("picked only with a free slot") as u32,
                // 1-based, continuing past the ledger's replayed
                // maximum on a restarted world.
                seq: fe.admit_seq.fetch_add(1, Ordering::AcqRel) + 1,
                queue_wait_ms: admission.queue_wait_ms,
                spec: admission.spec,
            };
        }
        // Every slot freed, not merely finished: a receipt is published
        // above, never by the shutdown path.
        let drained = queue_empty && !slots.busy.contains(&true);
        if fe.shutdown_requested.load(Ordering::Acquire) && drained {
            // Fence against racing submissions: stop accepting, wait out
            // any handler already past its `accepting` check (each wakes
            // this loop as it leaves), then take one final look at the
            // queue. Anything that slipped in gets run (it was
            // acknowledged); only then commit to Shutdown.
            fe.accepting.store(false, Ordering::Release);
            loop {
                let seen = fe.sched_wake.generation();
                if fe.submitting.load(Ordering::Acquire) == 0 {
                    break;
                }
                fe.sched_wake.wait_past(seen, None);
            }
            if fe
                .sched
                .lock()
                .expect("scheduler poisoned")
                .queue_is_empty()
            {
                return CtlMsg::Shutdown;
            }
            continue;
        }
        // Nothing to broadcast: park until an event, the next sample
        // tick or the earliest queued deadline, whichever is first.
        let next_sample = fe
            .last_sample_ms
            .load(Ordering::Acquire)
            .saturating_add(fe.health_cfg.heartbeat_interval_ms.max(1));
        let until = next_deadline.map_or(next_sample, |d| d.min(next_sample));
        fe.sched_wake
            .wait_past(seen, Some(Duration::from_millis(until.saturating_sub(now))));
    }
}

/// Bind the client listener, publish its address, and serve connections
/// until the daemon stops. Returns the bound address too: `accept`
/// blocks, and a connection to that address is how shutdown wakes it.
fn spawn_listener(cfg: &ServiceConfig, fe: Arc<Frontend>) -> (JoinHandle<()>, SocketAddr) {
    let listener = TcpListener::bind(&cfg.listen)
        .unwrap_or_else(|e| panic!("ccheck-serve: cannot bind {}: {e}", cfg.listen));
    let addr = listener.local_addr().expect("listener address");
    if let Some(path) = &cfg.addr_file {
        // Write-then-rename so watchers never read a partial address.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, format!("{addr}\n")).expect("write addr file");
        std::fs::rename(&tmp, path).expect("publish addr file");
    }
    if let Some(announce) = &cfg.announce {
        let _ = announce.send(addr);
    }
    let handle = std::thread::Builder::new()
        .name("ccheck-serve-listener".into())
        .spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                // The connection that arrives after `stopping` is the
                // daemon's own wake-up call.
                if fe.stopping.load(Ordering::Acquire) {
                    break;
                }
                // Reap closed connections so a long-lived service doesn't
                // accumulate one handle per one-shot client forever
                // (dropping a finished handle releases the thread).
                handlers.retain(|h| !h.is_finished());
                let fe = Arc::clone(&fe);
                handlers.push(
                    std::thread::Builder::new()
                        .name("ccheck-serve-client".into())
                        .spawn(move || serve_connection(stream, &fe))
                        .expect("spawn client handler"),
                );
            }
            for handler in handlers {
                let _ = handler.join();
            }
        })
        .expect("spawn listener thread");
    (handle, addr)
}

fn respond(stream: &mut TcpStream, v: &Json) -> std::io::Result<()> {
    let mut line = v.render();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

fn error_json(message: impl Into<String>) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
}

/// One client connection: line-delimited JSON requests, one response
/// line per request, in order.
fn serve_connection(stream: TcpStream, fe: &Arc<Frontend>) {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Raw bytes, not read_line: the read timeout exists only to poll
    // `stopping`, and a timeout mid-line must leave the partial request
    // in the buffer. read_line would *discard* consumed bytes when a
    // timeout lands inside a multi-byte UTF-8 character (its validity
    // guard truncates on error); read_until keeps every byte, and UTF-8
    // is validated once per complete line.
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return, // client closed
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if fe.stopping.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let line = String::from_utf8_lossy(&buf);
        let response = if line.trim().is_empty() {
            None
        } else {
            Some(match json::parse(&line) {
                Err(e) => error_json(format!("bad request: {e}")),
                Ok(request) => handle_request(&request, fe),
            })
        };
        buf.clear();
        if let Some(response) = response {
            if respond(&mut writer, &response).is_err() {
                return;
            }
        }
    }
}

fn status_json(id: u64, status: &JobStatus) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("id", Json::from(id)),
        ("status", Json::from(status.name())),
    ];
    match status {
        JobStatus::Done(receipt) => pairs.push(("receipt", receipt.to_json())),
        JobStatus::Refused(reason) => pairs.push(("reason", Json::Str(reason.clone()))),
        _ => {}
    }
    Json::obj(pairs)
}

/// A successful submit acknowledgement; dedupe hits additionally carry
/// `deduped: true` and (when already complete) the stored receipt.
fn submit_ack(id: u64, status: &str, deduped: bool, receipt: Option<&Receipt>) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("id", Json::from(id)),
        ("status", Json::from(status)),
    ];
    if deduped {
        pairs.push(("deduped", Json::Bool(true)));
    }
    if let Some(receipt) = receipt {
        pairs.push(("receipt", receipt.to_json()));
    }
    Json::obj(pairs)
}

/// The submit path, including the `docs/PROTOCOL.md` §7 idempotency
/// rules for client-supplied job ids: an already-ledgered (or
/// already-completed) `(tenant, job_id)` with the same spec fingerprint
/// is answered from the stored receipt with zero re-execution; a live
/// duplicate is acknowledged at its current status; any id reuse with a
/// *different* spec is a conflict.
fn handle_submit(fe: &Arc<Frontend>, spec: JobSpec) -> Json {
    if !fe.accepting.load(Ordering::Acquire) {
        return error_json("service is shutting down");
    }
    let tenant_key = spec.tenant.clone().unwrap_or_default();
    let fingerprint = spec.fingerprint();

    let id = match spec.job_id {
        None => fe.next_id.fetch_add(1, Ordering::AcqRel),
        Some(requested) => {
            // Ledgered already? Serve the §7 dedupe (or conflict) from
            // the durable record.
            if let Some(ledger) = &fe.ledger {
                let ledger = ledger.lock().expect("ledger poisoned");
                if let Some(stored) = ledger.get_tenant_job(&tenant_key, requested) {
                    if stored.spec_fingerprint.as_deref() == Some(fingerprint.as_str()) {
                        return submit_ack(requested, "done", true, Some(&stored));
                    }
                    return error_json(format!(
                        "job_id {requested} is already ledgered for this tenant \
                         with a different spec"
                    ));
                }
                if ledger.contains(requested) {
                    return error_json(format!(
                        "job_id {requested} is already ledgered under another tenant"
                    ));
                }
            }
            // Claim the id against concurrent submissions: the pending
            // map is the single arbiter of live ids.
            {
                let mut pending = fe.pending.lock().expect("pending poisoned");
                if let Some((live_tenant, live_fp)) = pending.get(&requested) {
                    if *live_tenant == tenant_key && *live_fp == fingerprint {
                        let status = fe.status_of(requested).map_or("queued", |s| s.name());
                        return submit_ack(requested, status, true, None);
                    }
                    return error_json(format!("job_id {requested} is already in use"));
                }
                // A finished (no longer pending) id may still be in the
                // registry: dedupe completed work, refuse other reuse.
                match fe
                    .registry
                    .lock()
                    .expect("registry poisoned")
                    .get(&requested)
                {
                    Some(JobStatus::Done(stored)) => {
                        if stored.spec_fingerprint.as_deref() == Some(fingerprint.as_str()) {
                            let stored = stored.clone();
                            return submit_ack(requested, "done", true, Some(&stored));
                        }
                        return error_json(format!(
                            "job_id {requested} already completed with a different spec"
                        ));
                    }
                    Some(_) => {
                        return error_json(format!(
                            "job_id {requested} is already in use (resubmit under a new id)"
                        ));
                    }
                    None => {}
                }
                pending.insert(requested, (tenant_key.clone(), fingerprint.clone()));
            }
            // Keep service-assigned ids above every adopted one.
            fe.next_id.fetch_max(requested + 1, Ordering::AcqRel);
            requested
        }
    };
    if spec.job_id.is_none() {
        fe.pending
            .lock()
            .expect("pending poisoned")
            .insert(id, (tenant_key, fingerprint));
    }
    // Mark the job queued *before* the scheduler can hand it to a
    // worker, so a completed status never gets clobbered by a stale
    // "queued".
    fe.registry
        .lock()
        .expect("registry poisoned")
        .insert(id, JobStatus::Queued);
    let enqueue = fe
        .sched
        .lock()
        .expect("scheduler poisoned")
        .try_enqueue(fe.now_ms(), id, spec);
    if let Err(refusal) = enqueue {
        fe.registry.lock().expect("registry poisoned").remove(&id);
        fe.pending.lock().expect("pending poisoned").remove(&id);
        let mut pairs = vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str(refusal.message)),
        ];
        if let Some(hint) = refusal.retry_after_ms {
            pairs.push(("retry_after_ms", Json::from(hint)));
        }
        return Json::obj(pairs);
    }
    submit_ack(id, "queued", false, None)
}

fn handle_request(request: &Json, fe: &Arc<Frontend>) -> Json {
    match request.get("cmd").and_then(Json::as_str) {
        Some("submit") => {
            let spec = match request.get("job") {
                Some(job) => match JobSpec::from_json(job) {
                    Ok(spec) => spec,
                    Err(e) => return error_json(format!("bad job spec: {e}")),
                },
                None => return error_json("submit requires a job object"),
            };
            if let Err(e) = spec.validate().and_then(|()| validate_fault(&spec)) {
                return error_json(format!("bad job spec: {e}"));
            }
            // Enter the submission window *before* checking `accepting`:
            // the daemon's shutdown fence clears `accepting` and then
            // waits for `submitting` to drain, so a submit that passes
            // this check is guaranteed to be seen by the final queue
            // drain — an acknowledged job is never dropped.
            fe.submitting.fetch_add(1, Ordering::AcqRel);
            let response = handle_submit(fe, spec);
            fe.submitting.fetch_sub(1, Ordering::AcqRel);
            // One wake covers both edges the scheduling loop waits on:
            // the enqueue above is complete, and `submitting` has fallen.
            fe.sched_wake.notify();
            response
        }
        Some("poll") => match request.get("id").and_then(Json::as_u64) {
            None => error_json("poll requires an id"),
            // `status_of` falls back to the ledger, so replayed receipts
            // stay pollable after a restart (and across `receipt_cap`
            // eviction).
            Some(id) => match fe.status_of(id) {
                None => error_json(format!("unknown job id {id}")),
                Some(status) => status_json(id, &status),
            },
        },
        Some("wait") => match request.get("id").and_then(Json::as_u64) {
            None => error_json("wait requires an id"),
            Some(id) => {
                // Optional client-chosen bound; after it passes, answer
                // with the job's current (non-final) status and a
                // `timed_out` marker instead of blocking forever.
                let deadline = request
                    .get("timeout_ms")
                    .and_then(Json::as_u64)
                    .map(|ms| Instant::now() + Duration::from_millis(ms));
                loop {
                    // Before the status check, so a finish landing after
                    // it cuts the wait below short.
                    let seen = fe.status_wake.generation();
                    match fe.status_of(id) {
                        None => break error_json(format!("unknown job id {id}")),
                        Some(status @ (JobStatus::Done(_) | JobStatus::Refused(_))) => {
                            break status_json(id, &status)
                        }
                        Some(status) => {
                            if deadline.is_some_and(|d| Instant::now() >= d) {
                                break Json::obj([
                                    ("ok", Json::Bool(true)),
                                    ("id", Json::from(id)),
                                    ("status", Json::from(status.name())),
                                    ("timed_out", Json::Bool(true)),
                                ]);
                            }
                        }
                    }
                    if fe.stopping.load(Ordering::Acquire) {
                        break error_json("service shut down before the job completed");
                    }
                    fe.status_wake.wait_past(
                        seen,
                        deadline.map(|d| d.saturating_duration_since(Instant::now())),
                    );
                }
            }
        },
        Some("chain") => {
            // A tenant's ledger chain links, oldest first — everything a
            // client needs to audit the chain without the receipts
            // themselves (`docs/PROTOCOL.md` §6.3).
            let tenant = request
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            match &fe.ledger {
                None => error_json("service has no ledger (started without --ledger)"),
                Some(ledger) => {
                    let ledger = ledger.lock().expect("ledger poisoned");
                    let links: Vec<Json> = ledger
                        .chain(&tenant)
                        .into_iter()
                        .map(|r| {
                            Json::obj([
                                ("job_id", Json::from(r.job_id)),
                                (
                                    "content_hash",
                                    Json::Str(r.content_hash.unwrap_or_default()),
                                ),
                                ("prev_hash", Json::Str(r.prev_hash.unwrap_or_default())),
                            ])
                        })
                        .collect();
                    Json::obj([
                        ("ok", Json::Bool(true)),
                        ("tenant", Json::Str(tenant.clone())),
                        ("head", Json::Str(ledger.head(&tenant))),
                        ("links", Json::Arr(links)),
                    ])
                }
            }
        }
        Some("metrics") => {
            // Park until the daemon loop's next decision point: it
            // broadcasts a Metrics collective, merges the world
            // snapshot, and answers through this channel. Bounded wait:
            // a shutting-down daemon may never run another decision.
            let (tx, rx) = mpsc::channel();
            fe.metrics_waiters
                .lock()
                .expect("metrics waiters poisoned")
                .push(tx);
            fe.sched_wake.notify();
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(response) => response,
                Err(_) => error_json("metrics gather timed out (service draining?)"),
            }
        }
        Some("health") => {
            // Answered from PE-0-local watchdog state only — no
            // collective — so it keeps working while a PE is stopped
            // or dead (`docs/PROTOCOL.md` §2.6).
            let now = fe.now_ms();
            let (report, counts) = {
                let health = fe.health.lock().expect("health poisoned");
                (health.report(now), health.counts(now))
            };
            let queue_depth = fe.sched.lock().expect("scheduler poisoned").queue_len() as u64;
            let stragglers: Vec<Json> = fe
                .slow_live
                .lock()
                .expect("slow live poisoned")
                .iter()
                .map(|s| {
                    Json::obj([
                        ("job_id", Json::from(s.job_id)),
                        ("op", Json::from(s.op.as_str())),
                        ("running_ms", Json::from(s.running_ms)),
                        ("p95_ms", Json::from(s.p95_ms)),
                        ("threshold_ms", Json::from(s.threshold_ms)),
                    ])
                })
                .collect();
            let mut pairs = vec![
                ("ok", Json::Bool(true)),
                ("world", Json::from(fe.world as u64)),
                ("uptime_ms", Json::from(now)),
                ("queue_depth", Json::from(queue_depth)),
                ("inflight", Json::from(fe.inflight.load(Ordering::Relaxed))),
                (
                    "last_admit_seq",
                    Json::from(fe.admit_seq.load(Ordering::Relaxed)),
                ),
                ("healthy", Json::from(counts.0)),
                ("suspect", Json::from(counts.1)),
                ("dead", Json::from(counts.2)),
                (
                    "suspect_after_ms",
                    Json::from(fe.health_cfg.suspect_after_ms),
                ),
                ("dead_after_ms", Json::from(fe.health_cfg.dead_after_ms)),
                (
                    "pes",
                    Json::Arr(report.iter().map(PeHealth::to_json).collect()),
                ),
                ("stragglers", Json::Arr(stragglers)),
                (
                    "alerts",
                    Json::from(fe.alerts_active.load(Ordering::Relaxed)),
                ),
                (
                    "slos",
                    Json::Arr(
                        fe.slo
                            .lock()
                            .expect("slo poisoned")
                            .statuses()
                            .iter()
                            .map(crate::slo::SloStatus::to_json)
                            .collect(),
                    ),
                ),
            ];
            if let Some((pe, skew)) = *fe.lagging.lock().expect("lagging poisoned") {
                pairs.push(("lagging_pe", Json::from(pe as u64)));
                pairs.push(("lagging_skew", Json::Float(skew)));
            }
            Json::obj(pairs)
        }
        Some("watch") => {
            // Long-poll the sample ring: answer as soon as a sample
            // newer than `since` exists, or empty after a bounded wait
            // (the dashboard just re-polls).
            let since = request.get("since").and_then(Json::as_u64).unwrap_or(0);
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let seen = fe.sample_wake.generation();
                let (samples, latest) = {
                    let ring = fe.samples.lock().expect("samples poisoned");
                    (ring.since(since), ring.latest_seq())
                };
                if !samples.is_empty() || Instant::now() >= deadline {
                    break Json::obj([
                        ("ok", Json::Bool(true)),
                        ("latest", Json::from(latest)),
                        (
                            "samples",
                            Json::Arr(samples.iter().map(WatchSample::to_json).collect()),
                        ),
                    ]);
                }
                if fe.stopping.load(Ordering::Acquire) {
                    break error_json("service shut down");
                }
                fe.sample_wake.wait_past(
                    seen,
                    Some(deadline.saturating_duration_since(Instant::now())),
                );
            }
        }
        Some("timeline") => match request.get("id").and_then(Json::as_u64) {
            None => error_json("timeline requires an id"),
            Some(id) => {
                // Like `metrics`: park until the daemon loop broadcasts
                // the Trace collective and answers with the merged
                // per-job timeline.
                let (tx, rx) = mpsc::channel();
                fe.trace_waiters
                    .lock()
                    .expect("trace waiters poisoned")
                    .push((id, tx));
                fe.sched_wake.notify();
                match rx.recv_timeout(Duration::from_secs(30)) {
                    Ok(response) => response,
                    Err(_) => error_json("trace gather timed out (service draining?)"),
                }
            }
        },
        Some("alerts") => {
            // PE-0-local like `health`: the SLO engine's standing and
            // its retained transition ring (`docs/PROTOCOL.md` §2.10).
            let slo = fe.slo.lock().expect("slo poisoned");
            Json::obj([
                ("ok", Json::Bool(true)),
                ("active", Json::from(slo.active_count())),
                (
                    "slos",
                    Json::Arr(
                        slo.statuses()
                            .iter()
                            .map(crate::slo::SloStatus::to_json)
                            .collect(),
                    ),
                ),
                (
                    "recent",
                    Json::Arr(slo.recent().map(AlertEvent::to_json).collect()),
                ),
            ])
        }
        Some("history") => match &fe.history {
            // Stream the durable telemetry tail back to the client
            // (`docs/PROTOCOL.md` §2.9). Metrics snapshots return as
            // size summaries — the full series lives in the file for
            // `ccheck-report`.
            None => error_json("service has no history (started without --history)"),
            Some(history) => {
                let since_ms = request.get("since_ms").and_then(Json::as_u64).unwrap_or(0);
                let limit = request
                    .get("limit")
                    .and_then(Json::as_u64)
                    .unwrap_or(32)
                    .clamp(1, 512) as usize;
                let kind_filter = request
                    .get("kind")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                // Flush the append batch so the scan sees every record,
                // then scan without the lock (appends past this point
                // land beyond the tail we return).
                let path = {
                    let mut history = history.lock().expect("history poisoned");
                    let _ = history.sync();
                    history.path().to_path_buf()
                };
                match HistoryReader::open(&path) {
                    Err(e) => error_json(format!("cannot read history: {e}")),
                    Ok(reader) => {
                        let mut total = 0u64;
                        let mut entries: VecDeque<Json> = VecDeque::new();
                        for record in reader {
                            let Ok(record) = record else { break };
                            total += 1;
                            if record.wall_ms < since_ms {
                                continue;
                            }
                            let (kind, data) = match &record.payload {
                                HistoryPayload::Metrics(snap) => (
                                    "metrics",
                                    Json::obj([
                                        ("counters", Json::from(snap.counters.len() as u64)),
                                        ("gauges", Json::from(snap.gauges.len() as u64)),
                                        ("histograms", Json::from(snap.histograms.len() as u64)),
                                    ]),
                                ),
                                HistoryPayload::Sample(bytes) => {
                                    match std::str::from_utf8(bytes)
                                        .ok()
                                        .and_then(|t| json::parse(t).ok())
                                    {
                                        Some(v) => ("sample", v),
                                        None => continue,
                                    }
                                }
                                HistoryPayload::Alert(bytes) => {
                                    match std::str::from_utf8(bytes)
                                        .ok()
                                        .and_then(|t| json::parse(t).ok())
                                    {
                                        Some(v) => ("alert", v),
                                        None => continue,
                                    }
                                }
                            };
                            if kind_filter.as_deref().is_some_and(|f| f != kind) {
                                continue;
                            }
                            entries.push_back(Json::obj([
                                ("data", data),
                                ("kind", Json::from(kind)),
                                ("res", Json::from(record.res.name())),
                                ("wall_ms", Json::from(record.wall_ms)),
                            ]));
                            if entries.len() > limit {
                                entries.pop_front();
                            }
                        }
                        Json::obj([
                            ("ok", Json::Bool(true)),
                            ("total", Json::from(total)),
                            ("entries", Json::Arr(entries.into_iter().collect())),
                        ])
                    }
                }
            }
        },
        Some("shutdown") => {
            fe.shutdown_requested.store(true, Ordering::Release);
            fe.sched_wake.notify();
            Json::obj([("ok", Json::Bool(true)), ("status", Json::from("draining"))])
        }
        other => error_json(format!(
            "unknown cmd {other:?} (submit|poll|wait|chain|metrics|health|watch|timeline|\
             history|alerts|shutdown)"
        )),
    }
}

/// Convenience for tests, benchmarks, and the `--transport local` mode
/// of `ccheck-serve`: run a whole `p`-PE service world in this process
/// (one thread per PE) on the chosen backend, returning the per-rank
/// summaries. Blocks until a client drives the service to shutdown.
/// (Reuses the owned-communicator harness from `ccheck_net::testing`,
/// which is exactly this spawn/join scaffold.)
pub fn run_service_world(backend: Backend, p: usize, cfg: &ServiceConfig) -> Vec<ServiceSummary> {
    ccheck_net::testing::run_owned_with_stats_on(backend, p, |comm| run_service(comm, cfg)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Job scopes stay between the control and health scopes, no two
    /// slots ever share one, and a slot's consecutive jobs never do —
    /// at every `max_inflight` up to [`MAX_INFLIGHT`].
    #[test]
    fn job_scopes_alternate_per_slot_and_never_collide() {
        for max_inflight in (1..=8).chain([MAX_INFLIGHT / 2, MAX_INFLIGHT - 1, MAX_INFLIGHT]) {
            let mut owner = HashMap::new();
            for slot in 0..max_inflight {
                for generation in 0..300 {
                    let scope = job_scope(slot, generation, max_inflight);
                    assert!((1..HEALTH_SCOPE).contains(&scope), "scope {scope}");
                    assert_eq!(*owner.entry(scope).or_insert(slot), slot);
                    assert_ne!(scope, job_scope(slot, generation + 1, max_inflight));
                }
            }
        }
        // The bound is tight: one slot more and some slot has one scope.
        assert_eq!(JOB_SCOPES / (MAX_INFLIGHT as u64 + 1), 1);
    }

    /// The interleaving the generation exists for: the notify lands
    /// after the waiter looked at the state but before it waits.
    #[test]
    fn notify_between_check_and_wait_is_not_lost() {
        let wake = Wake::default();
        let seen = wake.generation();
        wake.notify();
        let t0 = Instant::now();
        wake.wait_past(seen, Some(Duration::from_secs(30)));
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the notify was lost"
        );
    }

    #[test]
    fn wait_past_ends_on_timeout_or_on_a_notify_from_another_thread() {
        let wake = Arc::new(Wake::default());
        let seen = wake.generation();
        let t0 = Instant::now();
        wake.wait_past(seen, Some(Duration::from_millis(30)));
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(wake.generation(), seen);

        // The waiter reports once it has read the generation, so the
        // notify provably comes after its check.
        let (looked_tx, looked_rx) = mpsc::channel();
        let waiter = {
            let wake = Arc::clone(&wake);
            std::thread::spawn(move || {
                let seen = wake.generation();
                looked_tx.send(()).expect("test is listening");
                let t0 = Instant::now();
                wake.wait_past(seen, Some(Duration::from_secs(30)));
                t0.elapsed()
            })
        };
        looked_rx.recv().expect("waiter looked");
        wake.notify();
        let waited = waiter.join().expect("waiter exits");
        assert!(waited < Duration::from_secs(10), "the notify was lost");
    }
}
