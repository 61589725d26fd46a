//! The scheduler core: one deterministic state machine from
//! submissions to admissions.
//!
//! [`SchedCore`] owns the submission queue, the [`TenantTable`], the
//! active [`SchedPolicy`], and the [`AdaptiveTuner`]. PE 0's daemon
//! drives it (listener threads call [`SchedCore::try_enqueue`], the
//! admission loop calls [`SchedCore::take_expired`] and
//! [`SchedCore::pick`], job workers call [`SchedCore::complete`]);
//! the fairness property tests drive the *same* struct directly with a
//! simulated clock, which is what makes the scheduling invariants
//! testable without spinning up worlds.

use ccheck_obs::HistogramSnapshot;

use crate::job::{CheckMode, JobSpec, Receipt, Verdict};
use crate::sched::policy::{PolicyCfg, SchedPolicy};
use crate::sched::tenant::{TenantTable, DEFAULT_TENANT};
use crate::sched::tuner::AdaptiveTuner;

/// Retry-hint quantum before the first receipt arrives: with an empty
/// wall-time histogram there is no p50 to quote, so hints assume a
/// 250 ms service quantum (the pre-observability EWMA's seed value).
const DEFAULT_WALL_MS: u64 = 250;

/// Cached handles for the scheduler's decision counters — resolved once
/// so the hot path is an atomic add, not a registry lookup. Counters
/// only: the core's own histograms stay plain per-instance values (the
/// registry is process-global, and tests run many cores in parallel).
struct SchedObs {
    enqueued: std::sync::Arc<ccheck_obs::Counter>,
    admitted: std::sync::Arc<ccheck_obs::Counter>,
    refused_busy: std::sync::Arc<ccheck_obs::Counter>,
    expired: std::sync::Arc<ccheck_obs::Counter>,
    stolen: std::sync::Arc<ccheck_obs::Counter>,
    queue_wait_ms: std::sync::Arc<ccheck_obs::Histogram>,
}

fn sched_obs() -> &'static SchedObs {
    static OBS: std::sync::OnceLock<SchedObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let reg = ccheck_obs::registry();
        SchedObs {
            enqueued: reg.counter("sched.enqueued"),
            admitted: reg.counter("sched.admitted"),
            refused_busy: reg.counter("sched.refused.busy"),
            expired: reg.counter("sched.expired"),
            stolen: reg.counter("sched.stolen"),
            queue_wait_ms: reg.histogram("sched.queue_wait_ms"),
        }
    })
}

/// Upper bound on distinct tenants one service tracks (tenant state,
/// tuner state, and summary aggregates are all per-tenant; a hostile
/// client must not grow them without bound).
pub const MAX_TENANTS: usize = 4096;

/// One queued-but-not-admitted job.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Service-assigned job id.
    pub job_id: u64,
    /// The submission.
    pub spec: JobSpec,
    /// Service-clock milliseconds at acceptance.
    pub enqueued_ms: u64,
}

impl QueuedJob {
    /// The job's tenant key ([`DEFAULT_TENANT`] when unset).
    pub fn tenant(&self) -> &str {
        self.spec.tenant.as_deref().unwrap_or(DEFAULT_TENANT)
    }

    /// Absolute deadline on the service clock, if any.
    pub fn deadline_at(&self) -> Option<u64> {
        self.spec
            .deadline_ms
            .map(|d| self.enqueued_ms.saturating_add(d))
    }
}

/// Why a submission was not accepted. `retry_after_ms` is the
/// scheduler's estimate of when capacity frees up (absent under `Fifo`,
/// whose refusals are byte-identical to PR-4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// Human-readable reason (starts with `busy:` for capacity).
    pub message: String,
    /// Suggested client backoff in milliseconds.
    pub retry_after_ms: Option<u64>,
}

/// One admission decision out of [`SchedCore::pick`].
#[derive(Debug, Clone)]
pub struct Admission {
    /// The admitted job's id.
    pub job_id: u64,
    /// The spec to broadcast — with the tuner's `(its, b, r̂)` already
    /// resolved for `CheckMode::Adaptive` jobs, so every PE runs the
    /// same config.
    pub spec: JobSpec,
    /// The pick exceeded the tenant's inflight quota (work stealing).
    pub stolen: bool,
    /// Milliseconds the job waited queued before this pick, on the
    /// service clock — broadcast with the admission so every PE stamps
    /// the same receipt `timing.queue_wait_ms`.
    pub queue_wait_ms: u64,
}

/// The PE-0 scheduler state machine. All methods take the service
/// clock (`now_ms`, milliseconds since service start) as a parameter —
/// production passes wall time, tests pass a simulated clock.
pub struct SchedCore {
    policy: Box<dyn SchedPolicy>,
    queue: Vec<QueuedJob>,
    tenants: TenantTable,
    tuner: AdaptiveTuner,
    queue_cap: usize,
    max_inflight: usize,
    inflight: usize,
    stolen: u64,
    refused: u64,
    /// Log-bucketed histogram of completed-job wall milliseconds; retry
    /// hints quote its p50, which a single outlier cannot drag the way
    /// it skewed the old EWMA. Per-core (not in the global registry) so
    /// concurrently running cores never share hint state.
    wall_hist: HistogramSnapshot,
}

impl SchedCore {
    /// Build a core for `policy` with the service's capacity knobs.
    pub fn new(policy: &PolicyCfg, queue_cap: usize, max_inflight: usize) -> Self {
        let mut tenants = TenantTable::new();
        let policy = policy.build(&mut tenants);
        SchedCore {
            policy,
            queue: Vec::new(),
            tenants,
            tuner: AdaptiveTuner::new(),
            queue_cap,
            max_inflight: max_inflight.max(1),
            inflight: 0,
            stolen: 0,
            refused: 0,
            wall_hist: HistogramSnapshot::new(),
        }
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Estimated milliseconds until a freed slot reaches a new
    /// submission: one service quantum per queued-jobs-per-slot, where
    /// the quantum is the median completed-job wall time (histogram
    /// p50; `DEFAULT_WALL_MS` until the first receipt lands).
    pub fn retry_hint_ms(&self) -> u64 {
        let backlog = (self.queue.len() / self.max_inflight + 1) as u64;
        let quantum = match self.wall_hist.count() {
            0 => DEFAULT_WALL_MS,
            _ => self.wall_hist.p50().max(1),
        };
        quantum * backlog
    }

    /// Accept or refuse one submission. Refusals under non-FIFO
    /// policies carry the retry hint.
    pub fn try_enqueue(&mut self, now_ms: u64, job_id: u64, spec: JobSpec) -> Result<(), Refusal> {
        let hint = || (self.policy.name() != "fifo").then(|| self.retry_hint_ms());
        if self.queue.len() >= self.queue_cap {
            if ccheck_obs::enabled() {
                sched_obs().refused_busy.inc();
            }
            return Err(Refusal {
                message: "busy: submission queue is full, retry later".into(),
                retry_after_ms: hint(),
            });
        }
        let tenant = spec.tenant.as_deref().unwrap_or(DEFAULT_TENANT);
        if !self.tenants.contains(tenant) && self.tenants.len() >= MAX_TENANTS {
            return Err(Refusal {
                message: format!("busy: tenant table is full ({MAX_TENANTS} tenants)"),
                retry_after_ms: None,
            });
        }
        if let Err(message) = self
            .policy
            .check_enqueue(&spec, &self.tenants, self.queue_cap)
        {
            if ccheck_obs::enabled() {
                sched_obs().refused_busy.inc();
            }
            return Err(Refusal {
                message,
                retry_after_ms: hint(),
            });
        }
        if ccheck_obs::enabled() {
            sched_obs().enqueued.inc();
        }
        self.tenants.note_enqueued(tenant);
        self.queue.push(QueuedJob {
            job_id,
            spec,
            enqueued_ms: now_ms,
        });
        Ok(())
    }

    /// Remove queued jobs whose admission deadline has passed (policies
    /// that honor deadlines only). Returns `(job_id, tenant, reason)`
    /// per refusal; the reason carries the retry hint the client
    /// surfaces.
    pub fn take_expired(&mut self, now_ms: u64) -> Vec<(u64, String, String)> {
        if !self.policy.honors_deadlines() {
            return Vec::new();
        }
        let mut refused = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            match self.queue[i].deadline_at() {
                Some(deadline) if now_ms >= deadline => {
                    let job = self.queue.remove(i);
                    self.tenants.note_dropped(job.tenant());
                    self.refused += 1;
                    if ccheck_obs::enabled() {
                        sched_obs().expired.inc();
                    }
                    refused.push((
                        job.job_id,
                        job.tenant().to_string(),
                        format!(
                            "deadline missed: waited {} ms in queue, deadline was {} ms; \
                             retry with a deadline above ~{} ms or resubmit off-peak",
                            now_ms.saturating_sub(job.enqueued_ms),
                            job.spec.deadline_ms.unwrap_or(0),
                            self.retry_hint_ms(),
                        ),
                    ));
                }
                _ => i += 1,
            }
        }
        refused
    }

    /// The earliest absolute deadline among queued jobs, on the service
    /// clock: when [`SchedCore::take_expired`] next has work to do with
    /// no other event arriving, so the scheduling loop knows how long it
    /// may sleep. `None` when nothing queued carries a deadline, or the
    /// policy ignores them.
    pub fn next_deadline_ms(&self) -> Option<u64> {
        if !self.policy.honors_deadlines() {
            return None;
        }
        self.queue.iter().filter_map(QueuedJob::deadline_at).min()
    }

    /// Ask the policy for the next admission for a freed slot. Resolves
    /// adaptive checker configs and does the queued→inflight
    /// accounting. `None` leaves the slot idle.
    pub fn pick(&mut self, now_ms: u64) -> Option<Admission> {
        let picked = self.policy.pick(now_ms, &self.queue, &mut self.tenants)?;
        let job = self.queue.remove(picked.index);
        let tenant = job.tenant().to_string();
        self.tenants.note_admitted(&tenant);
        self.inflight += 1;
        if picked.stolen {
            self.stolen += 1;
        }
        let queue_wait_ms = now_ms.saturating_sub(job.enqueued_ms);
        if ccheck_obs::enabled() {
            let obs = sched_obs();
            obs.admitted.inc();
            if picked.stolen {
                obs.stolen.inc();
            }
            obs.queue_wait_ms.observe(queue_wait_ms);
        }
        let mut spec = job.spec;
        if spec.check == CheckMode::Adaptive {
            let (its, buckets, log2_rhat) = self.tuner.config_for(&tenant);
            spec.iterations = its;
            spec.buckets = buckets;
            spec.log2_rhat = log2_rhat;
        }
        Some(Admission {
            job_id: job.job_id,
            spec,
            stolen: picked.stolen,
            queue_wait_ms,
        })
    }

    /// Feed one finished job's receipt back: tenant accounting, the
    /// WFQ cost estimate (per-scope comm volume), the adaptive tuner,
    /// and the wall-time histogram behind retry hints.
    pub fn complete(&mut self, receipt: &Receipt) {
        let tenant = receipt.tenant.as_deref().unwrap_or(DEFAULT_TENANT);
        let cost = receipt.comm.map_or(0, |c| c.total_bytes);
        self.tenants.note_completed(tenant, cost);
        self.inflight = self.inflight.saturating_sub(1);
        self.tuner.observe(tenant, receipt.verdict);
        self.wall_hist.observe(receipt.wall_ms.max(1));
    }

    /// Replay one ledgered receipt's verdict into the adaptive tuner —
    /// the restart path (`docs/PROTOCOL.md` §6.4): feeding the ledger
    /// back in append order restores every tenant's ladder rung
    /// exactly, because the tuner is a pure fold over the verdict
    /// stream. Deliberately touches *only* the tuner: the replayed jobs
    /// are not inflight and their tenant counters describe a dead
    /// world.
    pub fn replay_verdict(&mut self, tenant: &str, verdict: Verdict) {
        self.tuner.observe(tenant, verdict);
    }

    /// Jobs accepted but not yet admitted.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is queued.
    pub fn queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Jobs currently marked inflight.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Jobs admitted over quota by work stealing.
    pub fn stolen(&self) -> u64 {
        self.stolen
    }

    /// Queued jobs refused for missed deadlines.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// The live tenant table (tests and summaries).
    pub fn tenants(&self) -> &TenantTable {
        &self.tenants
    }

    /// The adaptive tuner (tests and summaries).
    pub fn tuner(&self) -> &AdaptiveTuner {
        &self.tuner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CheckUsed, JobOp, ReceiptComm, Verdict};
    use crate::sched::tuner::{LADDER, START_LEVEL};

    fn spec(tenant: Option<&str>) -> JobSpec {
        JobSpec {
            tenant: tenant.map(String::from),
            ..JobSpec::default()
        }
    }

    fn receipt(tenant: Option<&str>, verdict: Verdict) -> Receipt {
        Receipt {
            job_id: 1,
            op: JobOp::Reduce,
            tenant: tenant.map(String::from),
            admit_seq: 1,
            verdict,
            check: CheckUsed::default(),
            digest: 0,
            elems: 0,
            output_elems: 0,
            wall_ms: 100,
            timing: None,
            comm: Some(ReceiptComm {
                total_bytes: 5_000,
                ..ReceiptComm::default()
            }),
            spec_fingerprint: None,
            content_hash: None,
            prev_hash: None,
        }
    }

    #[test]
    fn fifo_core_is_pr4_admission() {
        let mut core = SchedCore::new(&PolicyCfg::Fifo, 2, 1);
        core.try_enqueue(0, 1, spec(None)).unwrap();
        core.try_enqueue(0, 2, spec(None)).unwrap();
        // Queue cap refusal: exact PR-4 message, no hint.
        let refusal = core.try_enqueue(0, 3, spec(None)).unwrap_err();
        assert_eq!(
            refusal.message,
            "busy: submission queue is full, retry later"
        );
        assert_eq!(refusal.retry_after_ms, None);
        // FIFO order, and deadlines are ignored entirely.
        assert!(core.take_expired(u64::MAX).is_empty());
        assert_eq!(core.pick(0).unwrap().job_id, 1);
        assert_eq!(core.pick(0).unwrap().job_id, 2);
        assert!(core.pick(0).is_none());
    }

    #[test]
    fn non_fifo_busy_refusals_carry_a_hint() {
        let mut core = SchedCore::new(&PolicyCfg::priority_aging(), 1, 1);
        core.try_enqueue(0, 1, spec(None)).unwrap();
        let refusal = core.try_enqueue(0, 2, spec(None)).unwrap_err();
        assert!(refusal.message.contains("busy"));
        assert!(refusal.retry_after_ms.unwrap() > 0);
    }

    #[test]
    fn deadlines_expire_with_a_hinted_reason() {
        let mut core = SchedCore::new(&PolicyCfg::priority_aging(), 8, 1);
        let with_deadline = JobSpec {
            deadline_ms: Some(50),
            ..spec(Some("t"))
        };
        core.try_enqueue(0, 1, with_deadline).unwrap();
        core.try_enqueue(0, 2, spec(Some("t"))).unwrap();
        assert!(core.take_expired(49).is_empty(), "not yet");
        assert_eq!(core.next_deadline_ms(), Some(50));
        let refused = core.take_expired(50);
        assert_eq!(refused.len(), 1);
        assert_eq!(refused[0].0, 1);
        assert_eq!(refused[0].1, "t");
        assert!(refused[0].2.contains("deadline missed"), "{}", refused[0].2);
        assert!(refused[0].2.contains("retry"), "{}", refused[0].2);
        assert_eq!(core.refused(), 1);
        // The deadline-free job is untouched, and sets no alarm.
        assert_eq!(core.queue_len(), 1);
        assert_eq!(core.next_deadline_ms(), None);
        assert_eq!(core.tenants().get("t").queued, 1);
    }

    #[test]
    fn adaptive_specs_are_resolved_at_admission() {
        let mut core = SchedCore::new(&PolicyCfg::Fifo, 8, 1);
        let adaptive = JobSpec {
            check: CheckMode::Adaptive,
            ..spec(Some("t"))
        };
        core.try_enqueue(0, 1, adaptive.clone()).unwrap();
        let admitted = core.pick(0).unwrap();
        let (its, buckets, log2_rhat) = LADDER[START_LEVEL];
        assert_eq!(admitted.spec.iterations, its);
        assert_eq!(admitted.spec.buckets, buckets);
        assert_eq!(admitted.spec.log2_rhat, log2_rhat);

        // A flagged receipt escalates the tenant; the next adaptive
        // admission resolves one rung up.
        core.complete(&receipt(Some("t"), Verdict::Rejected));
        core.try_enqueue(1, 2, adaptive).unwrap();
        let escalated = core.pick(1).unwrap();
        assert_eq!(
            (
                escalated.spec.iterations,
                escalated.spec.buckets,
                escalated.spec.log2_rhat
            ),
            LADDER[START_LEVEL + 1]
        );
        // Explicit specs are never rewritten.
        core.try_enqueue(2, 3, spec(Some("t"))).unwrap();
        let explicit = core.pick(2).unwrap();
        assert_eq!(explicit.spec.iterations, JobSpec::default().iterations);
    }

    #[test]
    fn completion_feeds_wall_and_cost_ewmas() {
        let mut core = SchedCore::new(&PolicyCfg::deadline_wfq(), 8, 2);
        core.try_enqueue(0, 1, spec(Some("t"))).unwrap();
        core.pick(0).unwrap();
        let hint_before = core.retry_hint_ms();
        let mut r = receipt(Some("t"), Verdict::Verified);
        r.wall_ms = 100_000;
        core.complete(&r);
        assert!(core.retry_hint_ms() > hint_before);
        assert_eq!(core.inflight(), 0);
        assert!(core.tenants().get("t").cost_ewma > 0);
    }

    #[test]
    fn tenant_table_is_bounded() {
        let mut core = SchedCore::new(&PolicyCfg::deadline_wfq(), 1 << 20, 1);
        // Cheaper than 4096 enqueues: pre-populate the table, then the
        // next unseen tenant bounces while a known one still enters.
        for i in 0..MAX_TENANTS {
            core.tenants.state_mut(&format!("t{i}"));
        }
        let refusal = core.try_enqueue(0, 1, spec(Some("fresh"))).unwrap_err();
        assert!(
            refusal.message.contains("tenant table"),
            "{}",
            refusal.message
        );
        assert!(core.try_enqueue(0, 2, spec(Some("t7"))).is_ok());
    }
}
