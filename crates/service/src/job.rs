//! The service's job model: what clients submit ([`JobSpec`]) and what
//! they get back ([`Receipt`]).
//!
//! A job is a *description* of a checked computation — dataset spec,
//! operation, check configuration, optional injected fault — never the
//! data itself: datasets are regenerated deterministically from the
//! seed on every PE (the workload generators are indexed PRNGs), so a
//! submission is a few hundred bytes regardless of `n`.
//!
//! Specs travel on two codecs: JSON (client ↔ PE 0, line-delimited) and
//! [`Wire`] (PE 0 → all PEs, on the control scope).

use ccheck_net::Wire;

use crate::json::Json;

/// The operation a job runs and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOp {
    /// Sum aggregation (`reduce_by_key`) over a Zipf workload, verified
    /// by the sum checker (§4).
    Reduce,
    /// Distributed sample sort over uniform integers, verified by the
    /// sort checker (Theorem 7).
    Sort,
    /// Index-wise zip of two derived sequences, verified by the Zip
    /// checker (Theorem 11).
    Zip,
}

impl JobOp {
    /// Protocol name (`"reduce"`, `"sort"`, `"zip"`).
    pub fn name(&self) -> &'static str {
        match self {
            JobOp::Reduce => "reduce",
            JobOp::Sort => "sort",
            JobOp::Zip => "zip",
        }
    }

    /// Parse a protocol name.
    pub fn parse(name: &str) -> Result<JobOp, String> {
        match name {
            "reduce" => Ok(JobOp::Reduce),
            "sort" => Ok(JobOp::Sort),
            "zip" => Ok(JobOp::Zip),
            other => Err(format!("unknown op {other:?} (reduce|sort|zip)")),
        }
    }
}

/// A deterministic fault to inject into the job's output on PE 0 —
/// named after the manipulator applied (see `ccheck-manip`): for
/// `reduce` one of the Table-4 sum manipulators, for `sort` a
/// sorted-output manipulator, for `zip` a zipped-output manipulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Manipulator name, e.g. `"bitflip"`, `"dupneighbor"`.
    pub kind: String,
    /// Seed for the manipulator's own randomness.
    pub seed: u64,
}

/// How a job's checker configuration is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Use the spec's own `iterations`/`buckets`/`log2_rhat` as given.
    #[default]
    Explicit,
    /// Let the scheduler's per-tenant adaptive tuner pick
    /// `(its, b, r̂)` from the tenant's recent receipts: escalate after
    /// flagged jobs, relax toward the cheap config after a clean
    /// streak. The resolved config is broadcast with the admitted spec
    /// (all PEs see the same values) and recorded in the receipt.
    Adaptive,
}

impl CheckMode {
    /// Protocol name (`"explicit"`, `"adaptive"`).
    pub fn name(&self) -> &'static str {
        match self {
            CheckMode::Explicit => "explicit",
            CheckMode::Adaptive => "adaptive",
        }
    }

    /// Parse a protocol name.
    pub fn parse(name: &str) -> Result<CheckMode, String> {
        match name {
            "explicit" => Ok(CheckMode::Explicit),
            "adaptive" => Ok(CheckMode::Adaptive),
            other => Err(format!("unknown check mode {other:?} (explicit|adaptive)")),
        }
    }
}

/// A complete checking-job description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Operation to run and check.
    pub op: JobOp,
    /// Global element count of the dataset.
    pub n: u64,
    /// Distinct keys (reduce) / value range (sort); ignored for zip.
    pub keys: u64,
    /// Workload seed; same seed + same spec = same dataset.
    pub seed: u64,
    /// Streaming chunk size in elements; 0 = one-shot (materialized)
    /// execution. Chunked jobs verify with the streaming sketch paths
    /// and report `Rejected` (no retry/fallback) on corruption.
    pub chunk: u64,
    /// Checker iterations (sum checker `its`; perm/zip repetitions).
    pub iterations: u32,
    /// Sum checker bucket count (reduce only).
    pub buckets: u32,
    /// Sum checker `log₂ r̂` (reduce only).
    pub log2_rhat: u32,
    /// Retry budget before falling back (one-shot reduce/sort only).
    pub max_retries: u32,
    /// Optional injected fault.
    pub fault: Option<FaultSpec>,
    /// Owning tenant, for fairness/quota accounting and adaptive
    /// tuning. `None` is the anonymous default tenant (PR-4 semantics).
    pub tenant: Option<String>,
    /// Scheduling priority; higher runs sooner under `PriorityAging`.
    /// 0 (the default) reproduces PR-4 FIFO behavior under `Fifo`.
    pub priority: u32,
    /// Admission deadline in milliseconds from submission: if the job
    /// is still queued when it expires, the scheduler refuses it with a
    /// retry hint instead of running it late. `None` = no deadline.
    /// Ignored by the `Fifo` policy (PR-4 semantics).
    pub deadline_ms: Option<u64>,
    /// Whether the checker config is the spec's own or tuner-chosen.
    pub check: CheckMode,
    /// Client-supplied job id (≥ 1) for idempotent resubmission: the
    /// service adopts it as the job's id, and a later submission of the
    /// same `(tenant, job_id)` with an identical spec fingerprint is
    /// answered from the receipt ledger instead of re-running
    /// (`docs/PROTOCOL.md` §7). `None` lets the service assign one.
    pub job_id: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            op: JobOp::Reduce,
            n: 100_000,
            keys: 1_000,
            seed: 1,
            chunk: 0,
            iterations: 4,
            buckets: 16,
            log2_rhat: 9,
            max_retries: 2,
            fault: None,
            tenant: None,
            priority: 0,
            deadline_ms: None,
            check: CheckMode::Explicit,
            job_id: None,
        }
    }
}

impl JobSpec {
    /// Reject obviously unusable specs before they reach the world.
    ///
    /// The `n` caps are memory guardrails for a shared service: only a
    /// chunked **reduce** keeps its footprint independent of `n`
    /// (O(distinct keys + chunk·p)); every other mode materializes
    /// O(n/p) per PE (sort/zip hold their local share even when
    /// chunked, and one-shot jobs hold input + output), so a huge `n`
    /// there would OOM the whole multi-tenant world, not just the job.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("n must be positive".into());
        }
        let bounded_memory = self.op == JobOp::Reduce && self.chunk > 0;
        if bounded_memory {
            if self.n > 1 << 40 {
                return Err("n exceeds the 2^40 cap for chunked reduce jobs".into());
            }
            if self.keys > 1 << 22 {
                return Err(
                    "keys exceeds the 2^22 cap (the distinct-key table is held in memory)".into(),
                );
            }
        } else if self.n > 1 << 26 {
            return Err(
                "n exceeds the 2^26 cap for jobs that materialize their share \
                 (only chunked reduce jobs run at bounded memory; cap 2^40 there)"
                    .into(),
            );
        }
        if matches!(self.op, JobOp::Reduce | JobOp::Sort) && self.keys == 0 {
            return Err("keys must be positive".into());
        }
        if self.iterations == 0 || self.iterations > 64 {
            return Err("iterations must be in 1..=64".into());
        }
        // Bounds mirror (and slightly tighten) the asserts in
        // `SumCheckConfig::new`: a remote submission must be refused
        // here, never allowed to panic a job worker.
        if self.buckets < 2 || self.buckets > 1 << 16 || !self.buckets.is_power_of_two() {
            return Err("buckets must be a power of two in 2..=65536".into());
        }
        if !(1..=62).contains(&self.log2_rhat) {
            return Err("log2_rhat must be in 1..=62".into());
        }
        if self.max_retries > 8 {
            return Err("max_retries must be at most 8".into());
        }
        if let Some(tenant) = &self.tenant {
            if tenant.is_empty() || tenant.len() > 64 {
                return Err("tenant must be 1..=64 characters".into());
            }
            if !tenant.chars().all(|c| c.is_ascii_graphic()) {
                return Err("tenant must be printable ASCII without spaces".into());
            }
        }
        if self.priority > 1_000_000 {
            return Err("priority must be at most 1000000".into());
        }
        if self.job_id == Some(0) {
            return Err("job_id must be positive (ids are 1-based)".into());
        }
        Ok(())
    }

    /// Content fingerprint for idempotent resubmission: the SHA-256 of
    /// the spec's canonical JSON with the `job_id` member removed, so
    /// the *same work* under a different client-chosen id fingerprints
    /// identically, and a conflicting respray of an existing id is
    /// detectable (`docs/PROTOCOL.md` §7).
    pub fn fingerprint(&self) -> String {
        let mut json = self.to_json();
        if let Json::Obj(map) = &mut json {
            map.remove("job_id");
        }
        ccheck_hashing::sha256_hex(json.render().as_bytes())
    }

    /// Encode for the client protocol.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("op", Json::from(self.op.name())),
            ("n", Json::from(self.n)),
            ("keys", Json::from(self.keys)),
            ("seed", Json::from(self.seed)),
            ("chunk", Json::from(self.chunk)),
            ("iterations", Json::from(self.iterations as u64)),
            ("buckets", Json::from(self.buckets as u64)),
            ("log2_rhat", Json::from(self.log2_rhat as u64)),
            ("max_retries", Json::from(self.max_retries as u64)),
        ];
        if let Some(fault) = &self.fault {
            pairs.push((
                "fault",
                Json::obj([
                    ("kind", Json::from(fault.kind.as_str())),
                    ("seed", Json::from(fault.seed)),
                ]),
            ));
        }
        // Scheduling fields are emitted only when they deviate from the
        // PR-4 defaults, so old-style submissions render unchanged.
        if let Some(tenant) = &self.tenant {
            pairs.push(("tenant", Json::from(tenant.as_str())));
        }
        if self.priority != 0 {
            pairs.push(("priority", Json::from(self.priority as u64)));
        }
        if let Some(deadline) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::from(deadline)));
        }
        if self.check != CheckMode::Explicit {
            pairs.push(("check", Json::from(self.check.name())));
        }
        if let Some(job_id) = self.job_id {
            pairs.push(("job_id", Json::from(job_id)));
        }
        Json::obj(pairs)
    }

    /// Decode from the client protocol; absent fields take the
    /// [`JobSpec::default`] values.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let d = JobSpec::default();
        let u64_field = |key: &str, fallback: u64| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(fallback),
                Some(j) => j.as_u64().ok_or_else(|| format!("{key} must be a u64")),
            }
        };
        let u32_field = |key: &str, fallback: u32| -> Result<u32, String> {
            u64_field(key, fallback as u64)?
                .try_into()
                .map_err(|_| format!("{key} out of range"))
        };
        let op = match v.get("op") {
            None => d.op,
            Some(j) => JobOp::parse(j.as_str().ok_or("op must be a string")?)?,
        };
        let fault = match v.get("fault") {
            None | Some(Json::Null) => None,
            Some(f) => Some(FaultSpec {
                kind: f
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("fault.kind must be a string")?
                    .to_string(),
                seed: match f.get("seed") {
                    None => 0,
                    Some(s) => s.as_u64().ok_or("fault.seed must be a u64")?,
                },
            }),
        };
        let tenant = match v.get("tenant") {
            None | Some(Json::Null) => None,
            Some(t) => Some(t.as_str().ok_or("tenant must be a string")?.to_string()),
        };
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(j) => Some(j.as_u64().ok_or("deadline_ms must be a u64")?),
        };
        let check = match v.get("check") {
            None | Some(Json::Null) => CheckMode::Explicit,
            Some(j) => CheckMode::parse(j.as_str().ok_or("check must be a string")?)?,
        };
        let job_id = match v.get("job_id") {
            None | Some(Json::Null) => None,
            Some(j) => Some(j.as_u64().ok_or("job_id must be a u64")?),
        };
        Ok(JobSpec {
            op,
            n: u64_field("n", d.n)?,
            keys: u64_field("keys", d.keys)?,
            seed: u64_field("seed", d.seed)?,
            chunk: u64_field("chunk", d.chunk)?,
            iterations: u32_field("iterations", d.iterations)?,
            buckets: u32_field("buckets", d.buckets)?,
            log2_rhat: u32_field("log2_rhat", d.log2_rhat)?,
            max_retries: u32_field("max_retries", d.max_retries)?,
            fault,
            tenant,
            priority: u32_field("priority", 0)?,
            deadline_ms,
            check,
            job_id,
        })
    }
}

impl Wire for FaultSpec {
    fn write(&self, buf: &mut Vec<u8>) {
        self.kind.write(buf);
        self.seed.write(buf);
    }

    fn read(input: &mut &[u8]) -> Option<Self> {
        Some(FaultSpec {
            kind: String::read(input)?,
            seed: u64::read(input)?,
        })
    }

    fn wire_size(&self) -> usize {
        self.kind.wire_size() + 8
    }
}

/// A spec on the wire: the op tag, the dataset and checker numbers as
/// one tuple, then each optional field as an `Option` (a 0/1 tag, then
/// the value) and the check mode as a `bool`.
impl Wire for JobSpec {
    fn write(&self, buf: &mut Vec<u8>) {
        let op = match self.op {
            JobOp::Reduce => 0u8,
            JobOp::Sort => 1,
            JobOp::Zip => 2,
        };
        op.write(buf);
        (
            self.n,
            self.keys,
            self.seed,
            self.chunk,
            (
                self.iterations,
                self.buckets,
                self.log2_rhat,
                self.max_retries,
            ),
        )
            .write(buf);
        self.fault.write(buf);
        self.tenant.write(buf);
        self.priority.write(buf);
        self.deadline_ms.write(buf);
        matches!(self.check, CheckMode::Adaptive).write(buf);
        self.job_id.write(buf);
    }

    fn read(input: &mut &[u8]) -> Option<Self> {
        let op = match u8::read(input)? {
            0 => JobOp::Reduce,
            1 => JobOp::Sort,
            2 => JobOp::Zip,
            _ => return None,
        };
        let (n, keys, seed, chunk, (iterations, buckets, log2_rhat, max_retries)) =
            Wire::read(input)?;
        Some(JobSpec {
            op,
            n,
            keys,
            seed,
            chunk,
            iterations,
            buckets,
            log2_rhat,
            max_retries,
            fault: Wire::read(input)?,
            tenant: Wire::read(input)?,
            priority: Wire::read(input)?,
            deadline_ms: Wire::read(input)?,
            check: if bool::read(input)? {
                CheckMode::Adaptive
            } else {
                CheckMode::Explicit
            },
            job_id: Wire::read(input)?,
        })
    }

    fn wire_size(&self) -> usize {
        1 + 4 * 8
            + 4 * 4
            + self.fault.wire_size()
            + self.tenant.wire_size()
            + 4
            + self.deadline_ms.wire_size()
            + 1
            + self.job_id.wire_size()
    }
}

/// How a job's check concluded. All PEs observe the same verdict (the
/// checkers end in an all-agree reduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The operation verified on the first try.
    Verified,
    /// The operation verified after this many rejected attempts.
    VerifiedAfterRetry(u32),
    /// Every attempt was rejected; the slow reference path produced the
    /// result (graceful degradation, §8 of the paper).
    FellBack,
    /// The check rejected and the execution mode has no fallback
    /// (chunked streaming jobs, zip jobs).
    Rejected,
}

impl Verdict {
    /// Protocol name.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Verified => "verified",
            Verdict::VerifiedAfterRetry(_) => "retried",
            Verdict::FellBack => "fellback",
            Verdict::Rejected => "rejected",
        }
    }

    /// Whether the delivered result is trustworthy (everything except
    /// `Rejected`: a fallback result was recomputed by the reference).
    pub fn result_ok(&self) -> bool {
        !matches!(self, Verdict::Rejected)
    }
}

/// Per-job communication accounting, from the job's scoped
/// communicator's own [`ccheck_net::CommStats`] — byte-for-byte what
/// the job would report running alone on a dedicated world. It covers
/// the job up to its final collective, which carries every PE's counters
/// to PE 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReceiptComm {
    /// Total payload bytes across all PEs.
    pub total_bytes: u64,
    /// Bottleneck communication volume (max over PEs of max(sent, recv)).
    pub bottleneck_bytes: u64,
    /// Total point-to-point messages.
    pub total_msgs: u64,
    /// Maximum latency rounds on any PE.
    pub max_rounds: u64,
}

/// Per-phase timing of one job, measured by the worker and sealed into
/// the ledger with the rest of the receipt (`docs/PROTOCOL.md` §4).
/// All values are milliseconds; `exec_ms + check_ms ≤ wall_ms` (both
/// are sub-intervals of the receipt's wall clock), and `queue_wait_ms`
/// precedes the wall-clock window entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReceiptTiming {
    /// Milliseconds the job waited in the submission queue before
    /// admission (0 for jobs run standalone, outside a service).
    pub queue_wait_ms: u64,
    /// Milliseconds spent generating input and running the operation
    /// (everything except checking).
    pub exec_ms: u64,
    /// Milliseconds spent in the checker.
    pub check_ms: u64,
}

/// The checker configuration a job actually ran with — the spec's own
/// values for `CheckMode::Explicit`, or the scheduler's tuner pick for
/// `CheckMode::Adaptive` (how clients observe the adaptive ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckUsed {
    /// Checker iterations the job ran with.
    pub iterations: u32,
    /// Sum-checker bucket count the job ran with.
    pub buckets: u32,
    /// Sum-checker `log₂ r̂` the job ran with.
    pub log2_rhat: u32,
    /// Whether the config was tuner-chosen.
    pub adaptive: bool,
}

/// The verdict receipt a client gets back for a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct Receipt {
    /// The service-assigned job id.
    pub job_id: u64,
    /// The operation that ran.
    pub op: JobOp,
    /// The tenant the job was submitted under, if any.
    pub tenant: Option<String>,
    /// 1-based position in the world's admission order (0 when the job
    /// ran standalone, outside a service). Lets clients and tests
    /// observe scheduling decisions: a job admitted ahead of
    /// earlier-submitted ones has a smaller `admit_seq`.
    pub admit_seq: u64,
    /// How the check concluded.
    pub verdict: Verdict,
    /// The checker configuration the job actually ran with.
    pub check: CheckUsed,
    /// Digest of the delivered output, invariant under sharding (how
    /// the output is split across PEs), so clients can compare runs.
    /// For `reduce` it is order-insensitive (the output is a multiset);
    /// for `sort`/`zip` it mixes in global positions (the output is a
    /// sequence, so order damage must change the digest).
    pub digest: u64,
    /// Global input elements processed.
    pub elems: u64,
    /// Global output elements delivered.
    pub output_elems: u64,
    /// Wall-clock milliseconds on PE 0 (not comparable across runs).
    pub wall_ms: u64,
    /// Per-phase timing (queue wait / execution / checking), measured
    /// by the worker; `queue_wait_ms` is stamped from the scheduler's
    /// admission record. Part of the canonical serialization, so it is
    /// sealed into the ledger with everything else.
    pub timing: Option<ReceiptTiming>,
    /// Per-job communication volumes (present on PE 0's receipt).
    pub comm: Option<ReceiptComm>,
    /// SHA-256 (hex) of the spec's canonical JSON (minus `job_id`),
    /// stamped by the daemon at completion; drives `(tenant, job_id)`
    /// idempotency (`docs/PROTOCOL.md` §7). `None` outside a service.
    pub spec_fingerprint: Option<String>,
    /// SHA-256 (hex) of this receipt's canonical serialization
    /// (`docs/PROTOCOL.md` §6.2), stamped when the receipt is sealed
    /// into the ledger. `None` until ledgered.
    pub content_hash: Option<String>,
    /// Chain hash of the previous ledgered receipt from the same tenant
    /// (the all-zeros genesis hash for the tenant's first entry), per
    /// `docs/PROTOCOL.md` §6.3. `None` until ledgered.
    pub prev_hash: Option<String>,
}

impl Receipt {
    /// Encode for the client protocol.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("job_id", Json::from(self.job_id)),
            ("op", Json::from(self.op.name())),
            ("admit_seq", Json::from(self.admit_seq)),
            ("verdict", Json::from(self.verdict.name())),
            (
                "retries",
                Json::from(match self.verdict {
                    Verdict::VerifiedAfterRetry(r) => r as u64,
                    _ => 0,
                }),
            ),
            ("result_ok", Json::from(self.verdict.result_ok())),
            ("digest", Json::from(self.digest)),
            ("elems", Json::from(self.elems)),
            ("output_elems", Json::from(self.output_elems)),
            ("wall_ms", Json::from(self.wall_ms)),
        ];
        if let Some(tenant) = &self.tenant {
            pairs.push(("tenant", Json::from(tenant.as_str())));
        }
        pairs.push((
            "check",
            Json::obj([
                ("iterations", Json::from(self.check.iterations as u64)),
                ("buckets", Json::from(self.check.buckets as u64)),
                ("log2_rhat", Json::from(self.check.log2_rhat as u64)),
                ("adaptive", Json::Bool(self.check.adaptive)),
            ]),
        ));
        if let Some(timing) = &self.timing {
            pairs.push((
                "timing",
                Json::obj([
                    ("queue_wait_ms", Json::from(timing.queue_wait_ms)),
                    ("exec_ms", Json::from(timing.exec_ms)),
                    ("check_ms", Json::from(timing.check_ms)),
                ]),
            ));
        }
        if let Some(comm) = &self.comm {
            pairs.push((
                "comm",
                Json::obj([
                    ("total_bytes", Json::from(comm.total_bytes)),
                    ("bottleneck_bytes", Json::from(comm.bottleneck_bytes)),
                    ("total_msgs", Json::from(comm.total_msgs)),
                    ("max_rounds", Json::from(comm.max_rounds)),
                ]),
            ));
        }
        if let Some(fp) = &self.spec_fingerprint {
            pairs.push(("spec_fingerprint", Json::from(fp.as_str())));
        }
        if let Some(hash) = &self.content_hash {
            pairs.push(("content_hash", Json::from(hash.as_str())));
        }
        if let Some(hash) = &self.prev_hash {
            pairs.push(("prev_hash", Json::from(hash.as_str())));
        }
        Json::obj(pairs)
    }

    /// The receipt's canonical serialization (`docs/PROTOCOL.md` §6.2):
    /// the single-line JSON rendering with keys in byte-sorted order and
    /// the `content_hash` / `prev_hash` members removed — exactly the
    /// bytes the ledger content-hashes. Deterministic: the codec renders
    /// object keys sorted (`BTreeMap`) and integers exactly (`i128`,
    /// never floats), so the same receipt always produces the same
    /// bytes.
    pub fn canonical_json(&self) -> String {
        let mut json = self.to_json();
        if let Json::Obj(map) = &mut json {
            map.remove("content_hash");
            map.remove("prev_hash");
        }
        json.render()
    }

    /// SHA-256 (hex) of [`Receipt::canonical_json`] — the receipt's
    /// identity in the ledger. Self-contained: any holder of the receipt
    /// JSON can recompute and compare it, with no access to the service.
    ///
    /// ```
    /// use ccheck_service::Receipt;
    ///
    /// let receipt = Receipt::example();
    /// let hash = receipt.content_hash();
    /// assert_eq!(hash.len(), 64, "hex-encoded SHA-256");
    /// // The hash covers the canonical bytes, not the sealed fields:
    /// let mut sealed = receipt.clone();
    /// sealed.content_hash = Some(hash.clone());
    /// assert_eq!(sealed.content_hash(), hash);
    /// ```
    pub fn content_hash(&self) -> String {
        ccheck_hashing::sha256_hex(self.canonical_json().as_bytes())
    }

    /// A fixed, fully populated receipt for documentation examples and
    /// the `docs/PROTOCOL.md` §6.2 worked example (byte-asserted in the
    /// ledger's unit tests).
    pub fn example() -> Receipt {
        Receipt {
            job_id: 7,
            op: JobOp::Reduce,
            tenant: Some("acme".into()),
            admit_seq: 3,
            verdict: Verdict::VerifiedAfterRetry(1),
            check: CheckUsed {
                iterations: 2,
                buckets: 16,
                log2_rhat: 10,
                adaptive: true,
            },
            digest: 1234567890123456789,
            elems: 100000,
            output_elems: 1000,
            wall_ms: 42,
            // Phases nest inside the 42 ms wall clock (5 ms of queue
            // wait precede it).
            timing: Some(ReceiptTiming {
                queue_wait_ms: 5,
                exec_ms: 30,
                check_ms: 7,
            }),
            comm: Some(ReceiptComm {
                total_bytes: 4096,
                bottleneck_bytes: 1024,
                total_msgs: 77,
                max_rounds: 12,
            }),
            // The fingerprint of the spec this receipt answers:
            // `JobSpec { tenant: Some("acme"), check: CheckMode::Adaptive,
            // job_id: Some(7), ..JobSpec::default() }` (see the
            // fingerprint doc and `docs/PROTOCOL.md` §7).
            spec_fingerprint: Some(
                "3c2dda6ed69065bba00b066d354918cef719a9d24b65dbefe6a6646ca58ab73b".into(),
            ),
            content_hash: None,
            prev_hash: None,
        }
    }

    /// Decode from the client protocol.
    pub fn from_json(v: &Json) -> Result<Receipt, String> {
        let field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("receipt missing {key}"))
        };
        let verdict = match v.get("verdict").and_then(Json::as_str) {
            Some("verified") => Verdict::Verified,
            Some("retried") => Verdict::VerifiedAfterRetry(field("retries")? as u32),
            Some("fellback") => Verdict::FellBack,
            Some("rejected") => Verdict::Rejected,
            other => return Err(format!("bad verdict {other:?}")),
        };
        // Optional for protocol compatibility with pre-observability
        // receipts.
        let timing = match v.get("timing") {
            None | Some(Json::Null) => None,
            Some(t) => {
                let sub = |key: &str| -> Result<u64, String> {
                    t.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("receipt timing missing {key}"))
                };
                Some(ReceiptTiming {
                    queue_wait_ms: sub("queue_wait_ms")?,
                    exec_ms: sub("exec_ms")?,
                    check_ms: sub("check_ms")?,
                })
            }
        };
        let comm = match v.get("comm") {
            None | Some(Json::Null) => None,
            Some(c) => {
                let sub = |key: &str| -> Result<u64, String> {
                    c.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("receipt comm missing {key}"))
                };
                Some(ReceiptComm {
                    total_bytes: sub("total_bytes")?,
                    bottleneck_bytes: sub("bottleneck_bytes")?,
                    total_msgs: sub("total_msgs")?,
                    max_rounds: sub("max_rounds")?,
                })
            }
        };
        // Optional for protocol compatibility with pre-scheduler receipts.
        let check = match v.get("check") {
            None | Some(Json::Null) => CheckUsed::default(),
            Some(c) => {
                let sub = |key: &str| -> Result<u64, String> {
                    c.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("receipt check missing {key}"))
                };
                CheckUsed {
                    iterations: sub("iterations")? as u32,
                    buckets: sub("buckets")? as u32,
                    log2_rhat: sub("log2_rhat")? as u32,
                    adaptive: c.get("adaptive").and_then(Json::as_bool).unwrap_or(false),
                }
            }
        };
        Ok(Receipt {
            job_id: field("job_id")?,
            op: JobOp::parse(
                v.get("op")
                    .and_then(Json::as_str)
                    .ok_or("receipt missing op")?,
            )?,
            tenant: match v.get("tenant") {
                None | Some(Json::Null) => None,
                Some(t) => Some(t.as_str().ok_or("tenant must be a string")?.to_string()),
            },
            admit_seq: v.get("admit_seq").and_then(Json::as_u64).unwrap_or(0),
            verdict,
            check,
            digest: field("digest")?,
            elems: field("elems")?,
            output_elems: field("output_elems")?,
            wall_ms: field("wall_ms")?,
            timing,
            comm,
            spec_fingerprint: opt_str(v, "spec_fingerprint")?,
            content_hash: opt_str(v, "content_hash")?,
            prev_hash: opt_str(v, "prev_hash")?,
        })
    }
}

/// Optional string member of a JSON object (`None` when absent or null).
fn opt_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => Ok(Some(
            j.as_str()
                .ok_or_else(|| format!("{key} must be a string"))?
                .to_string(),
        )),
    }
}

/// Control-plane message broadcast from PE 0 to every daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlMsg {
    /// Run `spec` as job `job_id` in slot `slot` (scope `slot + 1`).
    Admit {
        /// Service-assigned job id.
        job_id: u64,
        /// In-flight slot index (determines the tag scope).
        slot: u32,
        /// 1-based position in the world's admission order, stamped
        /// into the receipt as `admit_seq`. Broadcast explicitly (not
        /// derived from per-PE admit counts) so a restarted world
        /// resumes numbering after the ledger's replayed maximum.
        seq: u64,
        /// Milliseconds the job spent in the submission queue before
        /// this admission, measured by the scheduler on PE 0 and
        /// broadcast so every PE stamps the same receipt timing.
        queue_wait_ms: u64,
        /// The job to run.
        spec: JobSpec,
    },
    /// Collective metrics gather: every PE contributes its observability
    /// snapshot over the control scope; PE 0 merges the world view and
    /// answers the waiting `metrics` protocol clients.
    Metrics,
    /// Collective trace gather: every PE contributes its span-ring
    /// snapshot over the control scope; PE 0 filters the named job's
    /// events into one merged cross-PE timeline and answers the
    /// waiting `timeline` protocol clients.
    Trace {
        /// The job whose timeline was requested.
        job_id: u64,
    },
    /// Drain complete: join workers, barrier, exit.
    Shutdown,
}

impl Wire for CtlMsg {
    fn write(&self, buf: &mut Vec<u8>) {
        match self {
            CtlMsg::Admit {
                job_id,
                slot,
                seq,
                queue_wait_ms,
                spec,
            } => {
                1u8.write(buf);
                job_id.write(buf);
                slot.write(buf);
                seq.write(buf);
                queue_wait_ms.write(buf);
                spec.write(buf);
            }
            CtlMsg::Metrics => 2u8.write(buf),
            CtlMsg::Trace { job_id } => {
                3u8.write(buf);
                job_id.write(buf);
            }
            CtlMsg::Shutdown => 0u8.write(buf),
        }
    }

    fn read(input: &mut &[u8]) -> Option<Self> {
        match u8::read(input)? {
            1 => Some(CtlMsg::Admit {
                job_id: u64::read(input)?,
                slot: u32::read(input)?,
                seq: u64::read(input)?,
                queue_wait_ms: u64::read(input)?,
                spec: JobSpec::read(input)?,
            }),
            2 => Some(CtlMsg::Metrics),
            3 => Some(CtlMsg::Trace {
                job_id: u64::read(input)?,
            }),
            0 => Some(CtlMsg::Shutdown),
            _ => None,
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            CtlMsg::Admit { spec, .. } => 1 + 8 + 4 + 8 + 8 + spec.wire_size(),
            CtlMsg::Metrics => 1,
            CtlMsg::Trace { .. } => 1 + 8,
            CtlMsg::Shutdown => 1,
        }
    }
}

/// Client-visible job status.
//
// `Done` dwarfs the other variants, but the receipt is the whole point
// of a finished job's status and statuses live one-per-job — boxing
// would trade an indirection on every poll/wait for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Accepted, waiting for a free slot.
    Queued,
    /// Admitted to the world, executing.
    Running,
    /// Complete, receipt available.
    Done(Receipt),
    /// Accepted but never run: the scheduler refused it while queued
    /// (e.g. its admission deadline expired). The reason carries a
    /// retry hint.
    Refused(String),
}

impl JobStatus {
    /// Protocol name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Refused(_) => "refused",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::wire;

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec::default(),
            JobSpec {
                op: JobOp::Sort,
                n: 12345,
                keys: 1 << 20,
                seed: u64::MAX,
                chunk: 4096,
                iterations: 2,
                buckets: 64,
                log2_rhat: 12,
                max_retries: 0,
                fault: Some(FaultSpec {
                    kind: "dupneighbor".into(),
                    seed: 7,
                }),
                tenant: Some("team-a".into()),
                priority: 7,
                deadline_ms: Some(2_500),
                check: CheckMode::Adaptive,
                job_id: Some(42),
            },
            JobSpec {
                op: JobOp::Zip,
                chunk: 1,
                fault: Some(FaultSpec {
                    kind: "swappairs".into(),
                    seed: 0,
                }),
                ..JobSpec::default()
            },
            JobSpec {
                tenant: Some("b".into()),
                deadline_ms: Some(0),
                ..JobSpec::default()
            },
        ]
    }

    #[test]
    fn spec_wire_roundtrip() {
        for spec in specs() {
            let encoded = wire::encode(&spec);
            assert_eq!(encoded.len(), spec.wire_size());
            let decoded: JobSpec = wire::decode(&encoded).expect("decodes");
            assert_eq!(decoded, spec);
        }
    }

    /// The spec's wire bytes are pinned: the default spec, and one with
    /// every optional field set (fault, tenant, deadline, adaptive
    /// check, client job id).
    #[test]
    fn spec_wire_bytes_are_pinned() {
        let pinned = [
            "00a086010000000000e803000000000000010000000000000000000000000000\
             0004000000100000000900000002000000000000000000000000",
            "0139300000000000000000100000000000ffffffffffffffff00100000000000\
             0002000000400000000c00000000000000010b000000000000006475706e6569\
             6768626f7207000000000000000106000000000000007465616d2d6107000000\
             01c40900000000000001012a00000000000000",
        ];
        for (spec, hex) in specs().iter().zip(pinned) {
            let encoded = wire::encode(spec);
            let rendered: String = encoded.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(rendered, hex, "{spec:?}");
            assert_eq!(encoded.len(), spec.wire_size());
        }
    }

    #[test]
    fn spec_json_roundtrip() {
        for spec in specs() {
            let json = spec.to_json();
            let parsed = crate::json::parse(&json.render()).unwrap();
            assert_eq!(JobSpec::from_json(&parsed).unwrap(), spec);
        }
    }

    #[test]
    fn spec_json_defaults_fill_in() {
        let parsed = crate::json::parse(r#"{"op":"sort","n":42}"#).unwrap();
        let spec = JobSpec::from_json(&parsed).unwrap();
        assert_eq!(spec.op, JobOp::Sort);
        assert_eq!(spec.n, 42);
        assert_eq!(spec.iterations, JobSpec::default().iterations);
        assert_eq!(spec.fault, None);
        // Absent scheduling fields decode to the PR-4 semantics.
        assert_eq!(spec.tenant, None);
        assert_eq!(spec.priority, 0);
        assert_eq!(spec.deadline_ms, None);
        assert_eq!(spec.check, CheckMode::Explicit);
        assert_eq!(spec.job_id, None);
    }

    #[test]
    fn default_spec_json_has_no_scheduling_fields() {
        // PR-4-shape submissions render identically: the scheduling
        // fields appear only when set.
        let rendered = JobSpec::default().to_json().render();
        for key in ["tenant", "priority", "deadline_ms", "check", "job_id"] {
            assert!(!rendered.contains(key), "{key} leaked into {rendered}");
        }
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        let bad = [
            JobSpec {
                n: 0,
                ..JobSpec::default()
            },
            JobSpec {
                buckets: 3,
                ..JobSpec::default()
            },
            // 1 is a power of two but below the checker's d >= 2 floor;
            // it must be refused here, not panic inside the job worker.
            JobSpec {
                buckets: 1,
                ..JobSpec::default()
            },
            JobSpec {
                log2_rhat: 0,
                ..JobSpec::default()
            },
            JobSpec {
                log2_rhat: 63,
                ..JobSpec::default()
            },
            JobSpec {
                iterations: 0,
                ..JobSpec::default()
            },
            // One-shot jobs materialize O(n/p) per PE: a huge n must be
            // refused (it would OOM the shared world), even though the
            // same n is fine for a bounded-memory chunked reduce.
            JobSpec {
                n: 1 << 30,
                chunk: 0,
                ..JobSpec::default()
            },
            JobSpec {
                op: JobOp::Sort,
                n: 1 << 30,
                chunk: 4096,
                ..JobSpec::default()
            },
            JobSpec {
                n: 1 << 30,
                chunk: 4096,
                keys: 1 << 30,
                ..JobSpec::default()
            },
            JobSpec {
                tenant: Some("".into()),
                ..JobSpec::default()
            },
            JobSpec {
                tenant: Some("has space".into()),
                ..JobSpec::default()
            },
            JobSpec {
                tenant: Some("x".repeat(65)),
                ..JobSpec::default()
            },
            JobSpec {
                priority: 1_000_001,
                ..JobSpec::default()
            },
            JobSpec {
                job_id: Some(0),
                ..JobSpec::default()
            },
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "{spec:?}");
        }
        assert!(JobSpec::default().validate().is_ok());
        // The bounded-memory mode keeps its big-data cap.
        assert!(JobSpec {
            n: 1 << 30,
            chunk: 4096,
            ..JobSpec::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn ctl_msg_wire_roundtrip() {
        for msg in [
            CtlMsg::Shutdown,
            CtlMsg::Metrics,
            CtlMsg::Trace { job_id: 12 },
            CtlMsg::Admit {
                job_id: 7,
                slot: 3,
                seq: 19,
                queue_wait_ms: 250,
                spec: specs().remove(1),
            },
        ] {
            let encoded = wire::encode(&msg);
            assert_eq!(encoded.len(), msg.wire_size());
            assert_eq!(wire::decode::<CtlMsg>(&encoded), Some(msg));
        }
    }

    #[test]
    fn receipt_json_roundtrip() {
        let receipt = Receipt {
            job_id: 9,
            op: JobOp::Reduce,
            tenant: Some("team-a".into()),
            admit_seq: 4,
            verdict: Verdict::VerifiedAfterRetry(2),
            check: CheckUsed {
                iterations: 4,
                buckets: 16,
                log2_rhat: 9,
                adaptive: true,
            },
            digest: 0xDEAD_BEEF_CAFE,
            elems: 1_000_000,
            output_elems: 999,
            wall_ms: 123,
            timing: Some(ReceiptTiming {
                queue_wait_ms: 17,
                exec_ms: 90,
                check_ms: 33,
            }),
            comm: Some(ReceiptComm {
                total_bytes: 4096,
                bottleneck_bytes: 1024,
                total_msgs: 77,
                max_rounds: 12,
            }),
            spec_fingerprint: Some("ab".repeat(32)),
            content_hash: Some("cd".repeat(32)),
            prev_hash: Some("0".repeat(64)),
        };
        let parsed = crate::json::parse(&receipt.to_json().render()).unwrap();
        assert_eq!(Receipt::from_json(&parsed).unwrap(), receipt);

        let bare = Receipt {
            comm: None,
            timing: None,
            tenant: None,
            verdict: Verdict::Rejected,
            spec_fingerprint: None,
            content_hash: None,
            prev_hash: None,
            ..receipt
        };
        let parsed = crate::json::parse(&bare.to_json().render()).unwrap();
        assert_eq!(Receipt::from_json(&parsed).unwrap(), bare);
    }

    #[test]
    fn canonical_json_excludes_seal_fields_and_is_stable() {
        // PROTOCOL.md §6.2: the canonical form covers every receipt
        // member *except* content_hash/prev_hash, so sealing a receipt
        // does not change its content hash.
        let unsealed = Receipt::example();
        let mut sealed = unsealed.clone();
        sealed.content_hash = Some(unsealed.content_hash());
        sealed.prev_hash = Some("0".repeat(64));
        assert_eq!(sealed.canonical_json(), unsealed.canonical_json());
        assert_eq!(sealed.content_hash(), unsealed.content_hash());
        // But the covered fields do bind: any content change rehashes.
        let mut tampered = sealed.clone();
        tampered.digest ^= 1;
        assert_ne!(tampered.content_hash(), sealed.content_hash());
    }

    #[test]
    fn spec_fingerprint_ignores_job_id_only() {
        // §7: the same work under different client-chosen ids must
        // fingerprint identically…
        let a = JobSpec {
            job_id: Some(1),
            ..JobSpec::default()
        };
        let b = JobSpec {
            job_id: Some(2),
            ..JobSpec::default()
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), JobSpec::default().fingerprint());
        assert_eq!(a.fingerprint().len(), 64);
        // …while any real spec difference must not.
        let c = JobSpec {
            seed: 999,
            ..JobSpec::default()
        };
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn verdict_result_ok() {
        assert!(Verdict::Verified.result_ok());
        assert!(Verdict::VerifiedAfterRetry(1).result_ok());
        assert!(Verdict::FellBack.result_ok());
        assert!(!Verdict::Rejected.result_ok());
    }

    #[test]
    fn op_names_roundtrip() {
        for op in [JobOp::Reduce, JobOp::Sort, JobOp::Zip] {
            assert_eq!(JobOp::parse(op.name()).unwrap(), op);
        }
        assert!(JobOp::parse("join").is_err());
    }
}
