//! Job execution: one SPMD function from [`JobSpec`] to [`Receipt`].
//!
//! [`execute_job`] is the *same* code whether it runs under the service
//! (over a scoped communicator, interleaved with other jobs) or
//! standalone on a dedicated world — which is what makes receipts
//! testable: the integration tests run each spec both ways and assert
//! verdict, digest, and per-job communication volumes are identical.
//!
//! Everything a job does is a pure function of its spec: datasets are
//! regenerated from the seed with indexed PRNG generators, checker
//! seeds derive from the spec seed, and injected faults are the
//! deterministic manipulators of `ccheck-manip` (retried over fault
//! seeds until one actually changes the semantics, so "inject a fault"
//! reliably means the checker has something to catch).

use std::time::Instant;

use ccheck::config::SumCheckConfig;
use ccheck::lanes::{settle, Lanes};
use ccheck::permutation::{PermCheckConfig, PermChecker};
use ccheck::sketch::{Sketch, Tee};
use ccheck::sort::check_globally_sorted;
use ccheck::zip::{ZipCheckConfig, ZipChecker};
use ccheck::SumChecker;
use ccheck_dataflow::{
    checked_with, reduce_by_key_chunked, reference_reduce, reference_sort, sort_chunked,
    zip_chunked, CheckedOutcome,
};
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_manip::{SortManipulator, SumManipulator, ZipManipulator};
use ccheck_net::Comm;
use ccheck_workloads::{local_range, uniform_ints_iter, zipf_valued_pairs_iter};

use crate::job::{JobOp, JobSpec, Receipt, ReceiptComm, ReceiptTiming, Verdict};

/// Microsecond accumulators for one job's phases. `generate` covers
/// a one-shot job's input materialization, zip's `b` included: the op
/// borrows it and the checker reads it (chunked jobs generate lazily
/// inside the operation, so their generate share rides in `execute`);
/// `execute` is the data operation itself (including injected faults,
/// every retried attempt and a fallback); `check` is checker time,
/// including the input fold every reduce and sort attempt's [`Tee`]
/// runs inside the operation's pass (see [`PhaseTimes::rebook_fold`]).
/// Whatever the job spent outside all three (digests, sort's digest
/// offset, a fallback's closing allreduce) is the receipt overhead,
/// reported to the metrics registry as the remainder.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseTimes {
    generate_us: u64,
    execute_us: u64,
    check_us: u64,
}

impl PhaseTimes {
    /// Move `fold_ns` of checker folding that ran inside the operation's
    /// timed pass from execute to check, so checker ÷ operation stays
    /// what it says.
    fn rebook_fold(&mut self, fold_ns: u64) {
        let fold_us = fold_ns / 1000;
        self.execute_us = self.execute_us.saturating_sub(fold_us);
        self.check_us += fold_us;
    }
}

/// Run `f`, adding its wall microseconds to `acc`.
fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_micros() as u64;
    out
}

/// The [`Tee`] observer of a single-pass job: fold each input block
/// into `sketch`, adding the fold's nanoseconds to `fold_ns` (a block
/// folds in a few µs, which whole microseconds would floor away).
fn fold_timed<'s, S: Sketch>(sketch: &'s mut S, fold_ns: &'s mut u64) -> impl FnMut(&[S::Item]) + 's
where
    S::Item: Copy,
{
    move |block| {
        let t = Instant::now();
        sketch.update_iter(block.iter().copied());
        *fold_ns += t.elapsed().as_nanos() as u64;
    }
}

/// Cached handles for the per-phase job histograms — resolved once so
/// the per-job cost is four atomic observes, not registry lookups.
struct ExecObs {
    jobs: std::sync::Arc<ccheck_obs::Counter>,
    generate_us: std::sync::Arc<ccheck_obs::Histogram>,
    execute_us: std::sync::Arc<ccheck_obs::Histogram>,
    check_us: std::sync::Arc<ccheck_obs::Histogram>,
    receipt_us: std::sync::Arc<ccheck_obs::Histogram>,
}

fn exec_obs() -> &'static ExecObs {
    static OBS: std::sync::OnceLock<ExecObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let reg = ccheck_obs::registry();
        ExecObs {
            jobs: reg.counter("exec.jobs"),
            generate_us: reg.histogram("exec.generate_us"),
            execute_us: reg.histogram("exec.execute_us"),
            check_us: reg.histogram("exec.check_us"),
            receipt_us: reg.histogram("exec.receipt_us"),
        }
    })
}

/// Check that a fault name is a known manipulator for the job's op.
pub fn validate_fault(spec: &JobSpec) -> Result<(), String> {
    let Some(fault) = &spec.fault else {
        return Ok(());
    };
    let known = match spec.op {
        JobOp::Reduce => sum_fault(&fault.kind).is_some(),
        JobOp::Sort => sort_fault(&fault.kind).is_some(),
        JobOp::Zip => zip_fault(&fault.kind).is_some(),
    };
    if known {
        Ok(())
    } else {
        Err(format!(
            "unknown fault {:?} for op {:?}",
            fault.kind,
            spec.op.name()
        ))
    }
}

/// The manipulator a fault kind names: its paper label, lowercased.
fn sum_fault(kind: &str) -> Option<SumManipulator> {
    SumManipulator::all()
        .into_iter()
        .find(|m| m.label().to_lowercase() == kind)
}

fn sort_fault(kind: &str) -> Option<SortManipulator> {
    SortManipulator::all()
        .into_iter()
        .find(|m| m.label().to_lowercase() == kind)
}

fn zip_fault(kind: &str) -> Option<ZipManipulator> {
    ZipManipulator::all()
        .into_iter()
        .find(|m| m.label().to_lowercase() == kind)
}

/// Inject the job's fault, if it names one of `manipulator`'s, into
/// PE 0's share of the output. The manipulator is retried over
/// successive seeds until it reports a real semantic change
/// (manipulators can no-op; an injected fault that does nothing would
/// make a fault-injection test vacuous). Gives up after 1000 seeds —
/// only possible on degenerate data.
fn inject<M, T: Clone>(
    comm: &Comm,
    spec: &JobSpec,
    out: &mut [T],
    manipulator: fn(&str) -> Option<M>,
    apply: fn(&M, &mut [T], u64) -> bool,
) {
    let Some(f) = spec.fault.as_ref().filter(|_| comm.rank() == 0) else {
        return;
    };
    let Some(m) = manipulator(&f.kind) else {
        return;
    };
    for offset in 0..1000 {
        let mut attempt = out.to_vec();
        if apply(&m, &mut attempt, f.seed.wrapping_add(offset)) {
            out.clone_from_slice(&attempt);
            return;
        }
    }
}

/// Splitmix64, for digests and derived seeds.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checker seed: a pure function of the *spec* (not the job id), so the
/// same spec produces the same check under the service and standalone.
fn check_seed(spec: &JobSpec) -> u64 {
    mix(spec.seed ^ 0xC4EC_u64 ^ ((spec.op as u64) << 56))
}

/// This PE's term of the order-insensitive digest of a pair multiset.
fn digest_pairs(pairs: &[(u64, u64)]) -> u64 {
    pairs
        .iter()
        .fold(0u64, |acc, &(k, v)| acc.wrapping_add(mix(k ^ mix(v))))
}

/// This PE's term of the order-*sensitive* digest of a distributed
/// sequence (position-mixed) — sorted/zipped outputs are sequences, so
/// two outputs with equal multisets but different orders must differ.
fn digest_sequence(start: u64, items: impl Iterator<Item = u64>) -> u64 {
    items.enumerate().fold(0u64, |acc, (offset, x)| {
        acc.wrapping_add(mix(x ^ mix(start + offset as u64)))
    })
}

/// One PE's share of what a receipt totals over the PEs: its digest
/// term, its output length, and its comm counters `[bytes sent, volume,
/// msgs sent, rounds]` as they stand just before the job's final
/// collective. That collective carries every PE's share to all of them
/// ([`settle`] beside the verdict, or one allreduce after a fallback),
/// combined by [`add_shares`]; the receipt's `comm` therefore stops
/// before it.
type Share = (u64, u64, [u64; 4]);

/// This PE's [`Share`] of an output of `elems` elements with digest term
/// `digest`. Read it just before the final collective.
fn share(comm: &Comm, digest: u64, elems: usize) -> Share {
    let mine = comm.own_stats();
    let counters = [mine.bytes_sent, mine.volume(), mine.msgs_sent, mine.rounds];
    (digest, elems as u64, counters)
}

/// Two [`Share`]s as one: digests add mod 2⁶⁴, lengths, bytes and
/// messages add, volume and rounds take the larger — so the total of all
/// PEs' shares holds the receipt's `digest`, `output_elems`,
/// `total_bytes`, `bottleneck_bytes`, `total_msgs` and `max_rounds`.
fn add_shares((d1, n1, c1): Share, (d2, n2, c2): Share) -> Share {
    let counters = [
        c1[0] + c2[0],
        c1[1].max(c2[1]),
        c1[2] + c2[2],
        c1[3].max(c2[3]),
    ];
    (d1.wrapping_add(d2), n1 + n2, counters)
}

/// A reduce output's [`Share`]: its pairs' order-insensitive digest term.
fn reduce_share(comm: &mut Comm, shard: &[(u64, u64)]) -> Share {
    share(comm, digest_pairs(shard), shard.len())
}

/// A sort output's [`Share`]: its position-mixed digest term, at the
/// global offset one prefix sum finds.
fn sort_share(comm: &mut Comm, out: &[u64]) -> Share {
    let (start, _) = comm.exclusive_prefix_sum(out.len() as u64);
    share(comm, digest_sequence(start, out.iter().copied()), out.len())
}

/// Per-job trace-correlation id: the `(tenant, job_id, admit_seq)`
/// triple every PE learns from `CtlMsg::Admit`. Stamped into the span
/// names a traced job emits, so one job's events are filterable out of
/// a whole world's rings — the basis of `ccheck-submit --timeline` and
/// the Chrome export's per-job lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCtx {
    /// Service-assigned job id.
    pub job_id: u64,
    /// Owning tenant (`""` = the default tenant).
    pub tenant: String,
    /// World admission sequence number.
    pub admit_seq: u64,
}

impl TraceCtx {
    /// The span name for one of this job's phases:
    /// `job{id}.{phase}@{tenant}#{admit_seq}`.
    pub fn span_name(&self, phase: &str) -> String {
        format!(
            "job{}.{phase}@{}#{}",
            self.job_id, self.tenant, self.admit_seq
        )
    }

    /// The name prefix identifying job `job_id`'s events (`job{id}.`).
    /// The trailing dot matters: it keeps `job3.` from matching
    /// `job31.execute`.
    pub fn prefix(job_id: u64) -> String {
        format!("job{job_id}.")
    }
}

/// Emit one job's phase lanes into the trace ring, laid end-to-end
/// from the job's start. Durations are the measured accumulators; the
/// real phases interleave (the checker folds the input inside the
/// operation's pass, and chunked jobs generate there too), so these
/// lanes show each phase's *cumulative share* of the wall clock, not
/// disjoint wall intervals — same attribution the receipt `timing`
/// block reports.
fn emit_phase_spans(ctx: &TraceCtx, start_us: u64, total_us: u64, ph: &PhaseTimes) {
    let mut at = start_us;
    for (phase, dur) in [
        ("generate", ph.generate_us),
        ("execute", ph.execute_us),
        ("check", ph.check_us),
    ] {
        ccheck_obs::span_at(&ctx.span_name(phase), at, dur.max(1));
        at += dur;
    }
    let receipt_us = total_us.saturating_sub(ph.generate_us + ph.execute_us + ph.check_us);
    ccheck_obs::span_at(&ctx.span_name("receipt"), at, receipt_us.max(1));
}

/// Run one checking job to completion on this communicator. SPMD: every
/// PE calls it with the same `(job_id, spec)`; every PE returns the same
/// verdict/digest/element counts, and PE 0's receipt carries the job's
/// communication volumes up to its final collective: the one that
/// settles the verdict and carries each PE's share of the receipt
/// totals — its digest term, output length and comm counters.
pub fn execute_job(comm: &mut Comm, job_id: u64, spec: &JobSpec) -> Receipt {
    execute_job_traced(comm, job_id, spec, None)
}

/// [`execute_job`] with an optional trace-correlation id. The daemon
/// passes the `CtlMsg::Admit` triple so every PE stamps this job's
/// phase spans with the same `(tenant, job_id, admit_seq)`; standalone
/// callers pass `None` and trace nothing job-specific.
pub fn execute_job_traced(
    comm: &mut Comm,
    job_id: u64,
    spec: &JobSpec,
    trace: Option<&TraceCtx>,
) -> Receipt {
    let _span = ccheck_obs::span("exec.job");
    let start_us = ccheck_obs::now_us();
    let t0 = Instant::now();
    let mut ph = PhaseTimes::default();
    let (verdict, totals) = match spec.op {
        JobOp::Reduce => reduce_job(comm, spec, &mut ph),
        JobOp::Sort => sort_job(comm, spec, &mut ph),
        JobOp::Zip => zip_job(comm, spec, &mut ph),
    };
    let (digest, output_elems, [total_bytes, bottleneck_bytes, total_msgs, max_rounds]) = totals;
    let total_us = t0.elapsed().as_micros() as u64;
    if ccheck_obs::enabled() {
        let obs = exec_obs();
        obs.jobs.inc();
        obs.generate_us.observe(ph.generate_us);
        obs.execute_us.observe(ph.execute_us);
        obs.check_us.observe(ph.check_us);
        obs.receipt_us
            .observe(total_us.saturating_sub(ph.generate_us + ph.execute_us + ph.check_us));
        if let Some(ctx) = trace {
            emit_phase_spans(ctx, start_us, total_us, &ph);
        }
    }
    Receipt {
        job_id,
        op: spec.op,
        tenant: spec.tenant.clone(),
        // Standalone runs have no admission order; the daemon stamps
        // the world's sequence number onto service receipts.
        admit_seq: 0,
        verdict,
        check: crate::job::CheckUsed {
            iterations: spec.iterations,
            buckets: spec.buckets,
            log2_rhat: spec.log2_rhat,
            adaptive: spec.check == crate::job::CheckMode::Adaptive,
        },
        digest,
        elems: spec.n,
        output_elems,
        wall_ms: total_us / 1000,
        // Sub-intervals of the wall clock above, so floor-to-ms keeps
        // `exec_ms + check_ms ≤ wall_ms` — the invariant the timing
        // e2e test asserts. Standalone runs never waited in a queue;
        // the daemon overwrites `queue_wait_ms` from the admission.
        timing: Some(ReceiptTiming {
            queue_wait_ms: 0,
            exec_ms: (ph.generate_us + ph.execute_us) / 1000,
            check_ms: ph.check_us / 1000,
        }),
        comm: (comm.rank() == 0).then_some(ReceiptComm {
            total_bytes,
            bottleneck_bytes,
            total_msgs,
            max_rounds,
        }),
        // Sealing fields (fingerprint + ledger hashes) are stamped by
        // the daemon when the receipt enters the ledger, never here.
        spec_fingerprint: None,
        content_hash: None,
        prev_hash: None,
    }
}

/// The op's chunk: `chunk = 0` (one-shot) is the unbounded chunk.
fn op_chunk(spec: &JobSpec) -> usize {
    match spec.chunk {
        0 => usize::MAX,
        chunk => chunk as usize,
    }
}

/// A job's input: its lazy generator, or the `Vec` a one-shot job holds,
/// read in place. One type for both, so a single pass is compiled once.
enum Input<'a, G, T> {
    Lazy(G),
    Held(std::iter::Copied<std::slice::Iter<'a, T>>),
}

impl<G: Iterator<Item = T>, T: Copy> Iterator for Input<'_, G, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        match self {
            Input::Lazy(items) => items.next(),
            Input::Held(items) => items.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Input::Lazy(items) => items.size_hint(),
            Input::Held(items) => items.size_hint(),
        }
    }
}

/// Run a job's single pass, `pass(comm, input, chunk, attempt, ph)` →
/// (the settled receipt totals, verified): the pass settles its verdict
/// with its output's [`Share`]. A chunked job makes it once over its
/// lazy input; a rejection stands. A one-shot job materializes the
/// input and makes the pass over the held `Vec` at `chunk = usize::MAX`,
/// through the shared retry loop, then `fallback` (booked to execute),
/// whose output's `share` one allreduce totals.
fn checked_job<G: Iterator<Item = T>, T: Copy, U>(
    comm: &mut Comm,
    spec: &JobSpec,
    ph: &mut PhaseTimes,
    input: G,
    mut pass: impl FnMut(&mut Comm, Input<'_, G, T>, usize, usize, &mut PhaseTimes) -> (Share, bool),
    fallback: fn(&mut Comm, Vec<T>) -> Vec<U>,
    share: fn(&mut Comm, &[U]) -> Share,
) -> (Verdict, Share) {
    if spec.chunk > 0 {
        let (totals, verified) = pass(comm, Input::Lazy(input), op_chunk(spec), 0, ph);
        return (verdict_of(verified), totals);
    }
    let data: Vec<T> = timed(&mut ph.generate_us, || input.collect());
    let mut fallback_us = 0;
    let fallback = |comm: &mut Comm, data| {
        let out = timed(&mut fallback_us, || fallback(comm, data));
        let mine = share(comm, &out);
        comm.allreduce(mine, add_shares)
    };
    let retries = spec.max_retries as usize;
    let (totals, outcome) = checked_with(comm, data, retries, fallback, |comm, data, i| {
        let held = Input::Held(data.iter().copied());
        pass(comm, held, usize::MAX, i, ph)
    });
    ph.execute_us += fallback_us;
    let verdict = match outcome {
        CheckedOutcome::FastPath => Verdict::Verified,
        CheckedOutcome::Retried { retries } => Verdict::VerifiedAfterRetry(retries as u32),
        CheckedOutcome::FellBack => Verdict::FellBack,
    };
    (verdict, totals)
}

/// The verdict of a job that has no retry: verified, or rejected.
fn verdict_of(verified: bool) -> Verdict {
    if verified {
        Verdict::Verified
    } else {
        Verdict::Rejected
    }
}

fn reduce_job(comm: &mut Comm, spec: &JobSpec, ph: &mut PhaseTimes) -> (Verdict, Share) {
    let range = local_range(spec.n as usize, comm.rank(), comm.size());
    let input = zipf_valued_pairs_iter(spec.seed, spec.keys, 1 << 20, range);
    let hasher = Hasher::new(HasherKind::Tab64, spec.seed ^ 0x7061_7274);
    let (its, buckets) = (spec.iterations as usize, spec.buckets as usize);
    let cfg = SumCheckConfig::new(its, buckets, spec.log2_rhat, HasherKind::Tab64);
    checked_job(
        comm,
        spec,
        ph,
        input,
        |comm, input, chunk, attempt, ph| {
            // A retry is checked with a fresh seed.
            let seed = check_seed(spec).wrapping_add(attempt as u64);
            let checker = SumChecker::new(cfg, seed);
            let mut seen = checker.sketch();
            let mut fold_ns = 0;
            let out = timed(&mut ph.execute_us, || {
                let mut tee = Tee::new(input, fold_timed(&mut seen, &mut fold_ns));
                let mut out =
                    reduce_by_key_chunked(comm, &mut tee, &hasher, chunk, |a, b| a.wrapping_add(b));
                tee.finish();
                inject(comm, spec, &mut out, sum_fault, SumManipulator::apply);
                out
            });
            ph.rebook_fold(fold_ns);
            let mine = reduce_share(comm, &out);
            let (verified, totals) = timed(&mut ph.check_us, || {
                let mut asserted = checker.sketch();
                asserted.update_iter(out.iter().copied());
                let lanes = checker.lanes(seen.finalize(), asserted.finalize());
                settle(comm, lanes, mine, add_shares)
            });
            (totals, verified)
        },
        reference_reduce,
        reduce_share,
    )
}

fn sort_job(comm: &mut Comm, spec: &JobSpec, ph: &mut PhaseTimes) -> (Verdict, Share) {
    let range = local_range(spec.n as usize, comm.rank(), comm.size());
    let input = uniform_ints_iter(spec.seed, spec.keys.max(2), range);
    let mut cfg = PermCheckConfig::hash_sum(HasherKind::Tab64, 32);
    cfg.iterations = spec.iterations as usize;
    // Every attempt is checked with the same checker.
    let perm = PermChecker::new(cfg, check_seed(spec));
    checked_job(
        comm,
        spec,
        ph,
        input,
        |comm, input, chunk, _, ph| {
            let mut seen = perm.sketch();
            let mut fold_ns = 0;
            let out = timed(&mut ph.execute_us, || {
                let mut tee = Tee::new(input, fold_timed(&mut seen, &mut fold_ns));
                let mut out = sort_chunked(comm, &mut tee, chunk);
                tee.finish();
                inject(comm, spec, &mut out, sort_fault, SortManipulator::apply);
                out
            });
            ph.rebook_fold(fold_ns);
            // Local/boundary sortedness (SPMD-consistent), then the
            // permutation fingerprint of the teed input against the
            // output, settled with the receipt totals.
            let sorted = timed(&mut ph.check_us, || check_globally_sorted(comm, &out));
            let mine = sort_share(comm, &out);
            let (is_perm, totals) = timed(&mut ph.check_us, || {
                let mut asserted = perm.sketch();
                asserted.update_iter(out.iter().copied());
                let lanes = perm.lanes(seen.finalize(), asserted.finalize());
                settle(comm, lanes, mine, add_shares)
            });
            (totals, sorted && is_perm)
        },
        reference_sort,
        sort_share,
    )
}

fn zip_job(comm: &mut Comm, spec: &JobSpec, ph: &mut PhaseTimes) -> (Verdict, Share) {
    let range = local_range(spec.n as usize, comm.rank(), comm.size());
    let a: Vec<u64> = timed(&mut ph.generate_us, || {
        uniform_ints_iter(spec.seed ^ 0xA11CE, u64::MAX, range.clone()).collect()
    });
    let b_iter = uniform_ints_iter(spec.seed ^ 0xB0B, u64::MAX, range);
    // One-shot: `b` is generated once, like `a`, and the op and the
    // checker both read it. Chunked: each streams `b`, since holding a
    // copy would defeat streaming.
    let held_b: Option<Vec<u64>> =
        (spec.chunk == 0).then(|| timed(&mut ph.generate_us, || b_iter.clone().collect()));
    let b = || match &held_b {
        Some(b) => Input::Held(b.iter().copied()),
        None => Input::Lazy(b_iter.clone()),
    };
    let len = a.len() as u64;
    let mut out = timed(&mut ph.execute_us, || {
        zip_chunked(comm, &a, (len, b()), op_chunk(spec))
    });
    inject(comm, spec, &mut out, zip_fault, ZipManipulator::apply);
    let checker = ZipChecker::new(
        ZipCheckConfig {
            hasher: HasherKind::Tab64,
            iterations: spec.iterations as usize,
        },
        check_seed(spec),
    );
    // `ZipChecker::check_stream` split in two: its prefix sum over the
    // three lengths also gives the output's digest offset, and its
    // verdict settles the receipt totals.
    let out_len = out.len() as u64;
    let (starts, [n, _, nz]) = timed(&mut ph.check_us, || {
        comm.exclusive_prefix_sums([len, len, out_len])
    });
    let zipped = out.iter().map(|&(x, y)| mix(x).wrapping_add(y));
    let mine = share(comm, digest_sequence(starts[2], zipped), out.len());
    let (verified, totals) = timed(&mut ph.check_us, || {
        // `a` and `b` have one length; an output of another global
        // length rejects before any stream is read.
        let lanes = if n == nz {
            let zipped = (out_len, out.iter().copied());
            checker.lanes(starts, (len, a.iter().copied()), (len, b()), zipped)
        } else {
            Lanes::veto(true)
        };
        settle(comm, lanes, mine, add_shares)
    });
    (verdict_of(verified), totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::FaultSpec;
    use ccheck::sketch::BLOCK;
    use ccheck_net::run;

    fn run_spec(p: usize, spec: JobSpec) -> Vec<Receipt> {
        run(p, move |comm| execute_job(comm, 1, &spec))
    }

    #[test]
    fn clean_jobs_verify_in_every_mode() {
        for op in [JobOp::Reduce, JobOp::Sort, JobOp::Zip] {
            for chunk in [0u64, 512] {
                let spec = JobSpec {
                    op,
                    n: 4_000,
                    keys: 97,
                    seed: 11,
                    chunk,
                    ..JobSpec::default()
                };
                let receipts = run_spec(3, spec);
                for r in &receipts {
                    assert_eq!(
                        r.verdict,
                        Verdict::Verified,
                        "{op:?} chunk={chunk} must verify"
                    );
                }
                // All PEs agree on digest and counts.
                assert!(receipts.windows(2).all(|w| {
                    w[0].digest == w[1].digest && w[0].output_elems == w[1].output_elems
                }));
                // PE 0 carries the comm volumes.
                assert!(receipts[0].comm.is_some());
                assert!(receipts[0].comm.unwrap().total_bytes > 0);
            }
        }
    }

    /// Chunk sizes that put the op's chunk boundaries on, just before and
    /// just after the tee's block boundaries (and one chunk per element).
    const TEE_EDGE_CHUNKS: [u64; 4] = [1, BLOCK as u64 - 1, BLOCK as u64, BLOCK as u64 + 1];

    #[test]
    fn faulty_oneshot_jobs_fall_back_and_still_deliver() {
        for (op, fault) in [
            (JobOp::Reduce, "bitflip"),
            (JobOp::Sort, "dupneighbor"),
            (JobOp::Sort, "swapadjacent"),
        ] {
            for p in [1, 3] {
                let spec = JobSpec {
                    op,
                    n: 3_000,
                    keys: 53,
                    seed: 5,
                    max_retries: 1,
                    fault: Some(FaultSpec {
                        kind: fault.into(),
                        seed: 3,
                    }),
                    ..JobSpec::default()
                };
                let clean = JobSpec {
                    fault: None,
                    ..spec.clone()
                };
                let faulty_receipts = run_spec(p, spec);
                let clean_receipts = run_spec(p, clean);
                for r in &faulty_receipts {
                    assert_eq!(r.verdict, Verdict::FellBack, "{op:?}/{fault} p={p}");
                }
                // Graceful degradation: the fallback recomputed the
                // correct result — same digest as the clean run.
                assert_eq!(
                    faulty_receipts[0].digest, clean_receipts[0].digest,
                    "{op:?}/{fault} p={p}"
                );
            }
        }
    }

    #[test]
    fn faulty_chunked_and_zip_jobs_reject() {
        let mut cases = vec![
            (JobOp::Zip, 3, 0u64, "swapcomponents"),
            (JobOp::Zip, 3, 256, "swappairs"),
        ];
        for p in [1, 3] {
            for chunk in TEE_EDGE_CHUNKS {
                cases.push((JobOp::Reduce, p, chunk, "bitflip"));
                cases.push((JobOp::Sort, p, chunk, "dupneighbor"));
            }
        }
        for (op, p, chunk, fault) in cases {
            let spec = JobSpec {
                op,
                n: 3_000,
                keys: 53,
                seed: 5,
                chunk,
                fault: Some(FaultSpec {
                    kind: fault.into(),
                    seed: 3,
                }),
                ..JobSpec::default()
            };
            let receipts = run_spec(p, spec);
            for r in &receipts {
                assert_eq!(
                    r.verdict,
                    Verdict::Rejected,
                    "{op:?}/{fault} p={p} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn chunked_and_oneshot_agree_on_digest() {
        let spec = |op, chunk| JobSpec {
            op,
            n: 5_000,
            keys: 101,
            seed: 23,
            chunk,
            ..JobSpec::default()
        };
        let mut cases = vec![
            (JobOp::Reduce, 4, 300),
            (JobOp::Sort, 4, 300),
            (JobOp::Zip, 4, 300),
        ];
        for p in [1, 3] {
            for chunk in TEE_EDGE_CHUNKS {
                cases.push((JobOp::Reduce, p, chunk));
                cases.push((JobOp::Sort, p, chunk));
            }
        }
        for (op, p, chunk) in cases {
            let oneshot = run_spec(p, spec(op, 0));
            let chunked = run_spec(p, spec(op, chunk));
            let case = format!("{op:?} p={p} chunk={chunk}");
            assert!(
                chunked.iter().all(|r| r.verdict == Verdict::Verified),
                "{case}"
            );
            assert_eq!(oneshot[0].digest, chunked[0].digest, "{case}");
            assert_eq!(oneshot[0].output_elems, chunked[0].output_elems, "{case}");
        }
    }

    #[test]
    fn traced_execution_emits_all_phase_lanes() {
        // Not run in parallel with other obs-flag tests in this crate;
        // the flag stays on for the duration.
        ccheck_obs::set_enabled(true);
        let ctx = TraceCtx {
            job_id: 424_242,
            tenant: "team-t".to_string(),
            admit_seq: 9,
        };
        let spec = JobSpec {
            op: JobOp::Reduce,
            n: 2_000,
            keys: 31,
            seed: 3,
            ..JobSpec::default()
        };
        let ctx_for_run = ctx.clone();
        run(2, move |comm| {
            let _ = execute_job_traced(comm, ctx_for_run.job_id, &spec, Some(&ctx_for_run));
        });
        let snap = ccheck_obs::trace_snapshot();
        let prefix = TraceCtx::prefix(ctx.job_id);
        for phase in ["generate", "execute", "check", "receipt"] {
            let name = ctx.span_name(phase);
            assert!(name.starts_with(&prefix), "{name}");
            assert!(
                snap.events.iter().any(|ev| ev.name == name),
                "missing phase lane {name}"
            );
        }
    }

    #[test]
    fn fault_validation() {
        let mut spec = JobSpec {
            fault: Some(FaultSpec {
                kind: "bitflip".into(),
                seed: 0,
            }),
            ..JobSpec::default()
        };
        assert!(validate_fault(&spec).is_ok());
        spec.fault = Some(FaultSpec {
            kind: "dupneighbor".into(),
            seed: 0,
        });
        assert!(validate_fault(&spec).is_err(), "sort fault on reduce op");
        spec.op = JobOp::Sort;
        assert!(validate_fault(&spec).is_ok());
        spec.fault = None;
        assert!(validate_fault(&spec).is_ok());
    }
}
