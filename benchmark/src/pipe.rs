//! The direct pipeline: generate → op → check through the public
//! dataflow and checker functions, each phase timed between barriers,
//! with no service, executor or generator time inside the checker's
//! figure. This is the paper's own experiment (Table 5 / Fig. 4) and the
//! floor the service workloads are compared to.

use std::time::{Duration, Instant};

use ccheck::permutation::{PermCheckConfig, PermChecker};
use ccheck::sketch::Sketch;
use ccheck::sort::{check_boundaries, check_sorted};
use ccheck::zip::{ZipCheckConfig, ZipChecker};
use ccheck::{SumCheckConfig, SumChecker};
use ccheck_dataflow::{reduce_by_key, sort, zip};
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_manip::{SortManipulator, SumManipulator, ZipManipulator};
use ccheck_net::{run_on, Backend, Comm};
use ccheck_workloads::{local_range, uniform_ints_iter, zipf_valued_pairs_iter};

use crate::specs::{mix, PES};
use crate::trace::{Trace, NONE};

/// One rung of the pipeline ladder: an operation with its checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeKind {
    /// `reduce_by_key` + `SumChecker` at the service default, 4×16 Tab64 m9.
    ReduceService,
    /// `reduce_by_key` + `SumChecker` at the paper's 4×8 CRC m5.
    ReducePaper,
    /// `sort` + the sort checker (`check_sorted`'s steps).
    Sort,
    /// `zip` + `ZipChecker`.
    Zip,
}

pub const PIPE_KINDS: [PipeKind; 4] = [
    PipeKind::ReduceService,
    PipeKind::ReducePaper,
    PipeKind::Sort,
    PipeKind::Zip,
];

/// The three ops at the checker configuration the service runs them with.
pub const SERVICE_KINDS: [PipeKind; 3] = [PipeKind::ReduceService, PipeKind::Sort, PipeKind::Zip];

impl PipeKind {
    pub fn name(self) -> &'static str {
        match self {
            PipeKind::ReduceService => "reduce/4x16-tab64-m9",
            PipeKind::ReducePaper => "reduce/4x8-crc-m5",
            PipeKind::Sort => "sort",
            PipeKind::Zip => "zip",
        }
    }

    fn sum_cfg(self) -> SumCheckConfig {
        match self {
            PipeKind::ReducePaper => SumCheckConfig::new(4, 8, 5, HasherKind::Crc32c),
            _ => SumCheckConfig::new(4, 16, 9, HasherKind::Tab64),
        }
    }
}

/// The permutation checker the service's sort jobs run with.
pub fn service_perm_checker(seed: u64) -> PermChecker {
    let mut cfg = PermCheckConfig::hash_sum(HasherKind::Tab64, 32);
    cfg.iterations = 4;
    PermChecker::new(cfg, seed)
}

/// The zip checker the service's zip jobs run with.
pub fn service_zip_checker(seed: u64) -> ZipChecker {
    ZipChecker::new(
        ZipCheckConfig {
            hasher: HasherKind::Tab64,
            iterations: 4,
        },
        seed,
    )
}

/// One PE's view of one pipeline. Instants are the phase boundaries
/// (each taken right after a barrier); the three `check_*` instants split
/// the checker where its public API allows (reduce, sort).
#[derive(Debug, Clone, Copy)]
pub struct PipeSample {
    pub kind: PipeKind,
    pub start: Instant,
    pub generated: Instant,
    pub op_start: Instant,
    pub op_done: Instant,
    pub check_start: Instant,
    /// End of `checker.sketch()` + `update_iter(input)`, where split.
    pub fold_in_done: Option<Instant>,
    /// End of the output fold, where split.
    pub fold_out_done: Option<Instant>,
    pub check_done: Instant,
    pub end: Instant,
    /// Bytes this PE sent / received inside the checker calls alone.
    pub check_sent: u64,
    pub check_recv: u64,
    /// This PE's counters over the whole pipeline, barriers included.
    pub whole: Counters,
    pub local_elems: u64,
    pub accepted: bool,
}

impl PipeSample {
    pub fn gen_us(&self) -> f64 {
        micros(self.start, self.generated)
    }
    pub fn op_us(&self) -> f64 {
        micros(self.op_start, self.op_done)
    }
    pub fn check_us(&self) -> f64 {
        micros(self.check_start, self.check_done)
    }
    pub fn wall_us(&self) -> f64 {
        micros(self.start, self.end)
    }
}

pub fn micros(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// The slowest PE's figure for one pipeline: with a barrier on each side
/// of every phase, that is what the phase cost the world.
pub fn max_over_pes(per_pe: &[PipeSample], f: impl Fn(&PipeSample) -> f64) -> f64 {
    per_pe.iter().map(f).fold(0.0, f64::max)
}

/// Bottleneck volume of the checker calls alone: max over PEs of
/// max(sent, received) — `StatsSnapshot::bottleneck_volume` on the
/// checker's own delta. Each PE reads only its own counters, which it
/// alone updates, so the count is exact.
pub fn check_bottleneck_bytes(per_pe: &[PipeSample]) -> u64 {
    per_pe
        .iter()
        .map(|s| s.check_sent.max(s.check_recv))
        .max()
        .unwrap_or(0)
}

/// One PE's own communication counters, or a difference of two readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub sent: u64,
    pub recv: u64,
    pub msgs: u64,
    pub rounds: u64,
}

impl Counters {
    fn read(comm: &Comm) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let pe = comm.stats().pe(comm.rank());
        Counters {
            sent: pe.bytes_sent.load(Relaxed),
            recv: pe.bytes_recv.load(Relaxed),
            msgs: pe.msgs_sent.load(Relaxed),
            rounds: pe.rounds.load(Relaxed),
        }
    }

    fn since(self, earlier: Counters) -> Counters {
        Counters {
            sent: self.sent - earlier.sent,
            recv: self.recv - earlier.recv,
            msgs: self.msgs - earlier.msgs,
            rounds: self.rounds - earlier.rounds,
        }
    }
}

/// The `ReceiptComm` figures of a set of pipelines (`[pipeline][pe]`),
/// from the PEs' own counters: total bytes, bottleneck volume, messages,
/// and latency rounds, each summed over the pipelines.
pub fn comm_totals(pipelines: &[Vec<PipeSample>]) -> [u64; 4] {
    let mut totals = [0; 4];
    for per_pe in pipelines {
        totals[0] += per_pe.iter().map(|s| s.whole.sent).sum::<u64>();
        totals[1] += per_pe
            .iter()
            .map(|s| s.whole.sent.max(s.whole.recv))
            .max()
            .unwrap_or(0);
        totals[2] += per_pe.iter().map(|s| s.whole.msgs).sum::<u64>();
        totals[3] += per_pe.iter().map(|s| s.whole.rounds).max().unwrap_or(0);
    }
    totals
}

/// Apply `apply` under successive seeds until it reports a real semantic
/// change (manipulators can no-op on unlucky picks).
fn tamper<T: Clone>(data: &mut [T], seed: u64, apply: impl Fn(&mut [T], u64) -> bool) {
    for offset in 0..1000 {
        let mut attempt = data.to_vec();
        if apply(&mut attempt, seed.wrapping_add(offset)) {
            data.clone_from_slice(&attempt);
            return;
        }
    }
    panic!("no manipulation changed the output in 1000 seeds");
}

/// What the checker saw: its split points and verdict.
struct Checked {
    fold_in_done: Option<Instant>,
    fold_out_done: Option<Instant>,
    accepted: bool,
}

/// Run one pipeline on this PE (SPMD: every PE calls it with the same
/// arguments). With `manipulate`, PE 0 corrupts its share of the op's
/// output with a `ccheck-manip` bit flip before the check, which must
/// then reject.
pub fn run_pipeline(
    comm: &mut Comm,
    kind: PipeKind,
    n: u64,
    keys: u64,
    seed: u64,
    manipulate: bool,
) -> PipeSample {
    let range = local_range(n as usize, comm.rank(), comm.size());
    let local_elems = range.len() as u64;
    let check_seed = mix(seed ^ 0xC4EC);
    let manip_seed = mix(seed ^ 0xFA17);
    let tamper_here = manipulate && comm.rank() == 0;

    let before = Counters::read(comm);
    comm.barrier();
    let start = Instant::now();
    match kind {
        PipeKind::ReduceService | PipeKind::ReducePaper => {
            let input: Vec<(u64, u64)> =
                zipf_valued_pairs_iter(seed, keys, 1 << 20, range).collect();
            let generated = Instant::now();
            // The op consumes its input; the copy it consumes is made
            // outside every timer.
            let consumed = input.clone();
            let hasher = Hasher::new(HasherKind::Tab64, seed ^ 0x7061_7274);
            comm.barrier();
            let op_start = Instant::now();
            let mut out = reduce_by_key(comm, consumed, &hasher, |a, b| a.wrapping_add(b));
            comm.barrier();
            let op_done = Instant::now();
            if tamper_here {
                tamper(&mut out, manip_seed, |d, s| {
                    SumManipulator::Bitflip.apply(d, s)
                });
            }
            let checker = SumChecker::new(kind.sum_cfg(), check_seed);
            finish(
                comm,
                kind,
                (before, start, generated, op_start, op_done),
                local_elems,
                |comm| {
                    let mut folded_in = checker.sketch();
                    folded_in.update_iter(input.iter().copied());
                    let fold_in_done = Instant::now();
                    let mut folded_out = checker.sketch();
                    folded_out.update_iter(out.iter().copied());
                    let fold_out_done = Instant::now();
                    Checked {
                        fold_in_done: Some(fold_in_done),
                        fold_out_done: Some(fold_out_done),
                        accepted: checker.check_distributed_sketches(comm, folded_in, folded_out),
                    }
                },
            )
        }
        PipeKind::Sort => {
            let input: Vec<u64> = uniform_ints_iter(seed, keys.max(2), range).collect();
            let generated = Instant::now();
            let consumed = input.clone();
            comm.barrier();
            let op_start = Instant::now();
            let mut out = sort(comm, consumed);
            comm.barrier();
            let op_done = Instant::now();
            if tamper_here {
                tamper(&mut out, manip_seed, |d, s| {
                    SortManipulator::Bitflip.apply(d, s)
                });
            }
            let perm = service_perm_checker(check_seed);
            finish(
                comm,
                kind,
                (before, start, generated, op_start, op_done),
                local_elems,
                |comm| {
                    // `check_sorted`, step for step, so the folds can be
                    // timed apart from the collectives.
                    let mut folded_in = perm.sketch();
                    folded_in.update_iter(input.iter().copied());
                    let fold_in_done = Instant::now();
                    let mut folded_out = perm.sketch();
                    folded_out.update_iter(out.iter().copied());
                    let locally_sorted = out.windows(2).all(|w| w[0] <= w[1]);
                    let fold_out_done = Instant::now();
                    let is_perm = perm.check_distributed_sketches(comm, folded_in, folded_out);
                    let boundaries_ok = check_boundaries(comm, &out);
                    Checked {
                        fold_in_done: Some(fold_in_done),
                        fold_out_done: Some(fold_out_done),
                        accepted: comm.all_agree(locally_sorted) && boundaries_ok && is_perm,
                    }
                },
            )
        }
        PipeKind::Zip => {
            let a: Vec<u64> = uniform_ints_iter(seed ^ 0xA11CE, u64::MAX, range.clone()).collect();
            let b: Vec<u64> = uniform_ints_iter(seed ^ 0xB0B, u64::MAX, range).collect();
            let generated = Instant::now();
            let (a_consumed, b_consumed) = (a.clone(), b.clone());
            comm.barrier();
            let op_start = Instant::now();
            let mut out = zip(comm, a_consumed, b_consumed);
            comm.barrier();
            let op_done = Instant::now();
            if tamper_here {
                tamper(&mut out, manip_seed, |d, s| {
                    ZipManipulator::Bitflip.apply(d, s)
                });
            }
            let checker = service_zip_checker(check_seed);
            finish(
                comm,
                kind,
                (before, start, generated, op_start, op_done),
                local_elems,
                // The zip checker's folds need the prefix sums its own
                // collective computes, so it is timed whole.
                |comm| Checked {
                    fold_in_done: None,
                    fold_out_done: None,
                    accepted: checker.check(comm, &a, &b, &out),
                },
            )
        }
    }
}

/// The check phase, shared by every arm: barrier, own-counter snapshot,
/// the checker, snapshot, barrier.
fn finish(
    comm: &mut Comm,
    kind: PipeKind,
    (before, start, generated, op_start, op_done): (Counters, Instant, Instant, Instant, Instant),
    local_elems: u64,
    check: impl FnOnce(&mut Comm) -> Checked,
) -> PipeSample {
    comm.barrier();
    let check_before = Counters::read(comm);
    let check_start = Instant::now();
    let checked = check(comm);
    let check_done = Instant::now();
    let in_check = Counters::read(comm).since(check_before);
    comm.barrier();
    PipeSample {
        kind,
        start,
        generated,
        op_start,
        op_done,
        check_start,
        fold_in_done: checked.fold_in_done,
        fold_out_done: checked.fold_out_done,
        check_done,
        end: Instant::now(),
        check_sent: in_check.sent,
        check_recv: in_check.recv,
        whole: Counters::read(comm).since(before),
        local_elems,
        accepted: checked.accepted,
    }
}

/// What rounds of pipelines to run in one world.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan<'a> {
    pub backend: Backend,
    pub kinds: &'a [PipeKind],
    pub n: u64,
    pub keys: u64,
    pub seed: u64,
    /// Always run this many rounds, then more until `budget` has passed.
    pub min_rounds: usize,
    pub budget: Duration,
    /// Record spans on every odd round (PE 0's clock, from `epoch`), so a
    /// traced run holds traced and untraced rounds of the same world.
    pub trace_odd_rounds: Option<Instant>,
}

/// Run rounds of pipelines in one `PES`-PE world: round `r` runs every
/// kind once, with seeds derived from `(seed, r, kind)`. PE 0 decides
/// after each round whether the budget allows another and broadcasts
/// it. Returns the samples as `[round][kind][pe]` and PE 0's spans.
pub fn run_rounds(plan: RoundPlan<'_>) -> (Vec<Vec<Vec<PipeSample>>>, Option<Trace>) {
    let per_pe: Vec<(Vec<Vec<PipeSample>>, Option<Trace>)> = run_on(plan.backend, PES, |comm| {
        let t0 = Instant::now();
        let mut rounds: Vec<Vec<PipeSample>> = Vec::new();
        let mut trace = plan
            .trace_odd_rounds
            .filter(|_| comm.rank() == 0)
            .map(|epoch| Trace::with_capacity(epoch, 1 << 16));
        loop {
            let r = rounds.len();
            let mut round = Vec::with_capacity(plan.kinds.len());
            for (k, &kind) in plan.kinds.iter().enumerate() {
                let seed = mix(plan.seed ^ ((r as u64) << 8) ^ k as u64);
                let sample = run_pipeline(comm, kind, plan.n, plan.keys, seed, false);
                if let Some(trace) = trace.as_mut().filter(|_| r % 2 == 1) {
                    record_pipeline_spans(trace, (r * plan.kinds.len() + k) as u64, &sample);
                }
                round.push(sample);
            }
            rounds.push(round);
            let more = rounds.len() < plan.min_rounds || t0.elapsed() < plan.budget;
            if !comm.broadcast(0, more) {
                return (rounds, trace);
            }
        }
    });
    let n_rounds = per_pe[0].0.len();
    let samples = (0..n_rounds)
        .map(|r| {
            (0..plan.kinds.len())
                .map(|k| per_pe.iter().map(|(rounds, _)| rounds[r][k]).collect())
                .collect()
        })
        .collect();
    let trace = per_pe.into_iter().next().and_then(|(_, trace)| trace);
    (samples, trace)
}

/// Spans of one pipeline: `pipeline` → `generate`, `op`, and the checker
/// as `check.fold_input`, `check.fold_output`, `check.collective` where
/// its API lets the folds be told apart (else one `check`).
fn record_pipeline_spans(trace: &mut Trace, job: u64, s: &PipeSample) {
    let at = |t: Instant| trace.at(t);
    let (start, generated, op_start, op_done) =
        (at(s.start), at(s.generated), at(s.op_start), at(s.op_done));
    let (check_start, check_done, end) = (at(s.check_start), at(s.check_done), at(s.end));
    let folds = s
        .fold_in_done
        .zip(s.fold_out_done)
        .map(|(i, o)| (at(i), at(o)));
    let root = trace.push("pipeline", start, end, NONE, job);
    trace.push("generate", start, generated, root, job);
    trace.push("op", op_start, op_done, root, job);
    match folds {
        Some((fold_in_done, fold_out_done)) => {
            trace.push("check.fold_input", check_start, fold_in_done, root, job);
            trace.push("check.fold_output", fold_in_done, fold_out_done, root, job);
            trace.push("check.collective", fold_out_done, check_done, root, job);
        }
        None => {
            trace.push("check", check_start, check_done, root, job);
        }
    }
}

/// Does the decomposed sort check agree with `check_sorted` itself, on a
/// clean and on a manipulated output? Run once per preflight, since the
/// pipeline times the steps rather than the function.
pub fn sort_check_matches_library(comm: &mut Comm, n: u64, keys: u64, seed: u64) -> bool {
    let range = local_range(n as usize, comm.rank(), comm.size());
    let input: Vec<u64> = uniform_ints_iter(seed, keys.max(2), range).collect();
    let clean = sort(comm, input.clone());
    let mut bad = clean.clone();
    if comm.rank() == 0 {
        tamper(&mut bad, mix(seed ^ 0xFA17), |d, s| {
            SortManipulator::Bitflip.apply(d, s)
        });
    }
    let perm = service_perm_checker(mix(seed ^ 0xC4EC));
    check_sorted(comm, &input, &clean, &perm) && !check_sorted(comm, &input, &bad, &perm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_pipelines_accept_and_manipulated_ones_reject() {
        for kind in PIPE_KINDS {
            for manipulate in [false, true] {
                let per_pe = run_on(Backend::Local, 2, |comm| {
                    run_pipeline(comm, kind, 3_000, 53, 5, manipulate)
                });
                for s in &per_pe {
                    assert_eq!(
                        s.accepted,
                        !manipulate,
                        "{} manipulate={manipulate}",
                        kind.name()
                    );
                    assert_eq!(s.local_elems, 1_500);
                    assert_eq!(s.fold_in_done.is_some(), kind != PipeKind::Zip);
                }
                assert!(check_bottleneck_bytes(&per_pe) > 0);
            }
        }
    }

    #[test]
    fn checker_bytes_do_not_depend_on_n_or_seed() {
        let bytes = |n: u64, seed: u64| -> Vec<u64> {
            PIPE_KINDS
                .iter()
                .map(|&kind| {
                    check_bottleneck_bytes(&run_on(Backend::Local, 2, |comm| {
                        run_pipeline(comm, kind, n, 97, seed, false)
                    }))
                })
                .collect()
        };
        let small = bytes(200, 1);
        assert_eq!(small, bytes(20_000, 2), "the sublinearity claim, exactly");
        // 4×16 and 4×8 tables differ in size.
        assert!(small[0] > small[1]);
    }

    #[test]
    fn decomposed_sort_check_agrees_with_check_sorted() {
        let verdicts = run_on(Backend::Local, 2, |comm| {
            sort_check_matches_library(comm, 2_000, 1_000, 9)
        });
        assert_eq!(verdicts, vec![true, true]);
    }
}
