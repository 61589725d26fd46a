//! The four workloads: what each one runs, times and checks, and how its
//! samples become the named metrics.
//!
//! Load shape (all workloads): a world of `PES` = 2 PE threads in one
//! process, closed loop — every client blocks for its receipt, as
//! `ServiceClient::run` and `ccheck-submit --wait` do. A workload is a
//! warm-up round and then timed rounds in one world until `--seconds`
//! have passed; throughput metrics are medians over rounds, latency
//! percentiles pool all rounds.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ccheck_net::{run_on, Backend};
use ccheck_service::{JobOp, Receipt};
use ccheck_workloads::{local_range, zipf_valued_pairs_iter};

use crate::catalog::{self, PIPE_CHECK};
use crate::ladder;
use crate::pipe::{
    self, check_bottleneck_bytes, comm_totals, max_over_pes, PipeKind, PipeSample, RoundPlan,
    PIPE_KINDS, SERVICE_KINDS,
};
use crate::report::{Metric, WorkloadReport};
use crate::specs::{self, SvcShape, PES, PIPE_N};
use crate::stats::{mean, percentile, samples_beyond, summarize, supported_tail, Summary};
use crate::svc::{self, JobRecord, Round, Scratch, World};
use crate::trace::{self, Trace};

pub struct RunOpts {
    pub seed: u64,
    /// How long the timed rounds run.
    pub seconds: f64,
    pub traced: bool,
    /// `benchmark/out`: ledgers while running, span files at exit.
    pub out_dir: PathBuf,
    /// The harness's negative control: expect faulted jobs to verify.
    pub break_preflight: bool,
}

/// Set-up is measured this many times per run; the median is reported.
const SETUP_REPEATS: usize = 7;
/// A traced run spends this share of `--seconds` on workload rounds and
/// the rest of its time on the per-layer rows.
const TRACED_ROUND_SHARE: f64 = 0.5;

/// Operations attempted and failed so far, with what went wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn note(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    fn note_jobs(&mut self, jobs: &[JobRecord]) {
        for job in jobs {
            self.note(job.verified(), || match &job.outcome {
                Ok(r) => format!("job {} came back {:?}", r.job_id, r.verdict),
                Err(e) => format!("{} job failed: {e}", job.op.name()),
            });
        }
    }

    fn note_pipelines(&mut self, pipelines: &[Vec<PipeSample>]) {
        for per_pe in pipelines {
            self.note(per_pe.iter().all(|s| s.accepted), || {
                format!("clean {} pipeline was rejected", per_pe[0].kind.name())
            });
        }
    }
}

pub fn run(workload: &str, opts: &RunOpts) -> WorkloadReport {
    match specs::svc_shape(workload) {
        Some(shape) => run_svc(workload, &shape, opts),
        None => {
            assert_eq!(workload, PIPE_CHECK);
            run_pipe(opts)
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A percentile over all rounds pooled. Its spread is the quartiles of
/// the same percentile over (up to) five consecutive stretches of the
/// run: one round alone is too few samples to read a tail from.
fn pooled_percentile(per_round: &[Vec<f64>], pct: f64) -> Summary {
    let pooled: Vec<f64> = per_round.iter().flatten().copied().collect();
    let stretch = per_round.len().div_ceil(5);
    let stretches = summarize(
        &per_round
            .chunks(stretch)
            .map(|rounds| percentile(&rounds.concat(), pct))
            .collect::<Vec<_>>(),
    );
    Summary {
        n: pooled.len(),
        median: percentile(&pooled, pct),
        q1: stretches.q1,
        q3: stretches.q3,
    }
}

fn tail_note(n: usize) {
    let pct = catalog::TAIL_PERCENTILE;
    eprintln!(
        "job_latency_tail_ms is p{pct} of {n} samples ({} beyond it; the sample supports {})",
        samples_beyond(n, pct),
        match supported_tail(n) {
            Some(supported) if supported >= pct => format!("p{supported}"),
            _ => "less: lengthen --seconds".to_string(),
        }
    );
}

/// `trace.overhead_ratio` from a traced run's rounds, which alternate
/// untraced (even) and traced (odd): the ratio within each adjacent pair,
/// so that drift of the machine between pairs cancels, then the median.
fn trace_overhead_metric(elems_per_s: &[f64]) -> Metric {
    let ratios: Vec<f64> = elems_per_s
        .chunks_exact(2)
        .map(|pair| pair[1] / pair[0])
        .collect();
    Metric::new("trace.overhead_ratio", "ratio", summarize(&ratios))
}

// ---------------------------------------------------------------- service

fn receipts(round: &Round) -> impl Iterator<Item = (&JobRecord, &Receipt)> {
    round
        .jobs
        .iter()
        .filter_map(|j| j.outcome.as_ref().ok().map(|r| (j, r)))
}

/// Checker time / operation time of one round, from its receipts.
fn receipt_ratio(round: &Round) -> Option<f64> {
    let (mut check, mut exec) = (0u64, 0u64);
    for (_, r) in receipts(round) {
        let t = r.timing.unwrap_or_default();
        check += t.check_ms;
        exec += t.exec_ms;
    }
    (exec > 0).then(|| check as f64 / exec as f64)
}

/// Checker ns per locally held element of one round: mean over ops of
/// the op's mean `check_ms` over `n / p`.
fn receipt_check_ns(round: &Round, shape: &SvcShape) -> Option<f64> {
    let local = (shape.n / PES as u64) as f64;
    mean(specs::OPS.iter().filter_map(|&op| {
        mean(
            receipts(round)
                .filter(|(j, _)| j.op == op)
                .map(|(_, r)| r.timing.unwrap_or_default().check_ms as f64),
        )
        .map(|ms| ms * 1e6 / local)
    }))
}

/// The direct pipelines a service workload runs beside its jobs: the
/// checker's own bottleneck bytes at the workload's `n`, and — where the
/// ms-granular receipts cannot resolve the job's phases — the checker
/// ratio and ns per element by the harness's own timers, in nine groups.
struct Direct {
    ratio: Vec<f64>,
    check_ns: Vec<f64>,
    check_bytes: u64,
}

fn direct_figures(workload: &str, shape: &SvcShape, seed: u64, tally: &mut Tally) -> Direct {
    let (groups, budget) = if shape.receipts_resolve_phases {
        (1, Duration::ZERO)
    } else {
        (9, Duration::from_millis(1500))
    };
    let (rounds, _) = pipe::run_rounds(RoundPlan {
        backend: Backend::TcpLoopback,
        kinds: &SERVICE_KINDS,
        n: shape.n,
        keys: shape.keys,
        seed: specs::derive(seed, workload, 0xD1),
        min_rounds: groups,
        budget,
        trace_odd_rounds: None,
    });
    for round in &rounds {
        tally.note_pipelines(round);
    }
    let per_group = rounds.len() / groups;
    let (mut ratio, mut check_ns) = (Vec::new(), Vec::new());
    for group in rounds.chunks(per_group).take(groups) {
        let (ratios, ns) = pipeline_check_figures(group);
        ratio.push(ratios);
        check_ns.push(ns);
    }
    Direct {
        ratio,
        check_ns,
        check_bytes: rounds[0].iter().map(|p| check_bottleneck_bytes(p)).sum(),
    }
}

/// `(Σ checker time / Σ op time, mean over kinds of checker ns per
/// locally held element)` over some rounds of pipelines.
fn pipeline_check_figures(rounds: &[Vec<Vec<PipeSample>>]) -> (f64, f64) {
    let kinds = rounds[0].len();
    let (mut check_total, mut op_total) = (0.0, 0.0);
    let mut ns_per_kind = Vec::with_capacity(kinds);
    for k in 0..kinds {
        let (mut check_us, mut elems) = (0.0, 0.0);
        for round in rounds {
            let per_pe = &round[k];
            check_us += max_over_pes(per_pe, PipeSample::check_us);
            op_total += max_over_pes(per_pe, PipeSample::op_us);
            elems += max_over_pes(per_pe, |s| s.local_elems as f64);
        }
        check_total += check_us;
        ns_per_kind.push(check_us * 1e3 / elems);
    }
    (
        check_total / op_total,
        mean(ns_per_kind.into_iter()).expect("at least one kind"),
    )
}

fn run_svc(workload: &str, shape: &SvcShape, opts: &RunOpts) -> WorkloadReport {
    let mut tally = Tally::default();
    let scratch = Scratch::new(&opts.out_dir, workload);
    let ledger = scratch.path("ledger.log");
    let setup_seed = specs::derive(opts.seed, workload, 0x5E7);

    // svc-tiny restarts on a ledger a previous world filled.
    if shape.warm_ledger_receipts > 0 {
        let world = World::start(&ledger);
        let mut clients: Vec<_> = (0..shape.clients).map(|_| world.connect()).collect();
        // Warm-up job indices sit far above any index the timed rounds
        // reach.
        let first = 1 << 40;
        let round = svc::run_round(
            &mut clients,
            workload,
            shape,
            opts.seed,
            first,
            shape.warm_ledger_receipts,
            None,
        );
        tally.note_jobs(&round.jobs);
        drop(clients);
        world.stop();
    }

    // Set-up time, several times over; a traced run reports no set-up.
    let mut setup_s = Vec::new();
    if !opts.traced {
        for k in 0..SETUP_REPEATS {
            let path = scratch.path(&format!("setup-{k}.log"));
            if shape.warm_ledger_receipts > 0 {
                std::fs::copy(&ledger, &path).expect("copy the warm ledger");
            }
            let timed = svc::time_to_first_receipt(&path, setup_seed ^ k as u64);
            tally.note(timed.is_ok(), || format!("set-up job: {timed:?}"));
            setup_s.extend(timed);
        }
    }

    let world = World::start(&ledger);
    let mut clients: Vec<_> = (0..shape.clients).map(|_| world.connect()).collect();

    // Warm-up round, then the timed rounds; in a traced run they alternate
    // untraced / traced so both kinds see the same world.
    let jobs = shape.jobs_per_round;
    let mut next_index = 0;
    let mut run_one = |trace: Option<&mut Trace>, clients: &mut [_]| {
        let round = svc::run_round(clients, workload, shape, opts.seed, next_index, jobs, trace);
        next_index += jobs;
        round
    };
    tally.note_jobs(&run_one(None, &mut clients).jobs);
    let epoch = Instant::now();
    // Only absorbs the clients' pre-sized buffers, between rounds.
    let mut trace = opts.traced.then(|| Trace::with_capacity(epoch, 0));
    let budget = if opts.traced {
        opts.seconds * TRACED_ROUND_SHARE
    } else {
        opts.seconds
    };
    let min_rounds = if opts.traced { 4 } else { 3 };
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    while rounds.len() < min_rounds || epoch.elapsed().as_secs_f64() < budget {
        let traced = opts.traced && rounds.len() % 2 == 1;
        let round = run_one(trace.as_mut().filter(|_| traced), &mut clients);
        tally.note_jobs(&round.jobs);
        rounds.push((traced, round));
    }
    // Read the high-water mark here: everything below runs shapes the
    // workload itself does not (one-shot jobs on svc-stream, direct
    // pipelines), and must not decide the workload's peak.
    let peak_rss = peak_rss_mb();

    // Correctness preflight, untimed, on the same world.
    let (checks, preflight_receipts) = svc::preflight(
        &mut clients[0],
        &specs::preflight_specs(workload, shape, opts.seed),
        opts.break_preflight,
    );
    for check in &checks {
        tally.note(check.ok, || format!("preflight: {}", check.what));
    }
    drop(clients);
    world.stop();

    let metrics = if opts.traced {
        let trace = trace.expect("traced run has a trace");
        let mut metrics = ladder::run(opts, &scratch);
        metrics.extend(svc_layer_metrics(&rounds, &preflight_receipts));
        print_trace_summary(workload, &trace);
        print_svc_reading(workload, &rounds, &metrics);
        let path = opts.out_dir.join(format!("trace-{workload}.jsonl"));
        trace.write_jsonl(&path).expect("write span file");
        eprintln!("spans: {}", path.display());
        in_catalog_order(metrics)
    } else {
        // With no service world up: its idle threads' wake-ups would
        // otherwise decide how fast a 100-element collective runs.
        let direct = direct_figures(workload, shape, opts.seed, &mut tally);
        svc_end_to_end(shape, &rounds, &direct, &setup_s, peak_rss)
    };
    WorkloadReport {
        workload: workload.to_string(),
        seed: opts.seed,
        traced: opts.traced,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

fn verified_elems(round: &Round) -> f64 {
    round
        .jobs
        .iter()
        .filter(|j| j.verified())
        .map(|j| j.spec_n as f64)
        .sum()
}

fn svc_end_to_end(
    shape: &SvcShape,
    rounds: &[(bool, Round)],
    direct: &Direct,
    setup_s: &[f64],
    peak_rss: f64,
) -> Vec<Metric> {
    let rounds: Vec<&Round> = rounds.iter().map(|(_, r)| r).collect();
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Summary {
        summarize(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let latencies: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| r.jobs.iter().map(JobRecord::latency_ms).collect())
        .collect();
    let pooled: usize = latencies.iter().map(Vec::len).sum();
    tail_note(pooled);

    // svc-tiny's receipts read 0 ms on almost every phase; its checker
    // figures come from the direct pipelines at its job shape.
    let (ratio, check_ns) = if shape.receipts_resolve_phases {
        (
            rounds.iter().filter_map(|r| receipt_ratio(r)).collect(),
            rounds
                .iter()
                .filter_map(|r| receipt_check_ns(r, shape))
                .collect(),
        )
    } else {
        (direct.ratio.clone(), direct.check_ns.clone())
    };
    let e = |name: &str| catalog::end_to_end(name).expect("catalogued metric");
    let metric = |name: &str, summary: Summary| Metric::new(name, e(name).unit, summary);
    vec![
        metric(
            catalog::JOBS_PER_S,
            per_round(&|r| r.jobs.iter().filter(|j| j.verified()).count() as f64 / r.wall_s),
        ),
        metric(
            catalog::ELEMS_PER_S,
            per_round(&|r| verified_elems(r) / r.wall_s),
        ),
        metric(catalog::LATENCY_P50, pooled_percentile(&latencies, 50.0)),
        metric(
            catalog::LATENCY_TAIL,
            pooled_percentile(&latencies, catalog::TAIL_PERCENTILE),
        ),
        metric(catalog::CHECK_RATIO, summarize(&ratio)),
        metric(catalog::CHECK_NS, summarize(&check_ns)),
        metric(
            catalog::CHECK_BYTES,
            Summary::single(direct.check_bytes as f64),
        ),
        metric(catalog::PEAK_RSS, Summary::single(peak_rss)),
        metric(catalog::SETUP_S, summarize(setup_s)),
    ]
}

/// The per-layer rows a service workload's own receipts give: where the
/// client's latency went, per round, plus the exact communication counts
/// of its clean preflight jobs.
fn svc_layer_metrics(rounds: &[(bool, Round)], preflight: &[Receipt]) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&JobRecord, &Receipt) -> Option<f64>| -> Summary {
        let values: Vec<f64> = rounds
            .iter()
            .filter_map(|(_, round)| mean(receipts(round).filter_map(|(j, r)| f(j, r))))
            .collect();
        if values.is_empty() {
            Summary::single(0.0)
        } else {
            summarize(&values)
        }
    };
    let timing = |r: &Receipt| r.timing.unwrap_or_default();
    let mut metrics = vec![Metric::new(
        "service.receipt.queue_wait_ms",
        "ms",
        per_round(&|_, r| Some(timing(r).queue_wait_ms as f64)),
    )];
    for (what, exec) in [("exec_ms", true), ("check_ms", false)] {
        for op in specs::OPS {
            metrics.push(Metric::new(
                &format!("service.receipt.{what}.{}", op.name()),
                "ms",
                per_round(&|j, r| {
                    let t = timing(r);
                    (j.op == op).then_some(if exec { t.exec_ms } else { t.check_ms } as f64)
                }),
            ));
        }
    }
    metrics.push(Metric::new(
        "service.receipt.other_ms",
        "ms",
        per_round(&|_, r| {
            let t = timing(r);
            Some(r.wall_ms.saturating_sub(t.exec_ms + t.check_ms) as f64)
        }),
    ));
    metrics.push(Metric::new(
        "service.unattributed_ms",
        "ms",
        per_round(&|j, r| Some(j.latency_ms() - (timing(r).queue_wait_ms + r.wall_ms) as f64)),
    ));
    let rates: Vec<f64> = rounds
        .iter()
        .map(|(_, r)| verified_elems(r) / r.wall_s)
        .collect();
    metrics.push(trace_overhead_metric(&rates));
    // One-shot reduce + sort + zip (the first of each pair is chunk = 0 on
    // the one-shot workloads; svc-stream's are all chunked by its shape).
    let comm = |f: &dyn Fn(&ccheck_service::ReceiptComm) -> u64| -> Summary {
        Summary::single(
            preflight
                .iter()
                .filter_map(|r| r.comm.as_ref().map(f))
                .sum::<u64>() as f64,
        )
    };
    metrics.push(Metric::new(
        "net.job_total_bytes",
        "bytes",
        comm(&|c| c.total_bytes),
    ));
    metrics.push(Metric::new(
        "net.job_bottleneck_bytes",
        "bytes",
        comm(&|c| c.bottleneck_bytes),
    ));
    metrics.push(Metric::new(
        "net.job_msgs",
        "count",
        comm(&|c| c.total_msgs),
    ));
    metrics.push(Metric::new(
        "net.job_rounds",
        "count",
        comm(&|c| c.max_rounds),
    ));
    metrics
}

/// Sort metrics into the catalogue's order and insist every catalogued
/// per-layer metric has a value: no layer is "unknown".
fn in_catalog_order(mut metrics: Vec<Metric>) -> Vec<Metric> {
    let mut ordered = Vec::with_capacity(catalog::PER_LAYER.len());
    for def in catalog::PER_LAYER {
        let at = metrics
            .iter()
            .position(|m| m.name == def.name)
            .unwrap_or_else(|| panic!("per-layer metric {} was not measured", def.name));
        let metric = metrics.swap_remove(at);
        assert_eq!(metric.unit, def.unit, "{}", def.name);
        ordered.push(metric);
    }
    assert!(
        metrics.is_empty(),
        "uncatalogued metric {}",
        metrics[0].name
    );
    ordered
}

fn print_trace_summary(workload: &str, trace: &Trace) {
    eprintln!(
        "-- spans of {workload}: {} recorded, {} dropped",
        trace.spans().len(),
        trace.dropped()
    );
    eprintln!(
        "{:<20} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total_us, self_us) in trace::totals_by_name(trace.spans()) {
        eprintln!(
            "{name:<20} {count:>8} {:>14.3} {:>14.3}",
            total_us as f64 / 1e3,
            self_us as f64 / 1e3
        );
    }
}

/// How the traced run reads against the workload's stated reason.
fn print_svc_reading(workload: &str, rounds: &[(bool, Round)], metrics: &[Metric]) {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.summary.median)
    };
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|(_, r)| r.jobs.iter().map(JobRecord::latency_ms))
        .collect();
    let p50 = percentile(&latencies, 50.0);
    let mean_latency = mean(latencies.iter().copied()).expect("a traced run has jobs");
    // Mean over ops against mean over jobs: every round holds each op
    // equally often.
    let in_receipt: f64 = specs::OPS
        .iter()
        .map(|op: &JobOp| {
            value(&format!("service.receipt.exec_ms.{}", op.name()))
                + value(&format!("service.receipt.check_ms.{}", op.name()))
        })
        .sum::<f64>()
        / 3.0;
    let fixed_us = value("service.daemon.fixed_overhead_us");
    eprintln!(
        "-- reading {workload}: mean client latency {mean_latency:.3} ms, of which receipts' \
         exec+check {in_receipt:.3} ms ({:.1} %) and unattributed {:.3} ms; p50 {p50:.3} ms, of \
         which the daemon's fixed overhead {fixed_us:.1} us ({:.2} %)",
        100.0 * in_receipt / mean_latency,
        value("service.unattributed_ms"),
        fixed_us / 10.0 / p50,
    );
}

// ------------------------------------------------------------- pipe-check

fn run_pipe(opts: &RunOpts) -> WorkloadReport {
    let mut tally = Tally::default();
    let seed = specs::derive(opts.seed, PIPE_CHECK, 0x10B);
    let keys = PIPE_N / 10;

    // Preflight: every rung accepts a clean output and rejects a
    // `ccheck-manip` one; the timed sort check is `check_sorted`.
    const PREFLIGHT_N: u64 = 200_000;
    let preflight: Vec<(PipeKind, bool, Vec<PipeSample>)> = PIPE_KINDS
        .iter()
        .flat_map(|&kind| [(kind, false), (kind, true)])
        .map(|(kind, manipulate)| {
            let per_pe = run_on(Backend::Local, PES, |comm| {
                pipe::run_pipeline(comm, kind, PREFLIGHT_N, PREFLIGHT_N / 10, seed, manipulate)
            });
            (kind, manipulate, per_pe)
        })
        .collect();
    for (kind, manipulated, per_pe) in &preflight {
        let expect_accept = !manipulated || opts.break_preflight;
        tally.note(per_pe.iter().all(|s| s.accepted == expect_accept), || {
            format!(
                "preflight: {} pipeline, manipulated={manipulated}, accepted={}",
                kind.name(),
                per_pe[0].accepted
            )
        });
    }
    let agrees = run_on(Backend::Local, PES, |comm| {
        pipe::sort_check_matches_library(comm, PREFLIGHT_N, PREFLIGHT_N / 10, seed)
    });
    tally.note(agrees.iter().all(|&ok| ok), || {
        "preflight: the timed sort check disagrees with check_sorted".into()
    });

    // Set-up: world spawn + generation of one PE share of the input.
    let mut setup_s = Vec::new();
    if !opts.traced {
        for k in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            let lens = run_on(Backend::Local, PES, |comm| {
                let range = local_range(PIPE_N as usize, comm.rank(), comm.size());
                let input: Vec<(u64, u64)> =
                    zipf_valued_pairs_iter(seed ^ k as u64, keys, 1 << 20, range).collect();
                comm.barrier();
                std::hint::black_box(&input).len()
            });
            setup_s.push(t0.elapsed().as_secs_f64());
            assert_eq!(lens.iter().sum::<usize>(), PIPE_N as usize);
        }
    }

    let epoch = Instant::now();
    let budget = if opts.traced {
        opts.seconds * TRACED_ROUND_SHARE
    } else {
        opts.seconds
    };
    let (rounds, trace) = pipe::run_rounds(RoundPlan {
        backend: Backend::Local,
        kinds: &PIPE_KINDS,
        n: PIPE_N,
        keys,
        seed,
        min_rounds: if opts.traced { 4 } else { 3 },
        budget: Duration::from_secs_f64(budget),
        trace_odd_rounds: opts.traced.then_some(epoch),
    });
    for round in &rounds {
        tally.note_pipelines(round);
    }

    let metrics = if opts.traced {
        let trace = trace.expect("traced run has a trace");
        let scratch = Scratch::new(&opts.out_dir, PIPE_CHECK);
        let mut metrics = ladder::run(opts, &scratch);
        metrics.extend(pipe_layer_metrics(&rounds));
        print_trace_summary(PIPE_CHECK, &trace);
        let path = opts.out_dir.join(format!("trace-{PIPE_CHECK}.jsonl"));
        trace.write_jsonl(&path).expect("write span file");
        eprintln!("spans: {}", path.display());
        in_catalog_order(metrics)
    } else {
        pipe_end_to_end(&rounds, &setup_s)
    };
    WorkloadReport {
        workload: PIPE_CHECK.to_string(),
        seed: opts.seed,
        traced: opts.traced,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// Elements through op + check per second of one round: the generator is
/// outside this figure, as it is outside the paper's.
fn pipe_elems_per_s(round: &[Vec<PipeSample>]) -> f64 {
    let busy_us: f64 = round
        .iter()
        .map(|p| max_over_pes(p, PipeSample::op_us) + max_over_pes(p, PipeSample::check_us))
        .sum();
    round.len() as f64 * PIPE_N as f64 / (busy_us / 1e6)
}

fn pipe_end_to_end(rounds: &[Vec<Vec<PipeSample>>], setup_s: &[f64]) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&[Vec<PipeSample>]) -> f64| -> Summary {
        summarize(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let latencies: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| {
            r.iter()
                .map(|p| max_over_pes(p, PipeSample::wall_us) / 1e3)
                .collect()
        })
        .collect();
    tail_note(latencies.iter().map(Vec::len).sum());
    let figures: Vec<(f64, f64)> = rounds
        .iter()
        .map(|r| pipeline_check_figures(std::slice::from_ref(r)))
        .collect();
    let e = |name: &str| catalog::end_to_end(name).expect("catalogued metric");
    let metric = |name: &str, summary: Summary| Metric::new(name, e(name).unit, summary);
    vec![
        metric(
            catalog::JOBS_PER_S,
            per_round(&|r| {
                let wall_us: f64 = r.iter().map(|p| max_over_pes(p, PipeSample::wall_us)).sum();
                r.len() as f64 / (wall_us / 1e6)
            }),
        ),
        metric(catalog::ELEMS_PER_S, per_round(&pipe_elems_per_s)),
        metric(catalog::LATENCY_P50, pooled_percentile(&latencies, 50.0)),
        metric(
            catalog::LATENCY_TAIL,
            pooled_percentile(&latencies, catalog::TAIL_PERCENTILE),
        ),
        metric(
            catalog::CHECK_RATIO,
            summarize(&figures.iter().map(|f| f.0).collect::<Vec<_>>()),
        ),
        metric(
            catalog::CHECK_NS,
            summarize(&figures.iter().map(|f| f.1).collect::<Vec<_>>()),
        ),
        metric(
            catalog::CHECK_BYTES,
            Summary::single(
                rounds[0]
                    .iter()
                    .map(|p| check_bottleneck_bytes(p))
                    .sum::<u64>() as f64,
            ),
        ),
        metric(catalog::PEAK_RSS, Summary::single(peak_rss_mb())),
        metric(catalog::SETUP_S, summarize(setup_s)),
    ]
}

/// pipe-check has no receipts; the same attribution rows come from the
/// harness's own timers (exec = generate + op, as in a receipt), the queue
/// and the client do not exist, and "other" is the pipeline's self time.
fn pipe_layer_metrics(rounds: &[Vec<Vec<PipeSample>>]) -> Vec<Metric> {
    // The rung of `PIPE_KINDS` that runs `op` as the service does.
    let kind_index = |op: JobOp| {
        let kind = match op {
            JobOp::Reduce => PipeKind::ReduceService,
            JobOp::Sort => PipeKind::Sort,
            JobOp::Zip => PipeKind::Zip,
        };
        PIPE_KINDS
            .iter()
            .position(|&k| k == kind)
            .expect("every service rung is a pipe-check rung")
    };
    let per_round = |f: &dyn Fn(&[Vec<PipeSample>]) -> f64| -> Summary {
        summarize(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let exec_ms = |p: &[PipeSample]| {
        (max_over_pes(p, PipeSample::gen_us) + max_over_pes(p, PipeSample::op_us)) / 1e3
    };
    let check_ms = |p: &[PipeSample]| max_over_pes(p, PipeSample::check_us) / 1e3;
    let mut metrics = vec![Metric::new(
        "service.receipt.queue_wait_ms",
        "ms",
        Summary::single(0.0),
    )];
    for op in specs::OPS {
        metrics.push(Metric::new(
            &format!("service.receipt.exec_ms.{}", op.name()),
            "ms",
            per_round(&|r| exec_ms(&r[kind_index(op)])),
        ));
    }
    for op in specs::OPS {
        metrics.push(Metric::new(
            &format!("service.receipt.check_ms.{}", op.name()),
            "ms",
            per_round(&|r| check_ms(&r[kind_index(op)])),
        ));
    }
    metrics.push(Metric::new(
        "service.receipt.other_ms",
        "ms",
        per_round(&|r| {
            mean(
                r.iter()
                    .map(|p| max_over_pes(p, PipeSample::wall_us) / 1e3 - exec_ms(p) - check_ms(p)),
            )
            .expect("a round has pipelines")
        }),
    ));
    metrics.push(Metric::new(
        "service.unattributed_ms",
        "ms",
        Summary::single(0.0),
    ));
    let rates: Vec<f64> = rounds.iter().map(|r| pipe_elems_per_s(r)).collect();
    metrics.push(trace_overhead_metric(&rates));
    // The first round's reduce + sort + zip at the service configuration.
    let service_rungs: Vec<Vec<PipeSample>> = specs::OPS
        .iter()
        .map(|&op| rounds[0][kind_index(op)].clone())
        .collect();
    let [total, bottleneck, msgs, comm_rounds] = comm_totals(&service_rungs);
    for (name, unit, value) in [
        ("net.job_total_bytes", "bytes", total),
        ("net.job_bottleneck_bytes", "bytes", bottleneck),
        ("net.job_msgs", "count", msgs),
        ("net.job_rounds", "count", comm_rounds),
    ] {
        metrics.push(Metric::new(name, unit, Summary::single(value as f64)));
    }
    metrics
}
