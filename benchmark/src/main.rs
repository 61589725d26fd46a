//! `perf_ladder`: the repo's one benchmark.
//!
//! ```text
//! perf_ladder run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! perf_ladder list
//! perf_ladder compare A.json B.json
//! perf_ladder selfcheck [--seed N] [--seconds S]
//! ```
//!
//! `run` without `--workload` runs every workload, each in a child process
//! of its own (so `peak_rss_mb` is per workload), untraced — and with
//! `--trace` traced as well. With `--workload` it runs that one in this
//! process and ends its standard output with the driver's result line.

mod catalog;
mod ladder;
mod pipe;
mod report;
mod specs;
mod stats;
mod svc;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::WorkloadReport;
use workloads::RunOpts;

const USAGE: &str =
    "usage: perf_ladder run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
       perf_ladder list
       perf_ladder compare A.json B.json
       perf_ladder selfcheck [--seed N] [--seconds S]";

/// Exit code of `compare` / `selfcheck` when something regressed.
const EXIT_REGRESSED: u8 = 3;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    break_preflight: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
        out: None,
        break_preflight: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} expects {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if catalog::workload(&name).is_none() {
                    return Err(format!(
                        "unknown workload {name:?} (see `perf_ladder list`)"
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds expects a positive number")?
            }
            // `--trace`, `--trace 1`, `--trace 0`.
            "--trace" => {
                parsed.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            // The harness's negative control (see README): the preflight
            // expects faulted jobs to verify, so the run must fail.
            "--break-preflight" => parsed.break_preflight = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(parsed)
}

/// `benchmark/out`: next to this package's manifest.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest_dir).join("out")
}

fn write_set(path: &Path, reports: &[WorkloadReport]) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    std::fs::write(path, report::set_to_json(reports).render() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn read_set(path: &str) -> Result<Vec<WorkloadReport>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    report::set_from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Run one workload in this process.
fn run_one(workload: &str, args: &RunArgs) -> ExitCode {
    let report = workloads::run(
        workload,
        &RunOpts {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            out_dir: out_dir(),
            break_preflight: args.break_preflight,
        },
    );
    if let Some(path) = &args.out {
        write_set(path, std::slice::from_ref(&report));
    }
    print!("{}", report.render_table());
    println!("{}", report.contract_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process of its own (so its `VmHWM` is its
/// own) and read back its report; `None` if the child failed.
fn run_child(args: &RunArgs, workload: &str, traced: bool, dir: &Path) -> Option<WorkloadReport> {
    let exe = std::env::current_exe().expect("own executable path");
    let part = dir.join(format!("{workload}-{}.json", u8::from(traced)));
    let mut child = Command::new(exe);
    child
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&part);
    if args.break_preflight {
        child.arg("--break-preflight");
    }
    let succeeded = child.status().expect("re-exec perf_ladder").success();
    match read_set(&part.to_string_lossy()) {
        Ok(mut set) if succeeded && set.len() == 1 => set.pop(),
        Ok(_) => None,
        Err(e) => {
            eprintln!("{workload} produced no report: {e}");
            None
        }
    }
}

/// A directory under `benchmark/out` for the children's report files.
fn set_dir() -> PathBuf {
    let dir = out_dir().join(format!("set-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the set directory");
    dir
}

/// Run every workload, untraced and — with `--trace` — traced as well;
/// `None` if any child failed.
fn run_all(args: &RunArgs) -> Option<Vec<WorkloadReport>> {
    let dir = set_dir();
    let passes: &[bool] = if args.traced {
        &[false, true]
    } else {
        &[false]
    };
    let reports: Vec<Option<WorkloadReport>> = catalog::WORKLOADS
        .iter()
        .flat_map(|w| passes.iter().map(move |&traced| (w.name, traced)))
        .map(|(workload, traced)| run_child(args, workload, traced, &dir))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    reports.into_iter().collect()
}

fn list() {
    println!(
        "workloads (world of {} PE threads, closed loop):",
        specs::PES
    );
    for w in &catalog::WORKLOADS {
        println!("  {:<11} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (every workload reports every one):");
    for m in &catalog::END_TO_END {
        println!(
            "  {:<24} {:<6} {:<7} bound {:>5.1} %{}{}\n      {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            if m.abs_floor > 0.0 {
                format!(" and >= {} ms", m.abs_floor * 1e3)
            } else {
                String::new()
            },
            if m.exact { ", exact count" } else { "" },
            m.what,
        );
    }
    println!("  failed_share             share  lower   bound   0.0 %\n      failed / attempted operations, reported as the result line's counts");
    println!("\nper-layer metrics (traced run; no bound) and what each should move:");
    for m in catalog::PER_LAYER {
        println!(
            "  {:<38} {:<6} {:<7} -> {}",
            m.name,
            m.unit,
            m.better.name(),
            m.moves
        );
    }
}

/// Two sets of runs of the same build, then `compare`. The two runs of a
/// workload are made back to back, so that the machine's slow drift lands
/// on both sets alike.
fn selfcheck(args: &RunArgs) -> ExitCode {
    let dir = set_dir();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for workload in &catalog::WORKLOADS {
        a.extend(run_child(args, workload.name, false, &dir));
        b.extend(run_child(args, workload.name, false, &dir));
    }
    let _ = std::fs::remove_dir_all(&dir);
    if a.len() + b.len() != 2 * catalog::WORKLOADS.len() {
        eprintln!("selfcheck: a run failed");
        return ExitCode::FAILURE;
    }
    let (table, regressed) = report::compare(&a, &b);
    print!("{table}");
    if regressed {
        println!("selfcheck: two sets of the same build disagree — lengthen the rounds, do not widen the bound");
        ExitCode::from(EXIT_REGRESSED)
    } else {
        println!("selfcheck: two sets of the same build agree within the benchmark's bounds");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |message: String| {
        eprintln!("{message}\n{USAGE}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("run") => {
            let run = match parse_run_args(&args[1..]) {
                Ok(run) => run,
                Err(e) => return usage(e),
            };
            match &run.workload {
                Some(workload) => run_one(workload, &run),
                None => match run_all(&run) {
                    Some(reports) => {
                        if let Some(path) = &run.out {
                            write_set(path, &reports);
                        }
                        ExitCode::SUCCESS
                    }
                    None => ExitCode::FAILURE,
                },
            }
        }
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return usage("compare expects two result files".into());
            };
            match (read_set(a), read_set(b)) {
                (Ok(a), Ok(b)) => {
                    let (table, regressed) = report::compare(&a, &b);
                    print!("{table}");
                    if regressed {
                        ExitCode::from(EXIT_REGRESSED)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                (Err(e), _) | (_, Err(e)) => usage(e),
            }
        }
        Some("selfcheck") => match parse_run_args(&args[1..]) {
            Ok(run) if run.workload.is_none() && !run.traced => selfcheck(&run),
            Ok(_) => usage("selfcheck runs every workload, untraced".into()),
            Err(e) => usage(e),
        },
        _ => usage("expected a subcommand".into()),
    }
}
