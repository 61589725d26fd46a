//! `ccheck-serve` — the checking-service daemon.
//!
//! Runs the SPMD service loop on every PE of a world. Two launch modes:
//!
//! * **Multi-process** (production shape): one process per PE under the
//!   launcher —
//!   `ccheck-launch -p 4 -- ccheck-serve --transport tcp --addr-file F`
//! * **In-process** (development): `ccheck-serve --pes 4` runs all PEs
//!   as threads of this process.
//!
//! Rank 0 binds the client socket (`--listen`, default ephemeral) and
//! publishes the bound address via `--addr-file`. Which queued job a
//! freed slot runs is `--policy`'s call: `fifo` (default, PR-4
//! behavior), `priority` (strict priority with aging), or
//! `deadline-wfq` (EDF within weighted fair queueing with per-tenant
//! quotas and work stealing). The daemon runs until a client sends
//! `{"cmd":"shutdown"}`, then drains, prints the per-tenant /
//! per-verdict report and the service communication summary, and
//! exits 0.

use std::path::PathBuf;

use ccheck_net::{bootstrap, Backend};
use ccheck_service::{
    run_service, run_service_world, PolicyCfg, ServiceConfig, ServiceSummary, TenantAgg,
    MAX_INFLIGHT,
};

/// Receipt-table rows printed before the report switches to "… and N
/// more" (the aggregates above the table stay exact at any job count).
const RECEIPT_TABLE_CAP: usize = 50;

struct Args {
    transport_tcp: bool,
    pes: usize,
    cfg: ServiceConfig,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "error: {problem}\n\
         \n\
         usage: ccheck-serve [--transport local|tcp] [--pes N]\n\
         \u{20}                   [--listen ADDR] [--addr-file PATH]\n\
         \u{20}                   [--ledger PATH] [--history PATH] [--slo FILE]\n\
         \u{20}                   [--max-inflight N] [--queue N]\n\
         \u{20}                   [--policy fifo|priority|deadline-wfq]\n\
         \u{20}                   [--aging-ms MS] [--tenant-inflight N]\n\
         \u{20}                   [--tenant-queue-share PCT] [--no-steal]\n\
         \u{20}                   [--trace-out PATH]\n\
         \u{20}                   [--heartbeat-ms MS] [--suspect-ms MS] [--dead-ms MS]\n\
         \u{20}                   [--straggler-k K] [--straggler-min-ms MS]\n\
         \n\
         --transport local   all PEs as threads of this process (default)\n\
         --transport tcp     this process is one rank of a ccheck-launch world\n\
         --pes N             PE count for local mode (default 4)\n\
         --listen ADDR       client listener bind address (default 127.0.0.1:0)\n\
         --addr-file PATH    write the bound client address to PATH\n\
         --ledger PATH       durable receipt ledger (rank 0): hash-chained log,\n\
         \u{20}                   replayed on restart; resubmitted (tenant, job_id)\n\
         \u{20}                   pairs are answered without re-running\n\
         --history PATH      durable telemetry history (rank 0): watch samples,\n\
         \u{20}                   metrics snapshots, and SLO alerts appended on the\n\
         \u{20}                   heartbeat cadence with downsampling retention;\n\
         \u{20}                   replayed on restart to refold SLO burn-rate state\n\
         --slo FILE          declarative SLOs, one JSON object per line\n\
         \u{20}                   (latency_p95 | error_budget | availability);\n\
         \u{20}                   breaches emit durable alerts + warn logs and\n\
         \u{20}                   surface in health/watch/metrics responses\n\
         --max-inflight N    concurrent jobs, at most {MAX_INFLIGHT} (default 4)\n\
         --queue N           submission queue capacity (default 64)\n\
         --policy P          scheduling policy (default fifo = PR-4 behavior)\n\
         --aging-ms MS       priority policy: queue-wait worth one level (default 200)\n\
         --tenant-inflight N deadline-wfq: per-tenant inflight quota (default 2)\n\
         --tenant-queue-share PCT\n\
         \u{20}                   deadline-wfq: max queue share per tenant (default 50)\n\
         --no-steal          deadline-wfq: idle slots never exceed tenant quotas\n\
         --trace-out PATH    gather every PE's span buffer at shutdown and write\n\
         \u{20}                   a Chrome trace_event JSON file (rank 0); implies\n\
         \u{20}                   obs collection even without CCHECK_OBS\n\
         --heartbeat-ms MS   worker heartbeat send interval (default 100)\n\
         --suspect-ms MS     heartbeat age before a PE is Suspect (default 400)\n\
         --dead-ms MS        heartbeat age before a PE is Dead (default 1500)\n\
         --straggler-k K     flag jobs running past K x the op's p95 (default 4)\n\
         --straggler-min-ms MS\n\
         \u{20}                   floor for the straggler threshold (default 200)\n\
         \n\
         Structured logging honors CCHECK_LOG (e.g. `info,net=debug`) and\n\
         CCHECK_LOG_FORMAT=json; see docs/OBSERVABILITY.md"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        transport_tcp: matches!(std::env::var("CCHECK_TRANSPORT").as_deref(), Ok("tcp")),
        pes: 4,
        cfg: ServiceConfig::default(),
    };
    // Policy knobs are collected first, then assembled, so flag order
    // doesn't matter.
    let mut policy = "fifo".to_string();
    let mut aging_ms = 200u64;
    let mut tenant_inflight = 2usize;
    let mut tenant_queue_share = 50u32;
    let mut steal = true;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--transport" => match iter.next().as_deref() {
                Some("local") => args.transport_tcp = false,
                Some("tcp") => args.transport_tcp = true,
                other => usage(&format!("--transport expects local|tcp, got {other:?}")),
            },
            "--pes" | "-p" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => args.pes = v,
                _ => usage("--pes expects a positive integer"),
            },
            "--listen" => match iter.next() {
                Some(addr) => args.cfg.listen = addr,
                None => usage("--listen expects an address"),
            },
            "--addr-file" => match iter.next() {
                Some(path) => args.cfg.addr_file = Some(PathBuf::from(path)),
                None => usage("--addr-file expects a path"),
            },
            "--ledger" => match iter.next() {
                Some(path) => args.cfg.ledger_path = Some(PathBuf::from(path)),
                None => usage("--ledger expects a path"),
            },
            "--history" => match iter.next() {
                Some(path) => args.cfg.history_path = Some(PathBuf::from(path)),
                None => usage("--history expects a path"),
            },
            "--slo" => match iter.next() {
                Some(path) => args.cfg.slo_path = Some(PathBuf::from(path)),
                None => usage("--slo expects a path"),
            },
            "--max-inflight" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if (1..=MAX_INFLIGHT).contains(&v) => args.cfg.max_inflight = v,
                _ => usage(&format!(
                    "--max-inflight expects an integer in 1..={MAX_INFLIGHT} \
                     (every slot needs two of the job tag scopes)"
                )),
            },
            "--queue" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => args.cfg.queue_cap = v,
                _ => usage("--queue expects a positive integer"),
            },
            "--policy" => match iter.next() {
                Some(p) if ["fifo", "priority", "deadline-wfq"].contains(&p.as_str()) => {
                    policy = p;
                }
                other => usage(&format!(
                    "--policy expects fifo|priority|deadline-wfq, got {other:?}"
                )),
            },
            "--aging-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => aging_ms = v,
                _ => usage("--aging-ms expects a positive integer"),
            },
            "--tenant-inflight" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => tenant_inflight = v,
                _ => usage("--tenant-inflight expects a positive integer"),
            },
            "--tenant-queue-share" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if (1..=100).contains(&v) => tenant_queue_share = v,
                _ => usage("--tenant-queue-share expects a percentage in 1..=100"),
            },
            "--no-steal" => steal = false,
            "--heartbeat-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => args.cfg.health.heartbeat_interval_ms = v,
                _ => usage("--heartbeat-ms expects a positive integer"),
            },
            "--suspect-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => args.cfg.health.suspect_after_ms = v,
                _ => usage("--suspect-ms expects a positive integer"),
            },
            "--dead-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => args.cfg.health.dead_after_ms = v,
                _ => usage("--dead-ms expects a positive integer"),
            },
            "--straggler-k" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0.0 => args.cfg.health.straggler_k = v,
                _ => usage("--straggler-k expects a positive number"),
            },
            "--straggler-min-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => args.cfg.health.straggler_min_ms = v,
                _ => usage("--straggler-min-ms expects a positive integer"),
            },
            "--trace-out" => match iter.next() {
                Some(path) => args.cfg.trace_out = Some(PathBuf::from(path)),
                None => usage("--trace-out expects a path"),
            },
            other => usage(&format!("unknown option {other:?}")),
        }
    }
    args.cfg.policy = match policy.as_str() {
        "fifo" => PolicyCfg::Fifo,
        "priority" => PolicyCfg::PriorityAging { aging_ms },
        "deadline-wfq" => PolicyCfg::DeadlineWfq {
            tenant_max_inflight: tenant_inflight,
            tenant_queue_share_pct: tenant_queue_share,
            steal,
            weights: Vec::new(),
        },
        _ => unreachable!("validated above"),
    };
    args
}

fn report(summary: &ServiceSummary) {
    println!(
        "ccheck-serve: clean shutdown after {} job(s) under the {} policy \
         ({} refused, {} stolen; {} bytes of job-scope traffic retired \
         into this rank's totals)",
        summary.jobs_run,
        summary.policy,
        summary.refused,
        summary.stolen,
        summary.retired_scope_bytes
    );
    let secs = summary.elapsed.as_secs_f64();
    println!(
        "elapsed: {secs:.2}s wall time ({:.1} jobs/s)",
        if secs > 0.0 {
            summary.jobs_run as f64 / secs
        } else {
            0.0
        }
    );

    // Aggregates first — they stay exact and readable at any job count,
    // unlike the per-job table below.
    let totals = summary
        .tenants
        .iter()
        .fold(TenantAgg::default(), |mut acc, (_, a)| {
            acc.jobs += a.jobs;
            acc.verified += a.verified;
            acc.retried += a.retried;
            acc.fellback += a.fellback;
            acc.rejected += a.rejected;
            acc.refused += a.refused;
            acc.total_bytes += a.total_bytes;
            acc.wall_ms += a.wall_ms;
            acc
        });
    println!(
        "verdicts: verified={} retried={} fellback={} rejected={} refused={}",
        totals.verified, totals.retried, totals.fellback, totals.rejected, totals.refused
    );
    if !summary.tenants.is_empty() {
        println!(
            "\n{:>16} {:>6} {:>9} {:>8} {:>9} {:>9} {:>8} {:>14} {:>10}",
            "tenant",
            "jobs",
            "verified",
            "retried",
            "fellback",
            "rejected",
            "refused",
            "total bytes",
            "avg ms"
        );
        for (tenant, a) in &summary.tenants {
            println!(
                "{:>16} {:>6} {:>9} {:>8} {:>9} {:>9} {:>8} {:>14} {:>10}",
                if tenant.is_empty() {
                    "(default)"
                } else {
                    tenant
                },
                a.jobs,
                a.verified,
                a.retried,
                a.fellback,
                a.rejected,
                a.refused,
                a.total_bytes,
                a.wall_ms.checked_div(a.jobs).unwrap_or(0),
            );
        }
    }

    if !summary.receipts.is_empty() {
        println!(
            "\n{:>6} {:>6} {:>12} {:>8} {:>10} {:>12} {:>14} {:>8}",
            "job", "seq", "tenant", "op", "verdict", "elems", "total bytes", "ms"
        );
        for r in summary.receipts.iter().take(RECEIPT_TABLE_CAP) {
            let comm = r.comm.unwrap_or_default();
            println!(
                "{:>6} {:>6} {:>12} {:>8} {:>10} {:>12} {:>14} {:>8}",
                r.job_id,
                r.admit_seq,
                r.tenant.as_deref().unwrap_or("(default)"),
                r.op.name(),
                r.verdict.name(),
                r.elems,
                comm.total_bytes,
                r.wall_ms
            );
        }
        if summary.receipts.len() > RECEIPT_TABLE_CAP {
            println!(
                "{:>6} … and {} more receipt(s); the aggregates above cover all jobs",
                "",
                summary.receipts.len() - RECEIPT_TABLE_CAP
            );
        }
    }
    if let Some(stats) = &summary.stats {
        println!("\nService communication summary:\n{}", stats.render_table());
    }
}

fn main() {
    let args = parse_args();
    // Honor CCHECK_OBS; a trace request is pointless without collection,
    // so --trace-out switches it on regardless.
    ccheck_obs::init_from_env();
    ccheck_obs::log::init_from_env();
    if args.cfg.trace_out.is_some() {
        ccheck_obs::set_enabled(true);
    }
    if args.transport_tcp {
        let comm = match bootstrap::init_from_env() {
            Ok(Some(comm)) => comm,
            Ok(None) => {
                eprintln!(
                    "error: --transport tcp but no bootstrap environment found.\n\
                     Start this binary under the launcher:\n\
                     \n\
                     \u{20}   ccheck-launch -p 4 -- ccheck-serve --transport tcp"
                );
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("error: TCP transport bootstrap failed: {e}");
                std::process::exit(1);
            }
        };
        let rank = comm.rank();
        let summary = run_service(comm, &args.cfg);
        if rank == 0 {
            report(&summary);
        }
    } else {
        let summaries = run_service_world(Backend::Local, args.pes, &args.cfg);
        report(&summaries[0]);
    }
}
