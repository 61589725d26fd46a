//! The normative names: four workloads, the end-to-end metrics with their
//! regression bounds, and the per-layer metrics with the end-to-end
//! metric each one is predicted to move. `list`, the report, `compare`
//! and `BENCHMARK.json` all read from here.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// One sentence: why this workload exists.
    pub why: &'static str,
}

pub const SVC_TINY: &str = "svc-tiny";
pub const SVC_LARGE: &str = "svc-large";
pub const SVC_STREAM: &str = "svc-stream";
pub const PIPE_CHECK: &str = "pipe-check";

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: SVC_TINY,
        why: "n=100 jobs over the TCP service with a ledger: pure fixed cost per job, so a kernel change must not move it",
    },
    WorkloadDef {
        name: SVC_LARGE,
        why: "n=2M one-shot jobs over the same service: kernel, generator and exchange bound, so a service-path change must not move it",
    },
    WorkloadDef {
        name: SVC_STREAM,
        why: "svc-large with chunk=65536 and nothing else changed: per-chunk sketch merges, small frames, regenerated checker input",
    },
    WorkloadDef {
        name: PIPE_CHECK,
        why: "no service: generate, op, check at n=4M timed between barriers, the paper's own experiment and the floor under the service",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
    /// An absolute change below this is never a regression (`setup_s`).
    pub abs_floor: f64,
    /// A count made by the program: must repeat exactly on one seed.
    pub exact: bool,
    pub what: &'static str,
}

pub const JOBS_PER_S: &str = "jobs_per_s";
pub const ELEMS_PER_S: &str = "elems_per_s";
pub const LATENCY_P50: &str = "job_latency_p50_ms";
pub const LATENCY_TAIL: &str = "job_latency_tail_ms";
pub const CHECK_RATIO: &str = "check_overhead_ratio";
pub const CHECK_NS: &str = "check_ns_per_elem";
pub const CHECK_BYTES: &str = "check_bottleneck_bytes";
pub const PEAK_RSS: &str = "peak_rss_mb";
pub const SETUP_S: &str = "setup_s";

/// Every end-to-end metric is reported on every workload (the driver's
/// contract); where the issue's table leaves a cell empty, `what` says
/// which analogue fills it.
///
/// The bounds are set from what this machine can resolve, not from what
/// one would wish: ten 20 s runs of the same build spread (inter-quartile,
/// as a share of the median) by up to 9 % on svc-large's throughput and
/// latency and 15 % on peak RSS, because the 2-core container's own speed
/// drifts by several percent over seconds. A bound is about three times
/// the widest spread seen, capped at the contract's 25 %.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: JOBS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        abs_floor: 0.0,
        exact: false,
        what: "verified jobs per second, median over rounds (pipe-check: verified generate-op-check pipelines)",
    },
    EndToEnd {
        name: ELEMS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        abs_floor: 0.0,
        exact: false,
        what: "input elements through op + check per second, median over rounds",
    },
    EndToEnd {
        name: LATENCY_P50,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
        exact: false,
        what: "client submit to receipt, all rounds pooled (pipe-check: one pipeline, slowest PE)",
    },
    EndToEnd {
        name: LATENCY_TAIL,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
        exact: false,
        what: "p90 of the same sample: inside the slowest op's latency cluster, with >= 10 samples beyond it at the contract's run length",
    },
    EndToEnd {
        name: CHECK_RATIO,
        unit: "ratio",
        better: Better::Lower,
        bound: 0.20,
        abs_floor: 0.0,
        exact: false,
        what: "checker time / operation time: receipts' timing on svc-large/svc-stream, the harness's own timers on pipe-check and (receipts being ms-granular) on direct calls at svc-tiny's job shape",
    },
    EndToEnd {
        name: CHECK_NS,
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
        exact: false,
        what: "checker wall / locally held elements (n/p), mean over ops; same sources as check_overhead_ratio",
    },
    EndToEnd {
        name: CHECK_BYTES,
        unit: "bytes",
        better: Better::Lower,
        bound: 0.001,
        abs_floor: 0.0,
        exact: true,
        what: "bottleneck volume of the checker calls alone, summed over ops, at the workload's job shape (exact count)",
    },
    EndToEnd {
        name: PEAK_RSS,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
        exact: false,
        what: "VmHWM of the workload's own process",
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.050,
        exact: false,
        what: "svc-tiny: restart on a 500-receipt ledger to first receipt; svc-large/svc-stream: cold start to first n=100 receipt; pipe-check: world spawn + input generation; median of repeats",
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The tail percentile every workload reports, fixed so the metric means
/// the same thing on every run. p90 lies inside the slowest op's latency
/// cluster (a third of the service jobs, a quarter of the pipelines), not
/// on an edge between two ops.
///
/// svc-tiny's sample would support p99, but its latencies are quantised
/// by the daemon's 1 ms and 2 ms sleeps into clusters at 2.3, 4.4 and
/// 6.4 ms, and the share of jobs that miss a tick moves between 0.6 % and
/// over 5 % with the machine's mood: p99, and in busier minutes p95, sit on
/// that edge and flip between 4.7 ms and 6.5 ms on the same build.
pub const TAIL_PERCENTILE: f64 = 90.0;

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric this should move, on which workload —
    /// "none on X" is a prediction too.
    pub moves: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const HASH_MOVES: &str =
    "check_ns_per_elem on pipe-check, elems_per_s on svc-large/svc-stream; none on svc-tiny";
const CORE_MOVES: &str =
    "check_ns_per_elem and check_overhead_ratio on pipe-check, elems_per_s on svc-large";
const GEN_MOVES: &str = "elems_per_s on svc-large, twice over on svc-stream (replay pass, also check_overhead_ratio); none on pipe-check's check_ns_per_elem";
const OP_MOVES: &str =
    "elems_per_s on svc-large; a faster op raises check_overhead_ratio, read it with check_ns_per_elem";
const OP_CHUNKED_MOVES: &str = "elems_per_s on svc-stream";
const LAT_MOVES: &str = "job_latency_p50_ms and jobs_per_s on svc-tiny; none on svc-large";
const BW_MOVES: &str = "elems_per_s on svc-large/svc-stream";
const MODEL_MOVES: &str = "none directly: feeds CostModel::new; the residual is the model's error";
const COUNT_MOVES: &str = "exact count per workload; must repeat on one seed";
const SVC_MOVES: &str =
    "job_latency_p50_ms and jobs_per_s on svc-tiny; none on svc-large, none on pipe-check";
const RECEIPT_MOVES: &str = "attribution of job_latency_p50_ms on the svc workloads";

pub const PER_LAYER: &[PerLayer] = &[
    // hashing
    row("hashing.crc32c_ns_per_key", "ns", Lower, HASH_MOVES),
    row("hashing.tab32_ns_per_key", "ns", Lower, HASH_MOVES),
    row("hashing.tab64_ns_per_key", "ns", Lower, HASH_MOVES),
    row("hashing.gf64_mul_ns", "ns", Lower, HASH_MOVES),
    row("hashing.mersenne61_mul_ns", "ns", Lower, HASH_MOVES),
    row(
        "hashing.sha256_mb_per_s",
        "MB/s",
        Higher,
        "job_latency_p50_ms on svc-tiny (ledger seal, spec fingerprint); none elsewhere",
    ),
    // core
    row("core.sum_update_ns.4x8-crc-m5", "ns", Lower, CORE_MOVES),
    row("core.sum_update_ns.4x16-tab64-m9", "ns", Lower, CORE_MOVES),
    row("core.xor_update_ns", "ns", Lower, CORE_MOVES),
    row("core.perm_update_ns", "ns", Lower, CORE_MOVES),
    row("core.zip_update_ns", "ns", Lower, CORE_MOVES),
    row(
        "core.sum_merge_ns",
        "ns",
        Lower,
        "elems_per_s on svc-stream",
    ),
    row("core.sum_finalize_ns", "ns", Lower, CORE_MOVES),
    row("core.sorted_check_ns_per_elem", "ns", Lower, CORE_MOVES),
    row(
        "core.sum_chunked_ratio",
        "ratio",
        Lower,
        "elems_per_s on svc-stream only (digest_chunked at chunk 4096 / one-shot; 1.0 is ideal)",
    ),
    // workloads
    row("workloads.zipf_ns_per_elem", "ns", Lower, GEN_MOVES),
    row("workloads.uniform_ns_per_elem", "ns", Lower, GEN_MOVES),
    // dataflow
    row("dataflow.reduce_ns_per_elem", "ns", Lower, OP_MOVES),
    row("dataflow.sort_ns_per_elem", "ns", Lower, OP_MOVES),
    row("dataflow.zip_ns_per_elem", "ns", Lower, OP_MOVES),
    row(
        "dataflow.reduce_chunked_ns_per_elem",
        "ns",
        Lower,
        OP_CHUNKED_MOVES,
    ),
    row(
        "dataflow.sort_chunked_ns_per_elem",
        "ns",
        Lower,
        OP_CHUNKED_MOVES,
    ),
    row(
        "dataflow.zip_chunked_ns_per_elem",
        "ns",
        Lower,
        OP_CHUNKED_MOVES,
    ),
    // net: latency
    row("net.local.allreduce_us", "us", Lower, LAT_MOVES),
    row("net.tcp.allreduce_us", "us", Lower, LAT_MOVES),
    row("net.local.barrier_us", "us", Lower, LAT_MOVES),
    row("net.tcp.barrier_us", "us", Lower, LAT_MOVES),
    row("net.raw.pingpong_us", "us", Lower, LAT_MOVES),
    row("net.mux.pingpong_us", "us", Lower, LAT_MOVES),
    row("net.mux_overhead_ratio", "ratio", Lower, LAT_MOVES),
    row("net.mux.scope_open_us", "us", Lower, LAT_MOVES),
    row("net.tcp.gather_stats_us", "us", Lower, LAT_MOVES),
    // net: bandwidth
    row("net.local.alltoall_mb_per_s", "MB/s", Higher, BW_MOVES),
    row("net.tcp.alltoall_mb_per_s", "MB/s", Higher, BW_MOVES),
    row("net.wire.encode_mb_per_s", "MB/s", Higher, BW_MOVES),
    row("net.wire.decode_mb_per_s", "MB/s", Higher, BW_MOVES),
    // net: model
    row("net.local.alpha_us", "us", Lower, MODEL_MOVES),
    row("net.local.beta_ns_per_byte", "ns", Lower, MODEL_MOVES),
    row("net.tcp.alpha_us", "us", Lower, MODEL_MOVES),
    row("net.tcp.beta_ns_per_byte", "ns", Lower, MODEL_MOVES),
    row("net.tcp.model_residual_ratio", "ratio", Lower, MODEL_MOVES),
    // net: counts of the workload's preflight jobs
    row("net.job_total_bytes", "bytes", Lower, COUNT_MOVES),
    row("net.job_bottleneck_bytes", "bytes", Lower, COUNT_MOVES),
    row("net.job_msgs", "count", Lower, COUNT_MOVES),
    row("net.job_rounds", "count", Lower, COUNT_MOVES),
    // service
    row("service.exec.empty_job_us", "us", Lower, SVC_MOVES),
    row("service.daemon.empty_job_us", "us", Lower, SVC_MOVES),
    row("service.daemon.fixed_overhead_us", "us", Lower, SVC_MOVES),
    row("service.client.roundtrip_us", "us", Lower, SVC_MOVES),
    row("service.client.submit_us", "us", Lower, SVC_MOVES),
    row("service.client.wait_us", "us", Lower, SVC_MOVES),
    row("service.json.spec_encode_us", "us", Lower, SVC_MOVES),
    row("service.json.receipt_decode_us", "us", Lower, SVC_MOVES),
    row("service.ledger.append_us", "us", Lower, SVC_MOVES),
    row("service.ledger.append_fsync_us", "us", Lower, SVC_MOVES),
    row("service.sched.pick_us.fifo", "us", Lower, SVC_MOVES),
    row("service.sched.pick_us.wfq", "us", Lower, SVC_MOVES),
    row(
        "service.ledger.replay_us_per_receipt",
        "us",
        Lower,
        "setup_s on svc-tiny (Ledger::open on an existing log, the restart path)",
    ),
    // service: attribution from the workload's own receipts
    row("service.receipt.queue_wait_ms", "ms", Lower, RECEIPT_MOVES),
    row("service.receipt.exec_ms.reduce", "ms", Lower, RECEIPT_MOVES),
    row("service.receipt.exec_ms.sort", "ms", Lower, RECEIPT_MOVES),
    row("service.receipt.exec_ms.zip", "ms", Lower, RECEIPT_MOVES),
    row(
        "service.receipt.check_ms.reduce",
        "ms",
        Lower,
        RECEIPT_MOVES,
    ),
    row("service.receipt.check_ms.sort", "ms", Lower, RECEIPT_MOVES),
    row("service.receipt.check_ms.zip", "ms", Lower, RECEIPT_MOVES),
    row("service.receipt.other_ms", "ms", Lower, RECEIPT_MOVES),
    row(
        "service.unattributed_ms",
        "ms",
        Lower,
        "client latency - queue_wait - wall: the share no layer owns yet (ROADMAP item 5)",
    ),
    // obs
    row(
        "obs.disabled_site_ns",
        "ns",
        Lower,
        "jobs_per_s on svc-tiny",
    ),
    row("obs.counter_inc_ns", "ns", Lower, "jobs_per_s on svc-tiny"),
    row("obs.span_ns", "ns", Lower, "jobs_per_s on svc-tiny"),
    row(
        "obs.enabled_overhead_ratio",
        "ratio",
        Higher,
        "jobs_per_s on svc-tiny (tiny-job rounds with collection on / off)",
    ),
    // trace
    row(
        "trace.overhead_ratio",
        "ratio",
        Higher,
        "none: elems_per_s with the harness's spans on / off; must stay >= 0.95",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_service::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is written by hand; it must say what this file says.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_string);

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, def) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(item, "name").as_deref(), Some(def.name));
            assert_eq!(field(item, "why").as_deref(), Some(def.why));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name").as_deref(), Some(def.name));
            assert_eq!(field(item, "unit").as_deref(), Some(def.unit));
            assert_eq!(field(item, "better").as_deref(), Some(def.better.name()));
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, def) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(item, "name").as_deref(), Some(def.name));
            assert_eq!(field(item, "unit").as_deref(), Some(def.unit));
            assert_eq!(field(item, "better").as_deref(), Some(def.better.name()));
        }
        assert_eq!(list("paths"), vec![Json::from("benchmark")]);
    }
}
