//! The per-layer rows: every layer between `Hasher::hash` and the client
//! socket, measured from outside by timing calls into public functions.
//! Each row is the median of `REPEATS` repeats, with quartiles.
//!
//! The rows run in the traced pass of every workload, so each traced run
//! carries the layer figures of the machine state it ran in.

use std::hint::black_box;
use std::time::Instant;

use ccheck::sketch::{digest_chunked, Sketch};
use ccheck::sort::check_sorted;
use ccheck::{SumCheckConfig, SumChecker, XorCheckConfig, XorChecker};
use ccheck_dataflow::{reduce_by_key, reduce_by_key_chunked, sort, sort_chunked, zip, zip_chunked};
use ccheck_hashing::field::Mersenne61;
use ccheck_hashing::gf64::gf_mul;
use ccheck_hashing::sha256::sha256;
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_net::{run_on, testing::run_owned_with_stats_on, wire, Backend, Comm, CostModel, Tag};
use ccheck_service::ledger::Ledger;
use ccheck_service::{execute_job, json, JobSpec, PolicyCfg, Receipt, SchedCore, ServiceClient};
use ccheck_workloads::{local_range, uniform_ints_iter, zipf_valued_pairs_iter};

use crate::catalog::SVC_TINY;
use crate::pipe::{service_perm_checker, service_zip_checker};
use crate::report::{sig, Metric};
use crate::specs::{self, mix, PES};
use crate::stats::{fit_alpha_beta, mean, median, summarize, Summary};
use crate::svc::{self, Scratch, World};
use crate::workloads::RunOpts;

const REPEATS: usize = 11;

/// Time `timed` on a fresh `setup()` value `REPEATS` times; each repeat's
/// wall time divided by `ops`, in nanoseconds.
fn repeats<S>(ops: u64, mut setup: impl FnMut() -> S, mut timed: impl FnMut(S)) -> Vec<f64> {
    (0..REPEATS)
        .map(|_| {
            let state = setup();
            let t = Instant::now();
            timed(state);
            t.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect()
}

fn ns_row(name: &str, ns_per_op: &[f64]) -> Metric {
    Metric::new(name, "ns", summarize(ns_per_op))
}

fn us_row(name: &str, ns_per_op: &[f64]) -> Metric {
    let us: Vec<f64> = ns_per_op.iter().map(|ns| ns / 1e3).collect();
    Metric::new(name, "us", summarize(&us))
}

/// `bytes` moved per op, `ns_per_op` taken: MB/s (1 MB = 10⁶ bytes).
fn mb_per_s_row(name: &str, bytes: usize, ns_per_op: &[f64]) -> Metric {
    let rates: Vec<f64> = ns_per_op.iter().map(|ns| bytes as f64 * 1e3 / ns).collect();
    Metric::new(name, "MB/s", summarize(&rates))
}

/// Every per-layer row that does not come from a workload's own samples.
pub fn run(opts: &RunOpts, scratch: &Scratch) -> Vec<Metric> {
    let seed = mix(opts.seed ^ 0x1ADD);
    let mut rows = hashing_rows(seed);
    rows.extend(core_rows(seed));
    rows.extend(workloads_rows(seed));
    rows.extend(dataflow_rows(seed));
    rows.extend(net_rows());
    rows.extend(service_rows(seed, scratch));
    rows.extend(obs_rows());
    print_gaps(&rows);
    rows
}

// ---------------------------------------------------------------- hashing

const HASH_KEYS: usize = 1 << 18;

fn hashing_rows(seed: u64) -> Vec<Metric> {
    let keys: Vec<u64> = (0..HASH_KEYS as u64).map(|i| mix(seed ^ i)).collect();
    let mut rows = Vec::new();
    for (name, kind) in [
        ("hashing.crc32c_ns_per_key", HasherKind::Crc32c),
        ("hashing.tab32_ns_per_key", HasherKind::Tab32),
        ("hashing.tab64_ns_per_key", HasherKind::Tab64),
    ] {
        let hasher = Hasher::new(kind, seed);
        rows.push(ns_row(
            name,
            &repeats(
                HASH_KEYS as u64,
                || (),
                |()| {
                    let mut acc = 0u64;
                    for &k in &keys {
                        acc ^= hasher.hash(k);
                    }
                    black_box(acc);
                },
            ),
        ));
    }
    // Field multiplications as dependent chains: the checkers' polynomial
    // folds multiply into one accumulator.
    const GF_MULS: u64 = 1 << 14;
    rows.push(ns_row(
        "hashing.gf64_mul_ns",
        &repeats(
            GF_MULS,
            || (),
            |()| {
                let mut x = black_box(seed | 1);
                for _ in 0..GF_MULS {
                    x = gf_mul(x, 0x9E37_79B9_7F4A_7C15);
                }
                black_box(x);
            },
        ),
    ));
    const M61_MULS: u64 = 1 << 18;
    rows.push(ns_row(
        "hashing.mersenne61_mul_ns",
        &repeats(
            M61_MULS,
            || (),
            |()| {
                let y = Mersenne61::from_u64(0x9E37_79B9_7F4A_7C15);
                let mut x = Mersenne61::from_u64(black_box(seed));
                for _ in 0..M61_MULS {
                    x = Mersenne61::mul(x, y);
                }
                black_box(x);
            },
        ),
    ));
    let block = vec![0xA5u8; 1 << 20];
    rows.push(mb_per_s_row(
        "hashing.sha256_mb_per_s",
        block.len(),
        &repeats(
            1,
            || (),
            |()| {
                black_box(sha256(black_box(&block)));
            },
        ),
    ));
    rows
}

// ------------------------------------------------------------------- core

const SKETCH_ITEMS: usize = 1 << 17;

/// One sketch-update row: fold `items` into a fresh sketch per repeat.
fn update_row<S: Sketch>(name: &str, make: impl Fn() -> S, items: &[S::Item]) -> Metric
where
    S::Item: Copy,
{
    ns_row(
        name,
        &repeats(items.len() as u64, &make, |mut sketch| {
            sketch.update_iter(items.iter().copied());
            black_box(sketch.finalize());
        }),
    )
}

fn core_rows(seed: u64) -> Vec<Metric> {
    let pairs: Vec<(u64, u64)> = (0..SKETCH_ITEMS as u64)
        .map(|i| {
            (
                mix(seed ^ i) % (SKETCH_ITEMS as u64 / 10),
                1 + mix(i) % 1000,
            )
        })
        .collect();
    let items: Vec<u64> = pairs.iter().map(|p| p.0).collect();
    let paper = SumChecker::new(SumCheckConfig::new(4, 8, 5, HasherKind::Crc32c), seed);
    let service = SumChecker::new(SumCheckConfig::new(4, 16, 9, HasherKind::Tab64), seed);
    let xor = XorChecker::new(XorCheckConfig::new(4, 16, HasherKind::Tab64), seed);
    let perm = service_perm_checker(seed);
    let zipc = service_zip_checker(seed);
    let mut rows = vec![
        update_row("core.sum_update_ns.4x8-crc-m5", || paper.sketch(), &pairs),
        update_row(
            "core.sum_update_ns.4x16-tab64-m9",
            || service.sketch(),
            &pairs,
        ),
        update_row("core.xor_update_ns", || xor.sketch(), &pairs),
        update_row("core.perm_update_ns", || perm.sketch(), &items),
        update_row("core.zip_update_ns", || zipc.sketch_pairs(0), &pairs),
    ];

    // Merge and finalize on the service's table shape.
    const SKETCHES: usize = 512;
    let mut filled = service.sketch();
    filled.update_iter(pairs.iter().copied());
    let clones = || vec![filled.clone(); SKETCHES];
    rows.push(ns_row(
        "core.sum_merge_ns",
        &repeats(SKETCHES as u64, clones, |others| {
            let mut acc = service.sketch();
            for other in others {
                acc.merge(other);
            }
            black_box(acc.finalize());
        }),
    ));
    rows.push(ns_row(
        "core.sum_finalize_ns",
        &repeats(SKETCHES as u64, clones, |sketches| {
            for sketch in sketches {
                black_box(sketch.finalize());
            }
        }),
    ));

    // The sort checker on a world of PES: locally sorted shares with
    // ascending PE ranges, checked against their own unsorted input.
    let sorted_check = run_on(Backend::Local, PES, |comm| {
        let range = local_range(PES * SKETCH_ITEMS, comm.rank(), comm.size());
        let input: Vec<u64> = uniform_ints_iter(seed, 1 << 40, range)
            .map(|x| x + ((comm.rank() as u64) << 40))
            .collect();
        let mut output = input.clone();
        output.sort_unstable();
        let perm = service_perm_checker(seed);
        repeats(
            SKETCH_ITEMS as u64,
            || (),
            |()| {
                comm.barrier();
                assert!(check_sorted(comm, &input, &output, &perm));
                comm.barrier();
            },
        )
    })
    .swap_remove(0);
    rows.push(ns_row("core.sorted_check_ns_per_elem", &sorted_check));

    // Chunked folding against one-shot, back to back so both see the
    // same machine state.
    let ratios: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            let one_shot = digest_chunked(|| service.sketch(), pairs.iter().copied(), usize::MAX);
            let one_shot_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let chunked = digest_chunked(|| service.sketch(), pairs.iter().copied(), 4096);
            let chunked_s = t.elapsed().as_secs_f64();
            assert_eq!(one_shot, chunked, "chunking invariance");
            chunked_s / one_shot_s
        })
        .collect();
    rows.push(Metric::new(
        "core.sum_chunked_ratio",
        "ratio",
        summarize(&ratios),
    ));
    rows
}

// -------------------------------------------------------------- workloads

fn workloads_rows(seed: u64) -> Vec<Metric> {
    const N: usize = 1 << 17;
    let keys = N as u64 / 10;
    vec![
        ns_row(
            "workloads.zipf_ns_per_elem",
            &repeats(
                N as u64,
                || (),
                |()| {
                    let sum = zipf_valued_pairs_iter(seed, keys, 1 << 20, 0..N)
                        .fold(0u64, |acc, (k, v)| acc.wrapping_add(k ^ v));
                    black_box(sum);
                },
            ),
        ),
        ns_row(
            "workloads.uniform_ns_per_elem",
            &repeats(
                N as u64,
                || (),
                |()| {
                    let sum = uniform_ints_iter(seed, keys, 0..N).fold(0u64, u64::wrapping_add);
                    black_box(sum);
                },
            ),
        ),
    ]
}

// --------------------------------------------------------------- dataflow

/// Locally held elements per PE in the dataflow rows.
const OP_LOCAL: usize = 1 << 17;
/// svc-stream's chunk.
const OP_CHUNK: usize = 65_536;

/// Time `op` between barriers, `REPEATS` times, on input made untimed.
fn op_repeats<I>(
    comm: &mut Comm,
    mut input: impl FnMut() -> I,
    mut op: impl FnMut(&mut Comm, I),
) -> Vec<f64> {
    (0..REPEATS)
        .map(|_| {
            let data = input();
            comm.barrier();
            let t = Instant::now();
            op(comm, data);
            comm.barrier();
            t.elapsed().as_secs_f64() * 1e9 / OP_LOCAL as f64
        })
        .collect()
}

fn dataflow_rows(seed: u64) -> Vec<Metric> {
    let n = PES * OP_LOCAL;
    let keys = n as u64 / 10;
    let per_op: Vec<Vec<f64>> = run_on(Backend::Local, PES, |comm| {
        let range = local_range(n, comm.rank(), comm.size());
        let pairs: Vec<(u64, u64)> =
            zipf_valued_pairs_iter(seed, keys, 1 << 20, range.clone()).collect();
        let ints: Vec<u64> = uniform_ints_iter(seed, keys, range.clone()).collect();
        let other: Vec<u64> = uniform_ints_iter(seed ^ 0xB0B, u64::MAX, range).collect();
        let hasher = Hasher::new(HasherKind::Tab64, seed ^ 0x7061_7274);
        let add = |a: u64, b: u64| a.wrapping_add(b);
        vec![
            op_repeats(
                comm,
                || pairs.clone(),
                |comm, d| {
                    black_box(reduce_by_key(comm, d, &hasher, add));
                },
            ),
            op_repeats(
                comm,
                || ints.clone(),
                |comm, d| {
                    black_box(sort(comm, d));
                },
            ),
            op_repeats(
                comm,
                || (ints.clone(), other.clone()),
                |comm, (a, b)| {
                    black_box(zip(comm, a, b));
                },
            ),
            // The chunked ops ingest iterators; feeding them from memory
            // keeps the generator out of these rows.
            op_repeats(
                comm,
                || (),
                |comm, ()| {
                    black_box(reduce_by_key_chunked(
                        comm,
                        pairs.iter().copied(),
                        &hasher,
                        OP_CHUNK,
                        add,
                    ));
                },
            ),
            op_repeats(
                comm,
                || (),
                |comm, ()| {
                    black_box(sort_chunked(comm, ints.iter().copied(), OP_CHUNK));
                },
            ),
            op_repeats(
                comm,
                || ints.clone(),
                |comm, a| {
                    let b = (other.len() as u64, other.iter().copied());
                    black_box(zip_chunked(comm, a, b, OP_CHUNK));
                },
            ),
        ]
    })
    .swap_remove(0);
    [
        "dataflow.reduce_ns_per_elem",
        "dataflow.sort_ns_per_elem",
        "dataflow.zip_ns_per_elem",
        "dataflow.reduce_chunked_ns_per_elem",
        "dataflow.sort_chunked_ns_per_elem",
        "dataflow.zip_chunked_ns_per_elem",
    ]
    .iter()
    .zip(&per_op)
    .map(|(name, ns)| ns_row(name, ns))
    .collect()
}

// -------------------------------------------------------------------- net

/// Payload per peer in the all-to-all rows.
const A2A_BYTES: usize = 4 << 20;
/// Message sizes of the α-β sweep, with round trips per repeat.
const SWEEP: [(usize, usize); 5] = [
    (8, 400),
    (1 << 10, 300),
    (16 << 10, 100),
    (128 << 10, 30),
    (1 << 20, 6),
];
const SWEEP_REPEATS: usize = 5;
const LATENCY_OPS: u64 = 300;

/// Round trips of a `bytes`-byte message between PE 0 and PE 1; the
/// buffer travels back and forth, so nothing is allocated per trip.
/// Returns microseconds per round trip (meaningful on PE 0).
fn pingpong_us(comm: &mut Comm, bytes: usize, trips: usize) -> f64 {
    let tag = Tag::user(0x9199);
    let mut buf = vec![1u8; bytes];
    comm.barrier();
    let t = Instant::now();
    for _ in 0..trips {
        if comm.rank() == 0 {
            comm.send_raw(1, tag, std::mem::take(&mut buf));
            buf = comm.recv_raw(1, tag);
        } else {
            let echo = comm.recv_raw(0, tag);
            comm.send_raw(0, tag, echo);
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / trips as f64
}

struct BackendFigures {
    allreduce: Vec<f64>,
    barrier: Vec<f64>,
    alltoall: Vec<f64>,
    gather_stats: Vec<f64>,
    /// `(bytes, one-way seconds)`, the median of the repeats per size.
    sweep: Vec<(f64, f64)>,
    /// Round trips of the smallest message, µs.
    small_rtt: Vec<f64>,
}

fn backend_figures(backend: Backend) -> BackendFigures {
    run_on(backend, PES, |comm| {
        let timed_ops = |comm: &mut Comm, op: &dyn Fn(&mut Comm)| {
            for _ in 0..50 {
                op(comm);
            }
            repeats(
                LATENCY_OPS,
                || (),
                |()| {
                    for _ in 0..LATENCY_OPS {
                        op(comm);
                    }
                },
            )
        };
        let allreduce = timed_ops(comm, &|c| {
            black_box(c.allreduce(black_box(7u64), |a, b| a + b));
        });
        let barrier = timed_ops(comm, &|c| c.barrier());
        // A gather is one-directional: back to back, the root would
        // only see how fast the leaves can send. Start each one from a
        // barrier and time it alone.
        let gather_stats: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let mut busy = std::time::Duration::ZERO;
                for _ in 0..LATENCY_OPS {
                    comm.barrier();
                    let t = Instant::now();
                    black_box(comm.gather_stats());
                    busy += t.elapsed();
                }
                busy.as_secs_f64() * 1e9 / LATENCY_OPS as f64
            })
            .collect();
        let share: Vec<u64> = (0..(A2A_BYTES / 8) as u64).collect();
        let alltoall: Vec<f64> = (0..9)
            .map(|_| {
                let outgoing = vec![share.clone(); PES];
                comm.barrier();
                let t = Instant::now();
                black_box(comm.all_to_all(outgoing));
                comm.barrier();
                t.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        // The smallest message is also the ping-pong row, so it gets a
        // row's repeats.
        let mut sweep = Vec::new();
        let mut small_rtt = Vec::new();
        for (i, (bytes, trips)) in SWEEP.into_iter().enumerate() {
            pingpong_us(comm, bytes, trips / 4 + 1);
            let repeats = if i == 0 { REPEATS } else { SWEEP_REPEATS };
            let rtts: Vec<f64> = (0..repeats)
                .map(|_| pingpong_us(comm, bytes, trips))
                .collect();
            sweep.push((bytes as f64, median(&rtts) / 2.0 / 1e6));
            if i == 0 {
                small_rtt = rtts;
            }
        }
        BackendFigures {
            allreduce,
            barrier,
            alltoall,
            gather_stats,
            sweep,
            small_rtt,
        }
    })
    .swap_remove(0)
}

/// The scoped-mux rows: the same small ping-pong on a `CommMux::scoped`
/// communicator over TCP, and what opening (and retiring) a scope costs.
fn mux_figures() -> (Vec<f64>, Vec<f64>) {
    run_owned_with_stats_on(Backend::TcpLoopback, PES, |comm| {
        let mux = comm.into_mux();
        let mut control = mux.control();
        let mut scoped = mux.scoped(1, "ladder-pingpong");
        let (bytes, trips) = SWEEP[0];
        pingpong_us(&mut scoped, bytes, trips / 4 + 1);
        let rtts: Vec<f64> = (0..REPEATS)
            .map(|_| pingpong_us(&mut scoped, bytes, trips))
            .collect();
        drop(scoped);
        control.barrier();
        // As the daemon does per job: a fresh label, dropped and retired.
        const OPENS: u64 = 200;
        let stats = mux.stats();
        let mut opened = 0u64;
        let open = repeats(
            OPENS,
            || (),
            |()| {
                for _ in 0..OPENS {
                    let label = format!("ladder-open-{opened}");
                    opened += 1;
                    drop(black_box(mux.scoped(2, &label)));
                    stats.retire_scope(&label);
                }
            },
        );
        control.barrier();
        drop(control);
        mux.shutdown();
        (rtts, open)
    })
    .0
    .swap_remove(0)
}

fn net_rows() -> Vec<Metric> {
    let local = backend_figures(Backend::Local);
    let tcp = backend_figures(Backend::TcpLoopback);
    let (mux_rtt, scope_open) = mux_figures();
    // Both parameters are physical, so not negative: the in-process
    // backend hands buffers over by move, and its fitted β is zero up to
    // noise of either sign.
    let fit = |sweep: &[(f64, f64)]| {
        let (alpha, beta) = fit_alpha_beta(sweep);
        (alpha.max(0.0), beta.max(0.0))
    };
    let (local_alpha, local_beta) = fit(&local.sweep);
    let (tcp_alpha, tcp_beta) = fit(&tcp.sweep);
    // Feed the fit to the repo's own model and hold it against the
    // measured all-to-all.
    let model = CostModel::new(tcp_alpha, 1.0 / tcp_beta.max(f64::MIN_POSITIVE));
    let predicted_s = model.all_to_all_time(A2A_BYTES as u64, PES);
    let residual: Vec<f64> = tcp
        .alltoall
        .iter()
        .map(|ns| ns / 1e9 / predicted_s)
        .collect();
    let words: Vec<u64> = (0..(A2A_BYTES / 8) as u64).collect();
    let encoded = wire::encode(&words);
    let single =
        |name: &str, unit: &str, value: f64| Metric::new(name, unit, Summary::single(value));
    vec![
        us_row("net.local.allreduce_us", &local.allreduce),
        us_row("net.tcp.allreduce_us", &tcp.allreduce),
        us_row("net.local.barrier_us", &local.barrier),
        us_row("net.tcp.barrier_us", &tcp.barrier),
        Metric::new("net.raw.pingpong_us", "us", summarize(&tcp.small_rtt)),
        Metric::new("net.mux.pingpong_us", "us", summarize(&mux_rtt)),
        single(
            "net.mux_overhead_ratio",
            "ratio",
            median(&mux_rtt) / median(&tcp.small_rtt),
        ),
        us_row("net.mux.scope_open_us", &scope_open),
        us_row("net.tcp.gather_stats_us", &tcp.gather_stats),
        mb_per_s_row("net.local.alltoall_mb_per_s", A2A_BYTES, &local.alltoall),
        mb_per_s_row("net.tcp.alltoall_mb_per_s", A2A_BYTES, &tcp.alltoall),
        mb_per_s_row(
            "net.wire.encode_mb_per_s",
            A2A_BYTES,
            &repeats(
                1,
                || (),
                |()| {
                    black_box(wire::encode(black_box(&words)));
                },
            ),
        ),
        mb_per_s_row(
            "net.wire.decode_mb_per_s",
            A2A_BYTES,
            &repeats(
                1,
                || (),
                |()| {
                    black_box(wire::decode::<Vec<u64>>(black_box(&encoded)));
                },
            ),
        ),
        single("net.local.alpha_us", "us", local_alpha * 1e6),
        single("net.local.beta_ns_per_byte", "ns", local_beta * 1e9),
        single("net.tcp.alpha_us", "us", tcp_alpha * 1e6),
        single("net.tcp.beta_ns_per_byte", "ns", tcp_beta * 1e9),
        Metric::new(
            "net.tcp.model_residual_ratio",
            "ratio",
            summarize(&residual),
        ),
    ]
}

// ---------------------------------------------------------------- service

const EMPTY_JOBS: u64 = 30;

fn service_rows(seed: u64, scratch: &Scratch) -> Vec<Metric> {
    let empty = specs::empty_job_spec(seed);

    // The executor alone, on a bare communicator of the service's backend.
    let exec = run_on(Backend::TcpLoopback, PES, |comm| {
        for id in 0..10 {
            execute_job(comm, id + 1, &empty);
        }
        repeats(
            EMPTY_JOBS,
            || (),
            |()| {
                comm.barrier();
                for id in 0..EMPTY_JOBS {
                    black_box(execute_job(comm, id + 1, &empty));
                }
            },
        )
    })
    .swap_remove(0);

    // The same spec through the daemon, and the client's calls apart.
    let world = World::start(&scratch.path("ladder-ledger.log"));
    let mut client = world.connect();
    let run_empty = |client: &mut ServiceClient| -> Vec<svc::JobRecord> {
        (0..EMPTY_JOBS)
            .map(|_| svc::run_job(client, &empty))
            .collect()
    };
    let warm = run_empty(&mut client);
    let finished = warm
        .iter()
        .find_map(|j| j.outcome.as_ref().ok().map(|r| r.job_id))
        .expect("an empty job finished");
    let (mut daemon, mut submit, mut wait) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let jobs = run_empty(&mut client);
        assert!(
            jobs.iter().all(svc::JobRecord::verified),
            "empty jobs verify"
        );
        // Mean nanoseconds per job, as the `us_row`s below expect.
        let mean_ns = |ms: fn(&svc::JobRecord) -> f64| {
            mean(jobs.iter().map(|j| ms(j) * 1e6)).expect("a repeat has jobs")
        };
        daemon.push(mean_ns(svc::JobRecord::latency_ms));
        submit.push(mean_ns(svc::JobRecord::submit_ms));
        wait.push(mean_ns(svc::JobRecord::wait_ms));
    }
    const POLLS: u64 = 100;
    let roundtrip = repeats(
        POLLS,
        || (),
        |()| {
            for _ in 0..POLLS {
                black_box(client.poll(finished).expect("poll a finished job"));
            }
        },
    );

    // Collection on / off, on rounds of svc-tiny's jobs in this world.
    let shape = specs::svc_shape(SVC_TINY).expect("svc-tiny has a shape");
    let mut clients: Vec<ServiceClient> = (0..shape.clients).map(|_| world.connect()).collect();
    const OBS_JOBS: u64 = 150;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for round in 0..6u64 {
        let enabled = round % 2 == 1;
        ccheck_obs::set_enabled(enabled);
        let r = svc::run_round(
            &mut clients,
            SVC_TINY,
            &shape,
            seed,
            (1 << 41) + round * OBS_JOBS,
            OBS_JOBS,
            None,
        );
        ccheck_obs::set_enabled(false);
        assert!(r.jobs.iter().all(svc::JobRecord::verified));
        if enabled { &mut on } else { &mut off }.push(OBS_JOBS as f64 / r.wall_s);
    }
    drop(clients);
    drop(client);
    world.stop();

    // Codecs, on what actually crosses the client socket.
    let spec = specs::job_spec(SVC_TINY, &shape, seed, 0);
    let sealed = Receipt {
        content_hash: Some("c".repeat(64)),
        prev_hash: Some("p".repeat(64)),
        ..Receipt::example()
    };
    let receipt_text = sealed.to_json().render();
    const CODEC_OPS: u64 = 500;
    let spec_encode = repeats(
        CODEC_OPS,
        || (),
        |()| {
            for _ in 0..CODEC_OPS {
                black_box(black_box(&spec).to_json().render());
            }
        },
    );
    let receipt_decode = repeats(
        CODEC_OPS,
        || (),
        |()| {
            for _ in 0..CODEC_OPS {
                let parsed = json::parse(black_box(&receipt_text)).expect("receipt parses");
                black_box(Receipt::from_json(&parsed).expect("receipt decodes"));
            }
        },
    );

    // Ledger: append without and with an fsync per record, then reopen.
    let mut next_id = 0u64;
    let mut fresh = || {
        next_id += 1;
        Receipt {
            job_id: next_id,
            ..Receipt::example()
        }
    };
    const APPENDS: u64 = 100;
    let mut ledger = Ledger::open(scratch.path("ladder-append.log")).expect("open ledger");
    ledger.set_sync_every(u32::MAX);
    let append = repeats(
        APPENDS,
        || (0..APPENDS).map(|_| fresh()).collect::<Vec<_>>(),
        |receipts| {
            for receipt in receipts {
                black_box(ledger.append(receipt).expect("append"));
            }
        },
    );
    const SYNCED_APPENDS: u64 = 8;
    ledger.set_sync_every(1);
    let append_fsync = repeats(
        SYNCED_APPENDS,
        || (0..SYNCED_APPENDS).map(|_| fresh()).collect::<Vec<_>>(),
        |receipts| {
            for receipt in receipts {
                black_box(ledger.append(receipt).expect("append"));
            }
        },
    );
    let entries = ledger.len() as u64;
    let path = ledger.path().to_path_buf();
    drop(ledger);
    let replay = repeats(
        entries,
        || (),
        |()| {
            black_box(Ledger::open(&path).expect("reopen ledger"));
        },
    );

    vec![
        us_row("service.exec.empty_job_us", &exec),
        us_row("service.daemon.empty_job_us", &daemon),
        Metric::new(
            "service.daemon.fixed_overhead_us",
            "us",
            Summary::single((median(&daemon) - median(&exec)) / 1e3),
        ),
        us_row("service.client.roundtrip_us", &roundtrip),
        us_row("service.client.submit_us", &submit),
        us_row("service.client.wait_us", &wait),
        us_row("service.json.spec_encode_us", &spec_encode),
        us_row("service.json.receipt_decode_us", &receipt_decode),
        us_row("service.ledger.append_us", &append),
        us_row("service.ledger.append_fsync_us", &append_fsync),
        us_row(
            "service.sched.pick_us.fifo",
            &sched_cycle(&PolicyCfg::Fifo, seed),
        ),
        us_row(
            "service.sched.pick_us.wfq",
            &sched_cycle(&PolicyCfg::deadline_wfq(), seed),
        ),
        us_row("service.ledger.replay_us_per_receipt", &replay),
        Metric::new(
            "obs.enabled_overhead_ratio",
            "ratio",
            Summary::single(median(&on) / median(&off)),
        ),
    ]
}

/// Enqueue + pick + complete on a queue held at 64 jobs of 4 tenants.
fn sched_cycle(policy: &PolicyCfg, seed: u64) -> Vec<f64> {
    const QUEUE: u64 = 64;
    const CYCLES: u64 = 500;
    let spec_of = |id: u64| JobSpec {
        tenant: Some(format!("tenant{}", id % 4)),
        seed: seed ^ id,
        ..JobSpec::default()
    };
    let mut core = SchedCore::new(policy, 2 * QUEUE as usize, 4);
    let mut next_id = 1;
    for _ in 0..QUEUE {
        core.try_enqueue(0, next_id, spec_of(next_id))
            .expect("prefill the queue");
        next_id += 1;
    }
    let mut now_ms = 0;
    repeats(
        CYCLES,
        || (),
        |()| {
            for _ in 0..CYCLES {
                now_ms += 1;
                core.try_enqueue(now_ms, next_id, spec_of(next_id))
                    .expect("queue has room");
                next_id += 1;
                let admitted = core.pick(now_ms).expect("a queued job is admissible");
                core.complete(&Receipt {
                    job_id: admitted.job_id,
                    tenant: admitted.spec.tenant.clone(),
                    ..Receipt::example()
                });
            }
        },
    )
}

// -------------------------------------------------------------------- obs

fn obs_rows() -> Vec<Metric> {
    const SITES: u64 = 1 << 20;
    ccheck_obs::set_enabled(false);
    let disabled = repeats(
        SITES,
        || (),
        |()| {
            for _ in 0..SITES {
                drop(black_box(ccheck_obs::span(black_box("ladder.site"))));
            }
        },
    );
    let counter = ccheck_obs::registry().counter("ladder.counter");
    let inc = repeats(
        SITES,
        || (),
        |()| {
            for _ in 0..SITES {
                black_box(&counter).inc();
            }
        },
    );
    const SPANS: u64 = 1 << 16;
    ccheck_obs::set_enabled(true);
    let span = repeats(
        SPANS,
        || (),
        |()| {
            for _ in 0..SPANS {
                drop(black_box(ccheck_obs::span(black_box("ladder.site"))));
            }
        },
    );
    ccheck_obs::set_enabled(false);
    vec![
        ns_row("obs.disabled_site_ns", &disabled),
        ns_row("obs.counter_inc_ns", &inc),
        ns_row("obs.span_ns", &span),
    ]
}

// ------------------------------------------------------------------- gaps

/// The gaps between rungs are the output: each sketch-update row over the
/// hash row beneath it, and each layer of a tiny job over the one below.
fn print_gaps(rows: &[Metric]) {
    let value = |name: &str| {
        rows.iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.summary.median)
    };
    eprintln!("-- ladder gaps (row / the row beneath it)");
    for (upper, lower) in [
        ("core.sum_update_ns.4x8-crc-m5", "hashing.crc32c_ns_per_key"),
        (
            "core.sum_update_ns.4x16-tab64-m9",
            "hashing.tab64_ns_per_key",
        ),
        ("core.xor_update_ns", "hashing.tab64_ns_per_key"),
        ("core.perm_update_ns", "hashing.tab64_ns_per_key"),
        ("core.zip_update_ns", "hashing.tab64_ns_per_key"),
        ("net.tcp.allreduce_us", "net.local.allreduce_us"),
        ("net.mux.pingpong_us", "net.raw.pingpong_us"),
        ("service.exec.empty_job_us", "net.tcp.allreduce_us"),
        ("service.daemon.empty_job_us", "service.exec.empty_job_us"),
    ] {
        eprintln!(
            "{upper:<36} / {lower:<28} = {:>10} / {:>10} = {:>8}",
            sig(value(upper)),
            sig(value(lower)),
            sig(value(upper) / value(lower)),
        );
    }
}
