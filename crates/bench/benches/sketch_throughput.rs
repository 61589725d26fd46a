//! Criterion microbenchmark for the streaming sketch core: elements/sec
//! of `Sketch::update_iter` (the fold every checker drives — a block
//! kernel where the sketch has one) for every sketch-backed checker,
//! plus the cost of a chunked fold (update + merge) relative to the
//! one-shot fold — the number that certifies chunking is free — and the
//! distributed zip check on the layouts its equal-block skip does and
//! does not cover.

use ccheck::config::SumCheckConfig;
use ccheck::permutation::PermCheckConfig;
use ccheck::sketch::{digest_chunked, Sketch};
use ccheck::{PermChecker, SumChecker, XorCheckConfig, XorChecker, ZipCheckConfig, ZipChecker};
use ccheck_hashing::HasherKind;
use ccheck_net::run;
use ccheck_workloads::{uniform_ints, zipf_pairs};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const N: usize = 100_000;

fn pair_workload() -> Vec<(u64, u64)> {
    let keys = zipf_pairs(42, 1_000_000, 0..N);
    let values = uniform_ints(43, u64::MAX, 0..N);
    keys.into_iter()
        .zip(values)
        .map(|((k, _), v)| (k, v))
        .collect()
}

/// [`pair_workload`] with full-range keys: every key has eight
/// significant bytes, the widest the tabulation kernels hash.
fn wide_pair_workload() -> Vec<(u64, u64)> {
    let keys = uniform_ints(44, u64::MAX, 0..N);
    let values = uniform_ints(43, u64::MAX, 0..N);
    keys.into_iter().zip(values).collect()
}

fn bench_sketch_update(c: &mut Criterion) {
    // Narrow keys (Zipf ranks ≤ 10⁶, ints < 10⁸: three or four
    // significant bytes) as in the paper's workloads, and full-range
    // keys for the rows the tabulation width matters to.
    let pairs = pair_workload();
    let wide_pairs = wide_pair_workload();
    let ints = uniform_ints(7, 100_000_000, 0..N);
    let wide_ints = uniform_ints(8, u64::MAX, 0..N);

    let mut group = c.benchmark_group("sketch_update");
    group.throughput(Throughput::Elements(N as u64));

    // A Table 3 shape of the paper, then the service's default.
    let tab64_sum = SumCheckConfig::new(4, 16, 9, HasherKind::Tab64);
    for (label, cfg, input) in [
        (
            "sum 4x8 CRC m5",
            SumCheckConfig::new(4, 8, 5, HasherKind::Crc32c),
            &pairs,
        ),
        ("sum 4x16 Tab64 m9", tab64_sum, &pairs),
        ("sum 4x16 Tab64 m9 wide keys", tab64_sum, &wide_pairs),
    ] {
        let sum = SumChecker::new(cfg, 1);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut sk = sum.sketch();
                sk.update_iter(std::hint::black_box(input).iter().copied());
                std::hint::black_box(sk.finalize())
            })
        });
    }

    let xor = XorChecker::new(XorCheckConfig::new(4, 16, HasherKind::Tab64), 1);
    group.bench_function(BenchmarkId::from_parameter("xor 4x16 Tab64"), |b| {
        b.iter(|| {
            let mut sk = xor.sketch();
            sk.update_iter(std::hint::black_box(&pairs).iter().copied());
            std::hint::black_box(sk.finalize())
        })
    });

    // One 32-bit hash-sum iteration, then the service's four: two
    // iterations per Tab64 word.
    for (label, iterations, input) in [
        ("perm hash-sum Tab32bit", 1, &ints),
        ("perm hash-sum Tab64 4-iter", 4, &ints),
        ("perm hash-sum Tab64 4-iter wide keys", 4, &wide_ints),
    ] {
        let mut cfg = PermCheckConfig::hash_sum(HasherKind::Tab64, 32);
        cfg.iterations = iterations;
        let perm = PermChecker::new(cfg, 1);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut sk = perm.sketch();
                sk.update_iter(std::hint::black_box(input).iter().copied());
                std::hint::black_box(sk.finalize())
            })
        });
    }

    let zip = ZipChecker::new(ZipCheckConfig::default(), 1);
    group.bench_function(BenchmarkId::from_parameter("zip 2-iter Tab64"), |b| {
        b.iter(|| {
            let mut sk = zip.sketch(0, 0);
            sk.update_iter(std::hint::black_box(&ints).iter().copied());
            std::hint::black_box(sk.finalize())
        })
    });

    group.finish();
}

fn bench_chunked_vs_one_shot(c: &mut Criterion) {
    // The merge overhead of chunked folding must be negligible: one
    // table merge per chunk amortized over `chunk` updates.
    let pairs = pair_workload();
    let sum = SumChecker::new(SumCheckConfig::new(4, 8, 5, HasherKind::Crc32c), 1);

    let mut group = c.benchmark_group("sum_sketch_chunked_fold");
    group.throughput(Throughput::Elements(N as u64));
    for chunk in [1usize << 10, 1 << 14, usize::MAX] {
        let label = if chunk == usize::MAX {
            "one-shot".to_string()
        } else {
            format!("chunk {chunk}")
        };
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                std::hint::black_box(digest_chunked(
                    || sum.sketch(),
                    std::hint::black_box(&pairs).iter().copied(),
                    chunk,
                ))
            })
        });
    }
    group.finish();
}

fn bench_zip_check(c: &mut Criterion) {
    // `ZipChecker::check` on a p = 2 world at the service's 4 iterations.
    // A clean zip split like its inputs is all equal blocks; a randomized
    // output differs in every block, so both sides are hashed; with `b`'s
    // boundary half a share early, each PE holds a quarter of `N` where
    // lane 1's input and output sit on different PEs and are hashed.
    const P: usize = 2;
    let a = uniform_ints(11, u64::MAX, 0..N);
    let b = uniform_ints(12, u64::MAX, 0..N);
    let clean: Vec<(u64, u64)> = a.iter().copied().zip(b.iter().copied()).collect();
    let randomized: Vec<(u64, u64)> = uniform_ints(13, u64::MAX, 0..N)
        .into_iter()
        .zip(uniform_ints(14, u64::MAX, 0..N))
        .collect();
    let even = [0, N / 2, N];
    let shifted = [0, N / 4, N];
    let zip = ZipChecker::new(
        ZipCheckConfig {
            hasher: HasherKind::Tab64,
            iterations: 4,
        },
        1,
    );

    let mut group = c.benchmark_group("zip_check_p2");
    group.throughput(Throughput::Elements(N as u64));
    for (label, output, b_bounds) in [
        ("clean co-indexed", &clean, &even),
        ("output randomized", &randomized, &even),
        ("b shifted half a share", &clean, &shifted),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |bench| {
            bench.iter(|| {
                run(P, |comm| {
                    let r = comm.rank();
                    zip.check(
                        comm,
                        &a[even[r]..even[r + 1]],
                        &b[b_bounds[r]..b_bounds[r + 1]],
                        &output[even[r]..even[r + 1]],
                    )
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sketch_update,
    bench_chunked_vs_one_shot,
    bench_zip_check
);
criterion_main!(benches);
