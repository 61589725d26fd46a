//! Criterion microbenchmark behind §7.2's overhead numbers: local
//! fingerprinting throughput of the permutation/sort checker (paper:
//! 2.0 ns/element for CRC32, 2.8 ns for 32-bit tabulation hashing), plus
//! the polynomial variants of Lemma 5.

use ccheck::permutation::{PermCheckConfig, PermChecker, PermMethod};
use ccheck::sketch::Sketch;
use ccheck_hashing::HasherKind;
use ccheck_workloads::uniform_ints;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_fingerprints(c: &mut Criterion) {
    let n = 100_000usize;
    let data = uniform_ints(2, 100_000_000, 0..n);

    let mut group = c.benchmark_group("perm_checker_fingerprint");
    group.throughput(Throughput::Elements(n as u64));

    let configs: Vec<(&str, PermCheckConfig)> = vec![
        ("CRC32", PermCheckConfig::hash_sum(HasherKind::Crc32c, 32)),
        ("Tab32", PermCheckConfig::hash_sum(HasherKind::Tab32, 32)),
        ("Tab64", PermCheckConfig::hash_sum(HasherKind::Tab64, 32)),
        (
            "PolyF61",
            PermCheckConfig {
                method: PermMethod::PolyField,
                iterations: 1,
            },
        ),
        (
            "PolyGF64",
            PermCheckConfig {
                method: PermMethod::PolyGf64,
                iterations: 1,
            },
        ),
    ];
    for (name, cfg) in configs {
        let checker = PermChecker::new(cfg, 9);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut sketch = checker.sketch();
                sketch.update_iter(std::hint::black_box(&data).iter().copied());
                std::hint::black_box(sketch.finalize())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fingerprints);
criterion_main!(benches);
