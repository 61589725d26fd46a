//! Golden digests: the `finalize()` of every sketch over fixed inputs,
//! pinned in `tests/fixtures/golden_digests.txt`.
//!
//! A sketch digest is a pure function of `(config, seed, items[, start
//! offset])`; how the fold walks memory must never show in it. Kernel
//! rewrites (block folds, batch hashing) are therefore held to a fixture
//! produced by the element-wise kernels they replace: this test must
//! pass *untouched* across such a change.
//!
//! One deliberate exception, noted in the fixture header: the hash-sum
//! permutation lines of Tab64 at more than one iteration were
//! re-recorded when its iterations became slices of shared hash words.
//!
//! Coverage: sum / xor / perm / zip (lane 0, lane 1, pairs) × {Tab64,
//! Tab32, CRC} × every iteration count on the service tuner's ladder ×
//! three seeds × lengths around the 256-item block size × zip start
//! offsets whose position runs cross a byte carry inside the stream
//! (250: `…FF → …100`; `0xFFF0`: two bytes; `0xFFFF_FFF0`: four), plus
//! the two polynomial permutation methods (no hasher). Narrow-key lines
//! pin sum and perm over keys of 1, 3, 4 and 7 significant bytes and
//! over a stream mixing narrow and full-range keys, since the hash
//! kernels pick their work by key width.
//!
//! One fixture line per `(sketch, hasher, iterations, seed)`; one column
//! per length holding the first 8 bytes of the SHA-256 of the canonical
//! little-endian digest encoding (zip columns cover all four offsets).
//!
//! To regenerate after a *deliberate*, versioned digest change:
//! `cargo test -p ccheck-suite --test golden_digests -- --ignored`.

use ccheck::config::SumCheckConfig;
use ccheck::permutation::{PermCheckConfig, PermMethod};
use ccheck::sketch::Sketch;
use ccheck::{PermChecker, SumChecker, XorCheckConfig, XorChecker, ZipCheckConfig, ZipChecker};
use ccheck_hashing::{sha256_hex, HasherKind};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/golden_digests.txt");
const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/fixtures/golden_digests.txt"
);

const KINDS: [HasherKind; 3] = [HasherKind::Tab64, HasherKind::Tab32, HasherKind::Crc32c];
/// Every iteration count of `ccheck-service`'s `sched::tuner::LADDER`.
const ITERATIONS: [usize; 5] = [1, 2, 4, 8, 16];
const SEEDS: [u64; 3] = [1, 0x00C0_FFEE, 0xFFFF_FFFF_FFFF_FFC5];
const LENGTHS: [usize; 6] = [0, 1, 255, 256, 257, 5000];
const ZIP_STARTS: [u64; 4] = [0, 250, 0xFFF0, 0xFFFF_FFF0];

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Full-range pairs with a small key universe: keys repeat (buckets
/// collide), values span all 64 bits (lazy-overflow and field
/// canonicalisation paths are taken).
fn pairs(seed: u64, len: usize) -> Vec<(u64, u64)> {
    (0..len as u64)
        .map(|i| {
            let r = splitmix64(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
            (r % 977, splitmix64(r))
        })
        .collect()
}

/// Full-range single items (values above 2⁶¹ − 1 included).
fn items(seed: u64, len: usize) -> Vec<u64> {
    pairs(seed, len).into_iter().map(|(_, v)| v).collect()
}

/// Keep the low `width` bytes of `x`: a key of at most `width`
/// significant bytes.
fn narrow(x: u64, width: u32) -> u64 {
    if width >= 8 {
        x
    } else {
        x & ((1u64 << (8 * width)) - 1)
    }
}

/// The key width, in bytes, of item `i` drawn from the random word `r`.
type KeyWidth = fn(u64, u64) -> u32;

/// Key width of item `i` of the mixed-width stream: runs of 100 one- to
/// four-byte keys, with a full-range key wherever 397 divides `r`, so some
/// blocks are narrow throughout and some hold a single wide key.
fn mixed_width(i: u64, r: u64) -> u32 {
    if r.is_multiple_of(397) {
        8
    } else {
        1 + (i / 100 % 4) as u32
    }
}

/// Pairs whose key is cut to `width(i, r)` bytes, `r` being item `i`'s
/// random word (and its full-range value).
fn narrow_pairs(seed: u64, len: usize, width: KeyWidth) -> Vec<(u64, u64)> {
    (0..len as u64)
        .map(|i| {
            let r = splitmix64(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
            (narrow(splitmix64(r), width(i, r)), r)
        })
        .collect()
}

/// First 8 bytes (hex) of the SHA-256 of a digest's canonical encoding.
fn short_hash(bytes: &[u8]) -> String {
    sha256_hex(bytes)[..16].to_string()
}

fn le64(words: impl IntoIterator<Item = u64>) -> Vec<u8> {
    words.into_iter().flat_map(u64::to_le_bytes).collect()
}

fn encode_zip((start, count, accs): (u64, u64, Vec<u64>)) -> Vec<u8> {
    le64([start, count].into_iter().chain(accs))
}

fn encode_perm((count, accs): (u64, Vec<u128>)) -> Vec<u8> {
    let mut bytes = count.to_le_bytes().to_vec();
    bytes.extend(accs.into_iter().flat_map(u128::to_le_bytes));
    bytes
}

/// One fixture line: `name | col col …` with one column per length.
fn line(out: &mut String, name: &str, column: impl Fn(usize) -> Vec<u8>) {
    write!(out, "{name} |").unwrap();
    for len in LENGTHS {
        write!(out, " {}", short_hash(&column(len))).unwrap();
    }
    out.push('\n');
}

/// Fold `data` through a fresh sketch via `update_iter` — the path every
/// checker and executor drives.
fn digest<S: Sketch>(mut sketch: S, data: &[S::Item]) -> S::Digest
where
    S::Item: Copy,
{
    sketch.update_iter(data.iter().copied());
    sketch.finalize()
}

fn compute_fixture() -> String {
    let mut out = String::from(
        "# Golden sketch digests — see tests/golden_digests.rs. Do not edit by hand.\n\
         # columns: lengths 0 1 255 256 257 5000 (zip: offsets 0 250 0xFFF0 0xFFFFFFF0 hashed together)\n\
         # Re-recorded deliberately: the 12 `perm Tab64 its∈{2,4,8,16}` lines, when hash-sum\n\
         # iterations became 32-bit slices of shared Tab64 words (two iterations per word).\n\
         # Every other line is unchanged since the element-wise kernels recorded it.\n",
    );
    for kind in KINDS {
        for its in ITERATIONS {
            for seed in SEEDS {
                let tag = format!("{} its={its} seed={seed:#x}", kind.label());

                let sum = SumChecker::new(SumCheckConfig::new(its, 16, 9, kind), seed);
                line(&mut out, &format!("sum {tag}"), |len| {
                    le64(digest(sum.sketch(), &pairs(seed, len)))
                });

                let xor = XorChecker::new(XorCheckConfig::new(its, 16, kind), seed);
                line(&mut out, &format!("xor {tag}"), |len| {
                    le64(digest(xor.sketch(), &pairs(seed, len)))
                });

                let mut cfg = PermCheckConfig::hash_sum(kind, 32);
                cfg.iterations = its;
                let perm = PermChecker::new(cfg, seed);
                line(&mut out, &format!("perm {tag}"), |len| {
                    encode_perm(digest(perm.sketch(), &items(seed, len)))
                });

                let zip = ZipChecker::new(
                    ZipCheckConfig {
                        hasher: kind,
                        iterations: its,
                    },
                    seed,
                );
                for lane in 0..2 {
                    line(&mut out, &format!("zip{lane} {tag}"), |len| {
                        ZIP_STARTS
                            .into_iter()
                            .flat_map(|start| {
                                encode_zip(digest(zip.sketch(lane, start), &items(seed, len)))
                            })
                            .collect()
                    });
                }
                line(&mut out, &format!("zippairs {tag}"), |len| {
                    ZIP_STARTS
                        .into_iter()
                        .flat_map(|start| {
                            let (a, b) = digest(zip.sketch_pairs(start), &pairs(seed, len));
                            [encode_zip(a), encode_zip(b)].concat()
                        })
                        .collect()
                });
            }
        }
    }
    for (label, method) in [
        ("polyfield", PermMethod::PolyField),
        ("polygf64", PermMethod::PolyGf64),
    ] {
        for its in ITERATIONS {
            for seed in SEEDS {
                let perm = PermChecker::new(
                    PermCheckConfig {
                        method,
                        iterations: its,
                    },
                    seed,
                );
                line(
                    &mut out,
                    &format!("perm {label} its={its} seed={seed:#x}"),
                    |len| encode_perm(digest(perm.sketch(), &items(seed, len))),
                );
            }
        }
    }
    // Narrow keys: the block kernels hash only a key's significant
    // bytes, so each width (and blocks mixing narrow keys with a wide
    // one) gets its own lines. Sum hashes the keys, perm the items.
    let widths: [(&str, KeyWidth); 5] = [
        ("w=1", |_, _| 1),
        ("w=3", |_, _| 3),
        ("w=4", |_, _| 4),
        ("w=7", |_, _| 7),
        ("w=mixed", mixed_width),
    ];
    let seed = SEEDS[1];
    for kind in KINDS {
        for its in [1, 4] {
            let tag = format!("{} its={its} seed={seed:#x}", kind.label());
            let sum = SumChecker::new(SumCheckConfig::new(its, 16, 9, kind), seed);
            let mut cfg = PermCheckConfig::hash_sum(kind, 32);
            cfg.iterations = its;
            let perm = PermChecker::new(cfg, seed);
            for (label, width) in widths {
                line(&mut out, &format!("sum {label} {tag}"), |len| {
                    le64(digest(sum.sketch(), &narrow_pairs(seed, len, width)))
                });
                line(&mut out, &format!("perm {label} {tag}"), |len| {
                    let keys: Vec<u64> = narrow_pairs(seed, len, width)
                        .into_iter()
                        .map(|(k, _)| k)
                        .collect();
                    encode_perm(digest(perm.sketch(), &keys))
                });
            }
        }
    }
    out
}

#[test]
fn digests_match_the_checked_in_fixture() {
    let computed = compute_fixture();
    for (n, (got, want)) in computed.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "digest changed at fixture line {} (columns are lengths {LENGTHS:?})",
            n + 1
        );
    }
    assert_eq!(
        computed.lines().count(),
        FIXTURE.lines().count(),
        "fixture and test enumerate different case sets"
    );
}

/// Rewrites the fixture from the kernels in this tree. Only for a
/// deliberate digest change; a kernel rewrite must never need it.
#[test]
#[ignore = "regenerates tests/fixtures/golden_digests.txt"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE_PATH, compute_fixture()).expect("fixture path is writable");
}
