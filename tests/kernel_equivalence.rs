//! The fused bucket fold of the sum and xor sketches against the
//! element-wise definition, on every table shape the code can select.
//!
//! The sum and xor sketches fold every path — `update`, `update_iter`,
//! `condense`, the signed forms — through one fused block kernel that is
//! monomorphised over the bucket count and groups the iterations a hash
//! word serves. A kernel that mishandles one of those groupings would
//! still agree with itself, so each path is held here to a reference
//! written from the definition: every item, every iteration, one
//! [`PartitionedHash::hash`] and one bucket update, with the documented
//! overflow rule (an add that wraps folds `2⁶⁴ mod rᵢ` back in, twice if
//! that wraps too). The *raw* tables must match bit for bit, before
//! `finalize`; split-then-merge sketches, whose raw buckets may have
//! wrapped at other points, must match after it.
//!
//! Shapes: every rung of `ccheck-service`'s tuner `LADDER` under every
//! hasher (its top rung, 16×1024, needs three Tab64 words and six CRC
//! words), every `table5_configs()` entry, the service's 4×16 Tab64 m9
//! and the paper's 4×8 CRC m5, a non-power-of-two bucket count, a word
//! serving seven rows (a group of four, then three), and the
//! power-of-two counts just outside the kernel's monomorphised range.

use ccheck::config::{table5_configs, SumCheckConfig};
use ccheck::sketch::{Sketch, Tee};
use ccheck::{SumChecker, XorCheckConfig, XorChecker};
use ccheck_hashing::{BucketMap, HasherKind, PartitionedHash};
use ccheck_service::sched::LADDER;

const KINDS: [HasherKind; 3] = [HasherKind::Tab64, HasherKind::Tab32, HasherKind::Crc32c];
const SEED: u64 = 0x5EED_F00D;
/// Lengths of the `update_iter` calls a stream is cut into, and of whole
/// streams: around the 256-pair block.
const BLOCK_LENS: [usize; 4] = [1, 255, 256, 257];

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` pairs whose keys repeat (narrow, with every seventh key full
/// range, so blocks of both tabulation widths occur) and whose values
/// span all 64 bits, so buckets overflow.
fn pairs(len: usize) -> Vec<(u64, u64)> {
    (0..len as u64)
        .map(|i| {
            let r = splitmix64(i ^ 0xD6E8_FEB8_6659_FD93);
            let key = if i % 7 == 3 { r } else { r % 1013 };
            (key, splitmix64(r))
        })
        .collect()
}

/// [`pairs`] with small signed values, negative about half the time.
fn signed_pairs(len: usize) -> Vec<(u64, i64)> {
    pairs(len)
        .into_iter()
        .map(|(k, v)| (k, (v % 2001) as i64 - 1000))
        .collect()
}

/// Every shape the sum and xor checkers run with, as sum configurations.
fn shapes() -> Vec<SumCheckConfig> {
    let mut shapes = Vec::new();
    for &(its, buckets, log2_rhat) in LADDER {
        for kind in KINDS {
            shapes.push(SumCheckConfig::new(
                its as usize,
                buckets as usize,
                log2_rhat,
                kind,
            ));
        }
    }
    shapes.extend(table5_configs());
    shapes.extend([
        SumCheckConfig::new(4, 16, 9, HasherKind::Tab64),
        SumCheckConfig::new(4, 8, 5, HasherKind::Crc32c),
        SumCheckConfig::new(3, 37, 8, HasherKind::Tab64),
        SumCheckConfig::new(7, 16, 9, HasherKind::Tab64),
        SumCheckConfig::new(5, 2, 3, HasherKind::Crc32c),
        SumCheckConfig::new(2, 1 << 17, 20, HasherKind::Tab64),
    ]);
    shapes
}

/// The partition a checker of `cfg` hashes with, rebuilt from its
/// documented construction.
fn partition(cfg: &SumCheckConfig) -> (PartitionedHash, BucketMap) {
    let map = BucketMap::new(cfg.buckets, cfg.hasher.output_bits());
    let hash = PartitionedHash::new(cfg.hasher, SEED, cfg.iterations, map.bits());
    (hash, map)
}

/// The raw sum table of `items`, element by element: `add(value, r)` is
/// what a value adds in ℤ/rℤ.
fn reference_sum<V: Copy>(
    cfg: &SumCheckConfig,
    moduli: &[u64],
    items: &[(u64, V)],
    add: impl Fn(V, u64) -> u64,
) -> Vec<u64> {
    let (hash, map) = partition(cfg);
    let d = cfg.buckets;
    let mut table = vec![0u64; cfg.iterations * d];
    for &(key, value) in items {
        for (i, &r) in moduli.iter().enumerate() {
            let wrap = ((1u128 << 64) % u128::from(r)) as u64;
            let slot = &mut table[i * d + map.map(hash.hash(i, key))];
            let (sum, wrapped) = slot.overflowing_add(add(value, r));
            *slot = match (wrapped, sum.overflowing_add(wrap)) {
                (false, _) => sum,
                (true, (folded, false)) => folded,
                (true, (folded, true)) => folded + wrap,
            };
        }
    }
    table
}

/// The exact finalized sum table of `items`, in u128.
fn exact_sum(cfg: &SumCheckConfig, moduli: &[u64], items: &[(u64, u64)]) -> Vec<u64> {
    let (hash, map) = partition(cfg);
    let d = cfg.buckets;
    let mut table = vec![0u128; cfg.iterations * d];
    for &(key, value) in items {
        for (i, &r) in moduli.iter().enumerate() {
            let slot = &mut table[i * d + map.map(hash.hash(i, key))];
            *slot = (*slot + u128::from(value)) % u128::from(r);
        }
    }
    table.into_iter().map(|x| x as u64).collect()
}

fn reference_xor(cfg: &SumCheckConfig, items: &[(u64, u64)]) -> Vec<u64> {
    let (hash, map) = partition(cfg);
    let d = cfg.buckets;
    let mut table = vec![0u64; cfg.iterations * d];
    for &(key, value) in items {
        for i in 0..cfg.iterations {
            table[i * d + map.map(hash.hash(i, key))] ^= value;
        }
    }
    table
}

fn signed_residue(value: i64, r: u64) -> u64 {
    if value >= 0 {
        value as u64
    } else {
        (r - value.unsigned_abs() % r) % r
    }
}

/// Every unsigned sum path, raw: item by item, one `update_iter`, calls
/// of each block length, `condense`, and a `Tee`.
#[test]
fn sum_folds_match_the_element_wise_definition() {
    for cfg in shapes() {
        let checker = SumChecker::new(cfg, SEED);
        let moduli = checker.moduli();
        let mut streams: Vec<Vec<(u64, u64)>> = BLOCK_LENS.iter().map(|&n| pairs(n)).collect();
        streams.push(pairs(1000));
        for items in &streams {
            let expected = reference_sum(&cfg, moduli, items, |v, _| v);
            let n = items.len();

            let mut by_item = checker.sketch();
            for &pair in items {
                by_item.update(pair);
            }
            assert_eq!(by_item.table(), expected, "{cfg} n={n}: update");

            for len in BLOCK_LENS.into_iter().chain([usize::MAX]) {
                let mut fused = checker.sketch();
                for call in items.chunks(len.min(n)) {
                    fused.update_iter(call.iter().copied());
                }
                assert_eq!(fused.table(), expected, "{cfg} n={n}: update_iter by {len}");
            }

            let mut condensed = checker.new_table();
            checker.condense(items, &mut condensed);
            assert_eq!(condensed, expected, "{cfg} n={n}: condense");

            let mut teed = checker.sketch();
            let tee = Tee::new(items.iter().copied(), |block: &[(u64, u64)]| {
                teed.update_iter(block.iter().copied())
            });
            assert_eq!(tee.count(), n);
            assert_eq!(teed.table(), expected, "{cfg} n={n}: tee");

            checker.finalize(&mut condensed);
            assert_eq!(
                condensed,
                exact_sum(&cfg, moduli, items),
                "{cfg} n={n}: exact"
            );
        }
    }
}

/// The signed forms, raw: `update_signed` item by item, one
/// `update_signed_iter`, calls of each block length, `condense_signed`.
#[test]
fn signed_sum_folds_match_the_element_wise_definition() {
    for cfg in shapes() {
        let checker = SumChecker::new(cfg, SEED);
        for n in BLOCK_LENS.into_iter().chain([1000]) {
            let items = signed_pairs(n);
            let expected = reference_sum(&cfg, checker.moduli(), &items, signed_residue);

            let mut by_item = checker.sketch();
            for &pair in &items {
                by_item.update_signed(pair);
            }
            assert_eq!(by_item.table(), expected, "{cfg} n={n}: update_signed");

            for len in BLOCK_LENS {
                let mut fused = checker.sketch();
                for call in items.chunks(len) {
                    fused.update_signed_iter(call.iter().copied());
                }
                assert_eq!(fused.table(), expected, "{cfg} n={n}: by {len}");
            }

            let mut condensed = checker.new_table();
            checker.condense_signed(&items, &mut condensed);
            assert_eq!(condensed, expected, "{cfg} n={n}: condense_signed");
        }
    }
}

/// Split-then-merge at every block boundary and next to it: the merged
/// digest equals the one-sketch digest.
#[test]
fn split_sum_sketches_merge_to_the_same_digest() {
    let items = pairs(1000);
    for cfg in shapes() {
        let checker = SumChecker::new(cfg, SEED);
        let mut whole = checker.sketch();
        whole.update_iter(items.iter().copied());
        let whole = whole.finalize();
        for split in [0, 1, 255, 256, 257, 999, 1000] {
            let (left, right) = items.split_at(split);
            let mut merged = checker.sketch();
            merged.update_iter(left.iter().copied());
            let mut other = checker.sketch();
            other.update_iter(right.iter().copied());
            merged.merge(other);
            assert_eq!(merged.finalize(), whole, "{cfg} split={split}");
        }
    }
}

/// The xor sketch on the same shapes: every path equals the element-wise
/// table (xor's digest is its raw table).
#[test]
fn xor_folds_match_the_element_wise_definition() {
    for cfg in shapes() {
        let xcfg = XorCheckConfig::new(cfg.iterations, cfg.buckets, cfg.hasher);
        let checker = XorChecker::new(xcfg, SEED);
        for n in BLOCK_LENS.into_iter().chain([1000]) {
            let items = pairs(n);
            let expected = reference_xor(&cfg, &items);

            let mut by_item = checker.sketch();
            for &pair in &items {
                by_item.update(pair);
            }
            assert_eq!(by_item.finalize(), expected, "{cfg} n={n}: update");

            for len in BLOCK_LENS {
                let mut fused = checker.sketch();
                for call in items.chunks(len) {
                    fused.update_iter(call.iter().copied());
                }
                assert_eq!(fused.finalize(), expected, "{cfg} n={n}: by {len}");
            }

            let mut condensed = vec![0; cfg.iterations * cfg.buckets];
            checker.condense(&items, &mut condensed);
            assert_eq!(condensed, expected, "{cfg} n={n}: condense");

            let (left, right) = items.split_at(n / 2);
            let mut merged = checker.sketch();
            merged.update_iter(left.iter().copied());
            let mut other = checker.sketch();
            other.update_iter(right.iter().copied());
            merged.merge(other);
            assert_eq!(merged.finalize(), expected, "{cfg} n={n}: merge");
        }
    }
}
