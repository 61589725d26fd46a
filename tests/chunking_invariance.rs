//! Chunking invariance of the sketch-backed checkers: for **any**
//! random partition of the input into chunks, folding the chunks
//! through fresh sketches and merging produces (a) the same digest and
//! (b) the same accept/reject verdict as the one-shot slice-based
//! `check_local` — and the distributed check of chunk-folded sketches
//! reproduces the slice path's verdict *and its exact communication
//! volume* on both transports ([`ccheck_net::testing::run_both`] asserts
//! local ≡ TCP byte-for-byte on every run below).

use ccheck::config::SumCheckConfig;
use ccheck::lanes::verdict;
use ccheck::permutation::PermCheckConfig;
use ccheck::sketch::{digest_chunked, Sketch};
use ccheck::{PermChecker, SumChecker, XorCheckConfig, XorChecker, ZipCheckConfig, ZipChecker};
use ccheck_hashing::HasherKind;
use ccheck_net::testing::run_both_with_stats;
use proptest::prelude::*;

/// Split `data` into chunks whose lengths cycle through `sizes` — an
/// arbitrary (proptest-chosen) partition of the input.
fn partition<'a, T>(data: &'a [T], sizes: &'a [usize]) -> Vec<&'a [T]> {
    assert!(sizes.iter().all(|&s| s > 0));
    let mut chunks = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < data.len() {
        let len = sizes[i % sizes.len()].min(data.len() - start);
        chunks.push(&data[start..start + len]);
        start += len;
        i += 1;
    }
    chunks
}

/// Fold a partition through per-chunk sketches and merge them.
fn fold_partition<S, T: Copy>(make: impl Fn() -> S, chunks: &[&[T]]) -> S
where
    S: Sketch<Item = T>,
{
    let mut acc = make();
    for chunk in chunks {
        let mut sk = make();
        sk.update_iter(chunk.iter().copied());
        acc.merge(sk);
    }
    acc
}

/// Round-robin shard of `data` for PE `rank` of `p` (arbitrary split of
/// a distributed multiset).
fn shard<T: Copy>(data: &[T], rank: usize, p: usize) -> Vec<T> {
    data.iter().copied().skip(rank).step_by(p).collect()
}

proptest! {
    // run_both spawns real TCP loopback worlds per case; keep the case
    // count in the same budget as the other cross-crate properties.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SumChecker: digest and verdict are chunking-invariant, and the
    /// streaming distributed path moves exactly the bytes of the slice
    /// path on both transports.
    #[test]
    fn sum_checker_chunking_invariant(
        pairs in prop::collection::vec((0u64..500, 0u64..1_000_000), 1..200),
        sizes in prop::collection::vec(1usize..40, 1..6),
        seed: u64,
        corrupt: bool,
    ) {
        let checker = SumChecker::new(
            SumCheckConfig::new(4, 8, 5, HasherKind::Tab64), seed);
        // Digest invariance for the raw partition.
        let chunks = partition(&pairs, &sizes);
        let merged = fold_partition(|| checker.sketch(), &chunks).finalize();
        let mut one_shot = checker.sketch();
        one_shot.update_iter(pairs.iter().copied());
        prop_assert_eq!(&merged, &one_shot.finalize());

        // Verdict invariance vs the slice-based check.
        let mut asserted: Vec<(u64, u64)> = {
            let mut m = std::collections::HashMap::new();
            for &(k, v) in &pairs {
                *m.entry(k).or_insert(0u64) = m.get(&k).copied().unwrap_or(0).wrapping_add(v);
            }
            let mut out: Vec<(u64, u64)> = m.into_iter().collect();
            out.sort_unstable();
            out
        };
        if corrupt {
            asserted[0].1 = asserted[0].1.wrapping_add(1);
        }
        let slice_verdict = checker.check_local(&pairs, &asserted);
        for &chunk in &[1usize, sizes[0], usize::MAX] {
            let digest = |side: &[(u64, u64)]| {
                digest_chunked(|| checker.sketch(), side.iter().copied(), chunk)
            };
            prop_assert_eq!(
                checker.lanes(digest(&pairs), digest(&asserted)).accepts(),
                slice_verdict
            );
        }

        // Distributed: chunk-folded sketches vs slices, both transports,
        // same bytes.
        let cfg = SumCheckConfig::new(4, 8, 5, HasherKind::Tab64);
        let run_variant = |streaming: bool| {
            let pairs = pairs.clone();
            let asserted = asserted.clone();
            let sizes = sizes.clone();
            run_both_with_stats(2, move |comm| {
                let input = shard(&pairs, comm.rank(), 2);
                let out = if comm.rank() == 0 { asserted.clone() } else { Vec::new() };
                let checker = SumChecker::new(cfg, seed);
                if streaming {
                    let fold = |side: &[(u64, u64)]| {
                        fold_partition(|| checker.sketch(), &partition(side, &sizes))
                    };
                    checker.check_distributed_sketches(comm, fold(&input), fold(&out))
                } else {
                    checker.check_distributed(comm, &input, &out)
                }
            })
        };
        let (slice_verdicts, slice_stats) = run_variant(false);
        let (stream_verdicts, stream_stats) = run_variant(true);
        prop_assert_eq!(&slice_verdicts, &stream_verdicts);
        prop_assert!(slice_verdicts.iter().all(|&v| v == slice_verdict));
        prop_assert_eq!(slice_stats.per_pe(), stream_stats.per_pe());
    }

    /// XorChecker: same contract.
    #[test]
    fn xor_checker_chunking_invariant(
        pairs in prop::collection::vec((0u64..500, 0u64..u64::MAX), 1..200),
        sizes in prop::collection::vec(1usize..40, 1..6),
        seed: u64,
        corrupt: bool,
    ) {
        let checker = XorChecker::new(XorCheckConfig::new(4, 16, HasherKind::Tab64), seed);
        let chunks = partition(&pairs, &sizes);
        let merged = fold_partition(|| checker.sketch(), &chunks).finalize();
        let mut one_shot = checker.sketch();
        one_shot.update_iter(pairs.iter().copied());
        prop_assert_eq!(&merged, &one_shot.finalize());

        let mut asserted: Vec<(u64, u64)> = {
            let mut m = std::collections::HashMap::new();
            for &(k, v) in &pairs {
                *m.entry(k).or_insert(0u64) ^= v;
            }
            let mut out: Vec<(u64, u64)> = m.into_iter().collect();
            out.sort_unstable();
            out
        };
        if corrupt {
            asserted[0].1 ^= 0x100;
        }
        let one_shot = |side: &[(u64, u64)]| {
            digest_chunked(|| checker.sketch(), side.iter().copied(), usize::MAX)
        };
        let slice_verdict = checker.lanes(one_shot(&pairs), one_shot(&asserted)).accepts();
        prop_assert_eq!(slice_verdict, !corrupt);
        let merged = |side: &[(u64, u64)]| {
            fold_partition(|| checker.sketch(), &partition(side, &sizes)).finalize()
        };
        prop_assert_eq!(
            checker.lanes(merged(&pairs), merged(&asserted)).accepts(),
            slice_verdict
        );

        let run_variant = |streaming: bool| {
            let pairs = pairs.clone();
            let asserted = asserted.clone();
            let sizes = sizes.clone();
            run_both_with_stats(2, move |comm| {
                let input = shard(&pairs, comm.rank(), 2);
                let out = if comm.rank() == 0 { asserted.clone() } else { Vec::new() };
                let checker = XorChecker::new(
                    XorCheckConfig::new(4, 16, HasherKind::Tab64), seed);
                let digest = |side: &[(u64, u64)]| if streaming {
                    fold_partition(|| checker.sketch(), &partition(side, &sizes)).finalize()
                } else {
                    digest_chunked(|| checker.sketch(), side.iter().copied(), usize::MAX)
                };
                verdict(comm, checker.lanes(digest(&input), digest(&out)))
            })
        };
        let (slice_verdicts, slice_stats) = run_variant(false);
        let (stream_verdicts, stream_stats) = run_variant(true);
        prop_assert_eq!(&slice_verdicts, &stream_verdicts);
        prop_assert!(slice_verdicts.iter().all(|&v| v == slice_verdict));
        prop_assert_eq!(slice_stats.per_pe(), stream_stats.per_pe());
    }

    /// PermChecker (all three fingerprint methods): same contract.
    #[test]
    fn perm_checker_chunking_invariant(
        data in prop::collection::vec(0u64..1_000_000, 1..200),
        sizes in prop::collection::vec(1usize..40, 1..6),
        seed: u64,
        corrupt: bool,
    ) {
        use ccheck::permutation::PermMethod;
        let mut output: Vec<u64> = data.iter().rev().copied().collect();
        if corrupt {
            output[0] ^= 0x40;
        }
        for method in [
            PermMethod::HashSum { hasher: HasherKind::Tab64, log_h: 32 },
            PermMethod::PolyField,
            PermMethod::PolyGf64,
        ] {
            let cfg = PermCheckConfig { method, iterations: 2 };
            let checker = PermChecker::new(cfg, seed);
            let chunks = partition(&data, &sizes);
            let merged = fold_partition(|| checker.sketch(), &chunks).finalize();
            let mut one_shot = checker.sketch();
            one_shot.update_iter(data.iter().copied());
            prop_assert_eq!(&merged, &one_shot.finalize());

            let slice_verdict = checker.check_local(&data, &output);
            let digest = |side: &[u64]| {
                digest_chunked(|| checker.sketch(), side.iter().copied(), sizes[0])
            };
            prop_assert_eq!(
                checker.lanes(digest(&data), digest(&output)).accepts(),
                slice_verdict
            );

            let run_variant = |streaming: bool| {
                let data = data.clone();
                let output = output.clone();
                let sizes = sizes.clone();
                run_both_with_stats(2, move |comm| {
                    let input = shard(&data, comm.rank(), 2);
                    let out = shard(&output, comm.rank(), 2);
                    let checker = PermChecker::new(cfg, seed);
                    if streaming {
                        let fold = |side: &[u64]| {
                            fold_partition(|| checker.sketch(), &partition(side, &sizes))
                        };
                        checker.check_distributed_sketches(comm, fold(&input), fold(&out))
                    } else {
                        checker.check(comm, &input, &out)
                    }
                })
            };
            let (slice_verdicts, slice_stats) = run_variant(false);
            let (stream_verdicts, stream_stats) = run_variant(true);
            prop_assert_eq!(&slice_verdicts, &stream_verdicts);
            prop_assert_eq!(slice_stats.per_pe(), stream_stats.per_pe());
        }
    }

    /// ZipChecker: adjacent-chunk folds merge to the one-shot digest,
    /// and the streaming check reproduces the slice verdict and volume.
    #[test]
    fn zip_checker_chunking_invariant(
        s1 in prop::collection::vec(0u64..1_000_000, 1..150),
        sizes in prop::collection::vec(1usize..40, 1..6),
        seed: u64,
        corrupt: bool,
    ) {
        let s2: Vec<u64> = s1.iter().map(|&x| x ^ 0xABCD).collect();
        let mut zipped: Vec<(u64, u64)> =
            s1.iter().copied().zip(s2.iter().copied()).collect();
        if corrupt {
            zipped[0].1 ^= 1;
        }
        let checker = ZipChecker::new(ZipCheckConfig::default(), seed);

        // Digest invariance over adjacent chunks.
        let mut one_shot = checker.sketch(0, 0);
        one_shot.update_iter(s1.iter().copied());
        let mut acc = checker.sketch(0, 0);
        for chunk in partition(&s1, &sizes) {
            let mut sk = checker.sketch(0, acc.next_index());
            sk.update_iter(chunk.iter().copied());
            acc.merge(sk);
        }
        prop_assert_eq!(&acc.finalize(), &one_shot.finalize());

        // Distributed: contiguous halves (zip is position-sensitive).
        let run_variant = |streaming: bool| {
            let s1 = s1.clone();
            let s2 = s2.clone();
            let zipped = zipped.clone();
            run_both_with_stats(2, move |comm| {
                let mid1 = s1.len() / 2;
                let mid2 = s2.len() / 3; // deliberately different split
                let midz = 2 * zipped.len() / 3;
                let (a, b, z) = if comm.rank() == 0 {
                    (&s1[..mid1], &s2[..mid2], &zipped[..midz])
                } else {
                    (&s1[mid1..], &s2[mid2..], &zipped[midz..])
                };
                let checker = ZipChecker::new(ZipCheckConfig::default(), seed);
                if streaming {
                    checker.check_stream(
                        comm,
                        (a.len() as u64, a.iter().copied()),
                        (b.len() as u64, b.iter().copied()),
                        (z.len() as u64, z.iter().copied()),
                    )
                } else {
                    checker.check(comm, a, b, z)
                }
            })
        };
        let (slice_verdicts, slice_stats) = run_variant(false);
        let (stream_verdicts, stream_stats) = run_variant(true);
        prop_assert_eq!(&slice_verdicts, &stream_verdicts);
        prop_assert!(slice_verdicts.iter().all(|&v| v != corrupt));
        prop_assert_eq!(slice_stats.per_pe(), stream_stats.per_pe());
    }
}

/// `sketch` after one [`Sketch::update`] per item — the definition of
/// every digest, and the oracle the block folds are held to.
fn fold_elementwise<S: Sketch>(mut sketch: S, items: &[S::Item]) -> S
where
    S::Item: Copy,
{
    for &item in items {
        sketch.update(item);
    }
    sketch
}

/// `sketch` after the same items through [`Sketch::update_iter`], cut at
/// `cut` with one plain `update` in between: a block fold must hold
/// nothing back between calls and must compose with the oracle.
fn fold_blockwise<S: Sketch>(mut sketch: S, items: &[S::Item], cut: usize) -> S
where
    S::Item: Copy,
{
    let (head, tail) = items.split_at(cut.min(items.len()));
    sketch.update_iter(head.iter().copied());
    if let Some((&middle, rest)) = tail.split_first() {
        sketch.update(middle);
        sketch.update_iter(rest.iter().copied());
    }
    sketch
}

proptest! {
    // No communication here: only local folds, so more cases are cheap.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Block folds are invisible: for all four sketches, `update_iter`
    /// leaves the sketch exactly where per-item `update` does — digest,
    /// `count()` and `next_index()` — over lengths on both sides of the
    /// 256-item block, every `PermMethod`, all three hashers, and zip
    /// start offsets whose position run crosses a byte carry. The sum
    /// and xor folds run at one-word and multi-word partitions (the
    /// tuner's top rung 16×1024 Tab64 needs three words, 16×16 CRC two),
    /// with power-of-two and fast-range (d = 37) bucket maps, values next
    /// to `u64::MAX` (the lazy-overflow path) and the signed lane; the
    /// hash-sum permutation fold at slot widths that leave the last word
    /// partly used.
    #[test]
    fn update_iter_matches_elementwise_update(
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..700),
        cut in 0usize..700,
        seed: u64,
        carry_byte in 0usize..8,
        before in 0u64..600,
        high: u64,
    ) {
        use ccheck::permutation::PermMethod;
        let items: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let near_max: Vec<(u64, u64)> =
            pairs.iter().map(|&(k, v)| (k, u64::MAX - (v & 0xFFFF))).collect();
        let signed: Vec<(u64, i64)> = pairs.iter().map(|&(k, v)| (k, v as i64)).collect();

        for cfg in [
            SumCheckConfig::new(4, 8, 5, HasherKind::Tab64),
            SumCheckConfig::new(3, 37, 8, HasherKind::Tab64),
            SumCheckConfig::new(16, 1024, 24, HasherKind::Tab64),
            SumCheckConfig::new(16, 16, 15, HasherKind::Crc32c),
        ] {
            let sum = SumChecker::new(cfg, seed);
            for data in [&pairs, &near_max] {
                prop_assert!(
                    fold_blockwise(sum.sketch(), data, cut).finalize()
                        == fold_elementwise(sum.sketch(), data).finalize(),
                    "{}", cfg
                );
            }
            let (head, tail) = signed.split_at(cut.min(signed.len()));
            let mut blockwise = sum.sketch();
            blockwise.update_signed_iter(head.iter().copied());
            blockwise.update_signed_iter(tail.iter().copied());
            let mut elementwise = sum.sketch();
            for &pair in &signed {
                elementwise.update_signed(pair);
            }
            prop_assert!(blockwise.finalize() == elementwise.finalize(), "signed {}", cfg);
        }
        for (its, d) in [(4, 16), (16, 1024)] {
            let xor = XorChecker::new(XorCheckConfig::new(its, d, HasherKind::Tab64), seed);
            prop_assert_eq!(
                fold_blockwise(xor.sketch(), &pairs, cut).finalize(),
                fold_elementwise(xor.sketch(), &pairs).finalize()
            );
        }

        let hash_sums = [32, 21, 16, 1]
            .map(|log_h| PermMethod::HashSum { hasher: HasherKind::Tab64, log_h });
        let methods = hash_sums.into_iter().chain([
            PermMethod::HashSum { hasher: HasherKind::Tab32, log_h: 7 },
            PermMethod::HashSum { hasher: HasherKind::Crc32c, log_h: 16 },
            PermMethod::PolyField,
            PermMethod::PolyGf64,
        ]);
        for method in methods {
            for iterations in [1, 3, 5] {
                let perm = PermChecker::new(PermCheckConfig { method, iterations }, seed);
                let blockwise = fold_blockwise(perm.sketch(), &items, cut);
                prop_assert_eq!(blockwise.count(), items.len() as u64);
                prop_assert!(
                    blockwise.finalize() == fold_elementwise(perm.sketch(), &items).finalize(),
                    "{:?} iterations={}", method, iterations
                );
            }
        }

        // A start from which the run carries out of byte `carry_byte`
        // after `before` positions (`carry_byte == 7`: an arbitrary
        // start instead; the u64 wrap itself is an overflow of the
        // sketch's index cursor, tested at the hasher level only).
        let start = if carry_byte == 7 {
            high >> 1
        } else {
            ((high >> 1) | (u64::MAX >> (8 * (7 - carry_byte)))).saturating_sub(before)
        };
        for hasher in [HasherKind::Tab64, HasherKind::Tab32, HasherKind::Crc32c] {
            let zip = ZipChecker::new(ZipCheckConfig { hasher, iterations: 3 }, seed);
            for lane in 0..2 {
                let blockwise = fold_blockwise(zip.sketch(lane, start), &items, cut);
                let elementwise = fold_elementwise(zip.sketch(lane, start), &items);
                prop_assert_eq!(blockwise.count(), items.len() as u64);
                prop_assert_eq!(blockwise.next_index(), elementwise.next_index());
                prop_assert_eq!(blockwise.finalize(), elementwise.finalize());
            }
            prop_assert_eq!(
                fold_blockwise(zip.sketch_pairs(start), &pairs, cut).finalize(),
                fold_elementwise(zip.sketch_pairs(start), &pairs).finalize()
            );
        }
    }

    /// Adjacent zip chunks of any sizes — smaller than, equal to and
    /// larger than a block — each block-folded in a fresh sketch, merge
    /// to the one-shot digest.
    #[test]
    fn block_folded_adjacent_zip_chunks_merge_to_one_shot(
        items in prop::collection::vec(any::<u64>(), 1..1500),
        sizes in prop::collection::vec(1usize..600, 1..6),
        start in 0u64..0x1_0000_0000,
        seed: u64,
    ) {
        let checker = ZipChecker::new(ZipCheckConfig::default(), seed);
        let mut one_shot = checker.sketch(1, start);
        one_shot.update_iter(items.iter().copied());
        let mut acc = checker.sketch(1, start);
        for chunk in partition(&items, &sizes) {
            let mut sk = checker.sketch(1, acc.next_index());
            sk.update_iter(chunk.iter().copied());
            acc.merge(sk);
        }
        prop_assert_eq!(acc.finalize(), one_shot.finalize());
    }
}
