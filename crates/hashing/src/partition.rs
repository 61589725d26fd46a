//! Bit-parallel multi-instance hashing (§7.1 of the paper).
//!
//! "Multiple instances of this algorithm can be executed concurrently by
//! using a hash function that computes c·⌈log d⌉ bits. Its value can then
//! be interpreted as c concatenated hash values for separate instances."
//!
//! [`PartitionedHash`] implements exactly that, *generically over any
//! partition* of the hash output: given `c` instances needing `b` bits
//! each, it evaluates `⌈c·b / W⌉` underlying hash words (W = 32 or 64
//! depending on the hasher) and slices them into bit groups. Groups never
//! straddle word boundaries, so each word serves `⌊W/b⌋` instances — with
//! 64 hash bits and 4-bit groups one evaluation serves 16 instances, which
//! is why "evaluating a single hash function suffices in all practically
//! relevant configurations".
//!
//! # The slice lemma
//!
//! *Disjoint bit-slices of one simple-tabulation word are independent
//! simple-tabulation functions.* A tabulation hash is the XOR of one
//! table entry per key byte, and every entry is an independent uniform
//! word (Pătraşcu & Thorup). Bits `[a, b)` of the hash are therefore the
//! XOR of bits `[a, b)` of the entries: a simple-tabulation function
//! whose tables are those bits alone, and slices over disjoint bit ranges
//! read disjoint, independent table bits. So every per-instance bound a
//! checker proves for one fully random-table hash function (bucket
//! collisions of the sum checker, Lemma 4's `1/H` for hash sums) holds for
//! each slice, and the product over instances holds across the slices of
//! one word exactly as across separately seeded words. CRC-32C is linear,
//! not table-random: it carries no such guarantee, sliced or not.
//!
//! # Block entry point
//!
//! [`PartitionedHash::hash_block`] hashes a block of keys word by word
//! with [`Hasher::hash_batch`] and hands each word's hashes to the
//! caller together with the instances the word serves; the caller reads
//! instance `first + k` as [`PartitionedHash::slot`]` (word, k)`. The
//! checkers' block folds consume it word by word, and [`BucketMap`]
//! turns a slot into a bucket index.

use std::ops::Range;

use crate::traits::{Hasher, HasherKind};

/// How a `bits`-wide slot value becomes one of `d` bucket indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketMap {
    /// `d` is a power of two: mask the low bits — zero bias.
    Pow2 {
        /// `d − 1`.
        mask: u64,
    },
    /// General `d`: fast-range map `(v · d) >> bits` over a wider group;
    /// bias ≤ d/2^bits (kept ≤ 2^−12 where the hash is wide enough).
    FastRange {
        /// Bucket count.
        d: u64,
        /// Slot width the map expects.
        bits: u32,
    },
}

impl BucketMap {
    /// The map onto `buckets` buckets for slots of a `width`-bit hash.
    ///
    /// # Panics
    /// Panics if `buckets` is 0.
    pub fn new(buckets: usize, width: u32) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let d = buckets as u64;
        if d.is_power_of_two() {
            BucketMap::Pow2 { mask: d - 1 }
        } else {
            // ⌈log₂ d⌉, widened so the fast-range bias stays ≤ 2^−12.
            let needed_bits = 64 - (d - 1).leading_zeros();
            let bits = (needed_bits + 12).min(width);
            BucketMap::FastRange { d, bits }
        }
    }

    /// The slot width ([`PartitionedHash`] group bits) this map reads.
    pub fn bits(&self) -> u32 {
        match *self {
            BucketMap::Pow2 { mask } => (64 - mask.leading_zeros()).max(1),
            BucketMap::FastRange { bits, .. } => bits,
        }
    }

    /// The bucket of slot value `v` (`v < 2^bits`).
    #[inline]
    pub fn map(&self, v: u64) -> usize {
        match *self {
            BucketMap::Pow2 { mask } => (v & mask) as usize,
            BucketMap::FastRange { d, bits } => ((v * d) >> bits) as usize,
        }
    }
}

/// One hash evaluation feeding `instances` independent `bits`-wide values.
#[derive(Clone)]
pub struct PartitionedHash {
    /// One seeded hasher per required word.
    words: Vec<Hasher>,
    /// Number of logical instances.
    instances: usize,
    /// Bits per instance (group width).
    bits: u32,
    /// Instances served per hash word.
    per_word: usize,
    /// Mask with `bits` low bits set.
    mask: u64,
}

impl PartitionedHash {
    /// Plan a partition of `instances` groups of `bits` bits over hashers
    /// of kind `kind`, seeding words from `seed`.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or exceeds the hasher's output width, or if
    /// `instances` is 0.
    pub fn new(kind: HasherKind, seed: u64, instances: usize, bits: u32) -> Self {
        Self::with_word_seeds(kind, instances, bits, |w| {
            seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1))
        })
    }

    /// [`PartitionedHash::new`] with word `w` seeded `word_seed(w)`, for
    /// callers whose seeding scheme predates the partition.
    ///
    /// # Panics
    /// As [`PartitionedHash::new`].
    pub fn with_word_seeds(
        kind: HasherKind,
        instances: usize,
        bits: u32,
        word_seed: impl Fn(usize) -> u64,
    ) -> Self {
        assert!(instances > 0, "need at least one instance");
        let width = kind.output_bits();
        assert!(
            bits > 0 && bits <= width,
            "group width {bits} must be in 1..={width}"
        );
        let per_word = (width / bits) as usize;
        let num_words = instances.div_ceil(per_word);
        let words = (0..num_words)
            .map(|w| Hasher::new(kind, word_seed(w)))
            .collect();
        Self {
            words,
            instances,
            bits,
            per_word,
            mask: if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            },
        }
    }

    /// Number of logical instances.
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// Bits per instance.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of underlying hash evaluations per key.
    pub fn words_per_key(&self) -> usize {
        self.words.len()
    }

    /// The hash value of instance `i` for key `x`, in `0 .. 2^bits`.
    #[inline]
    pub fn hash(&self, i: usize, x: u64) -> u64 {
        debug_assert!(i < self.instances);
        self.slot(self.words[i / self.per_word].hash(x), i % self.per_word)
    }

    /// Slot `k` of a hash word: the value of the word's `k`-th instance,
    /// in `0 .. 2^bits`.
    #[inline(always)]
    pub fn slot(&self, word: u64, k: usize) -> u64 {
        debug_assert!(k < self.per_word);
        (word >> (k as u32 * self.bits)) & self.mask
    }

    /// The block entry point: for each underlying hash word in turn,
    /// hash every key of `keys` into `words[..keys.len()]` with
    /// [`Hasher::hash_batch`] and call `consume(instances, words)`, where
    /// `instances` is the range of instances that word serves (instance
    /// `instances.start + k` is [`PartitionedHash::slot`]` (word, k)`).
    /// Each hasher's tables stay hot for the whole block, and each key is
    /// hashed once per word, not once per instance.
    ///
    /// # Panics
    /// Panics if `words` is shorter than `keys`.
    pub fn hash_block(
        &self,
        keys: &[u64],
        words: &mut [u64],
        mut consume: impl FnMut(Range<usize>, &[u64]),
    ) {
        let words = &mut words[..keys.len()];
        for (w, hasher) in self.words.iter().enumerate() {
            hasher.hash_batch(keys, words);
            let first = w * self.per_word;
            consume(first..self.instances.min(first + self.per_word), words);
        }
    }

    /// Evaluate all instances for one key into `out` (length must equal
    /// `instances`), evaluating each underlying word exactly once.
    #[inline]
    pub fn hash_all(&self, x: u64, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.instances);
        for (hasher, group) in self.words.iter().zip(out.chunks_mut(self.per_word)) {
            let word = hasher.hash(x);
            for (k, value) in group.iter_mut().enumerate() {
                *value = self.slot(word, k);
            }
        }
    }
}

impl std::fmt::Debug for PartitionedHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedHash")
            .field("instances", &self.instances)
            .field("bits", &self.bits)
            .field("words", &self.words.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::tests::blocks_of_every_width;
    use crate::traits::HasherKind;

    #[test]
    fn word_count_minimal() {
        // 8 instances × 4 bits = 32 bits → one CRC word suffices.
        let p = PartitionedHash::new(HasherKind::Crc32c, 1, 8, 4);
        assert_eq!(p.words_per_key(), 1);
        // 16 instances × 4 bits = 64 → one Tab64 word.
        let p = PartitionedHash::new(HasherKind::Tab64, 1, 16, 4);
        assert_eq!(p.words_per_key(), 1);
        // 16 instances × 4 bits over 32-bit CRC → two words.
        let p = PartitionedHash::new(HasherKind::Crc32c, 1, 16, 4);
        assert_eq!(p.words_per_key(), 2);
        // 5 instances × 9 bits over 32-bit words: 3 groups/word → 2 words.
        let p = PartitionedHash::new(HasherKind::Crc32c, 1, 5, 9);
        assert_eq!(p.words_per_key(), 2);
    }

    #[test]
    fn values_within_range() {
        let p = PartitionedHash::new(HasherKind::Tab64, 7, 10, 5);
        for x in 0..1000u64 {
            for i in 0..10 {
                assert!(p.hash(i, x) < 32);
            }
        }
    }

    #[test]
    fn hash_all_matches_hash() {
        for kind in [HasherKind::Crc32c, HasherKind::Tab32, HasherKind::Tab64] {
            let p = PartitionedHash::new(kind, 99, 7, 6);
            let mut out = vec![0u64; 7];
            for x in [0u64, 1, 42, u64::MAX] {
                p.hash_all(x, &mut out);
                for (i, &v) in out.iter().enumerate() {
                    assert_eq!(v, p.hash(i, x), "kind={kind:?} x={x} i={i}");
                }
            }
        }
    }

    #[test]
    fn hash_block_matches_hash() {
        // One word, several words, a partly used last word, full width;
        // blocks of every key width.
        let blocks = blocks_of_every_width();
        for (kind, instances, bits) in [
            (HasherKind::Tab64, 16, 4),
            (HasherKind::Tab64, 16, 10),
            (HasherKind::Crc32c, 16, 4),
            (HasherKind::Tab32, 5, 9),
            (HasherKind::Tab64, 3, 64),
        ] {
            let p = PartitionedHash::new(kind, 17, instances, bits);
            for keys in &blocks {
                assert_block_matches_hash(&p, keys);
            }
        }
    }

    fn assert_block_matches_hash(p: &PartitionedHash, keys: &[u64]) {
        let mut words = vec![0u64; keys.len() + 5];
        let mut seen = vec![0usize; p.instances()];
        p.hash_block(keys, &mut words, |range, words| {
            assert_eq!(words.len(), keys.len());
            for (k, i) in range.enumerate() {
                seen[i] += 1;
                for (&key, &word) in keys.iter().zip(words) {
                    assert_eq!(p.slot(word, k), p.hash(i, key), "{p:?} i={i} key={key:#x}");
                }
            }
        });
        assert!(seen.iter().all(|&n| n == 1), "{p:?}: {seen:?}");
    }

    #[test]
    fn bucket_map_widths() {
        assert_eq!(BucketMap::new(16, 64), BucketMap::Pow2 { mask: 15 });
        assert_eq!(BucketMap::new(16, 64).bits(), 4);
        assert_eq!(BucketMap::new(2, 32).bits(), 1);
        assert_eq!(BucketMap::new(1, 32).bits(), 1);
        // d = 37: ⌈log₂ 37⌉ = 6, widened by 12, capped at the hash width.
        assert_eq!(
            BucketMap::new(37, 64),
            BucketMap::FastRange { d: 37, bits: 18 }
        );
        assert_eq!(BucketMap::new(1 << 20 | 1, 32).bits(), 32);
        for d in [3usize, 37, 1000] {
            let map = BucketMap::new(d, 64);
            let top = (1u64 << map.bits()) - 1;
            assert_eq!(map.map(0), 0);
            assert_eq!(map.map(top), d - 1, "d={d}");
        }
    }

    #[test]
    fn instances_are_decorrelated() {
        // Two instances from the same word must not be equal for most keys.
        let p = PartitionedHash::new(HasherKind::Tab64, 3, 2, 8);
        let equal = (0..10_000u64)
            .filter(|&x| p.hash(0, x) == p.hash(1, x))
            .count();
        // Expected ~10000/256 ≈ 39; be generous.
        assert!(
            equal < 120,
            "instances too correlated: {equal} equal values"
        );
    }

    #[test]
    fn uniformity_per_instance() {
        let p = PartitionedHash::new(HasherKind::Crc32c, 5, 4, 4);
        for i in 0..4 {
            let mut counts = [0u32; 16];
            for x in 0..16_000u64 {
                counts[p.hash(i, x) as usize] += 1;
            }
            for (bucket, &c) in counts.iter().enumerate() {
                assert!(
                    (800..=1200).contains(&c),
                    "instance {i} bucket {bucket}: {c}"
                );
            }
        }
    }

    #[test]
    fn full_width_group() {
        let p = PartitionedHash::new(HasherKind::Tab64, 11, 3, 64);
        assert_eq!(p.words_per_key(), 3);
        // Distinct instances use distinct words → different values.
        assert_ne!(p.hash(0, 123), p.hash(1, 123));
    }

    #[test]
    #[should_panic(expected = "group width")]
    fn oversized_group_rejected() {
        let _ = PartitionedHash::new(HasherKind::Crc32c, 1, 4, 33);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_rejected() {
        let _ = PartitionedHash::new(HasherKind::Crc32c, 1, 0, 4);
    }
}
