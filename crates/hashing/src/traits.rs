//! Unified, seeded hash-function interface used by the checkers.
//!
//! The checkers are generic over the hash function *kind* so experiments
//! can compare CRC-32C against tabulation hashing exactly as the paper
//! does. Enum dispatch (rather than trait objects) keeps the per-element
//! hot path free of virtual calls; the batch entry points
//! ([`Hasher::hash_batch`], [`Hasher::hash_run`]) dispatch once per
//! block instead of once per key.

use crate::crc32c::Crc32cHash;
use crate::tabulation::{Tab32, Tab64};

/// Which hash function family to instantiate. Names follow the paper's
/// abbreviations ("CRC", "Tab", "Tab64", §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HasherKind {
    /// CRC-32C (Castagnoli), 32-bit output.
    Crc32c,
    /// Simple tabulation, 32-bit output.
    Tab32,
    /// Simple tabulation, 64-bit output.
    Tab64,
}

impl HasherKind {
    /// Output width in bits.
    pub fn output_bits(self) -> u32 {
        match self {
            HasherKind::Crc32c | HasherKind::Tab32 => 32,
            HasherKind::Tab64 => 64,
        }
    }

    /// The paper's abbreviation for this hash function.
    pub fn label(self) -> &'static str {
        match self {
            HasherKind::Crc32c => "CRC",
            HasherKind::Tab32 => "Tab",
            HasherKind::Tab64 => "Tab64",
        }
    }
}

impl std::str::FromStr for HasherKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "CRC" | "crc" | "crc32c" => Ok(HasherKind::Crc32c),
            "Tab" | "tab" | "tab32" => Ok(HasherKind::Tab32),
            "Tab64" | "tab64" => Ok(HasherKind::Tab64),
            other => Err(format!("unknown hasher kind: {other}")),
        }
    }
}

/// A seeded hash function over `u64` keys.
#[derive(Clone)]
pub enum Hasher {
    /// CRC-32C with seed-derived initial state.
    Crc32c(Crc32cHash),
    /// 32-bit tabulation hashing.
    Tab32(Tab32),
    /// 64-bit tabulation hashing.
    Tab64(Tab64),
}

impl Hasher {
    /// Instantiate a hasher of the given kind from a 64-bit seed.
    pub fn new(kind: HasherKind, seed: u64) -> Self {
        match kind {
            HasherKind::Crc32c => Hasher::Crc32c(Crc32cHash::new(seed)),
            HasherKind::Tab32 => Hasher::Tab32(Tab32::new(seed)),
            HasherKind::Tab64 => Hasher::Tab64(Tab64::new(seed)),
        }
    }

    /// The kind of this hasher.
    pub fn kind(&self) -> HasherKind {
        match self {
            Hasher::Crc32c(_) => HasherKind::Crc32c,
            Hasher::Tab32(_) => HasherKind::Tab32,
            Hasher::Tab64(_) => HasherKind::Tab64,
        }
    }

    /// Output width in bits (32 for CRC/Tab32, 64 for Tab64). Outputs of
    /// 32-bit hashers are zero-extended.
    pub fn output_bits(&self) -> u32 {
        self.kind().output_bits()
    }

    /// Hash a 64-bit key.
    #[inline(always)]
    pub fn hash(&self, x: u64) -> u64 {
        match self {
            Hasher::Crc32c(h) => u64::from(h.hash(x)),
            Hasher::Tab32(h) => u64::from(h.hash(x)),
            Hasher::Tab64(h) => h.hash(x),
        }
    }

    /// Hash every key of a block: `out[i] = hash(keys[i])`, with the
    /// kind dispatched once for the whole block. Tabulation pays one
    /// lookup per significant byte of the block's widest key instead of
    /// eight (see [`crate::tabulation`]); CRC picks the `crc32`
    /// instruction or its software fallback once for the block.
    ///
    /// # Panics
    /// Panics if the two slices differ in length.
    pub fn hash_batch(&self, keys: &[u64], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        match self {
            Hasher::Crc32c(h) => h.hash_batch(keys, out),
            Hasher::Tab32(h) => h.hash_batch(keys, out),
            Hasher::Tab64(h) => h.hash_batch(keys, out),
        }
    }

    /// Hash a run of consecutive keys: `out[i] = hash(start + i)`
    /// (wrapping). Tabulation pays one table lookup per key instead of
    /// eight (see [`crate::tabulation`]); CRC has no such structure to
    /// exploit and hashes each key as usual.
    pub fn hash_run(&self, start: u64, out: &mut [u64]) {
        match self {
            Hasher::Crc32c(h) => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = u64::from(h.hash(start.wrapping_add(i as u64)));
                }
            }
            Hasher::Tab32(h) => h.hash_run(start, out),
            Hasher::Tab64(h) => h.hash_run(start, out),
        }
    }
}

impl std::fmt::Debug for Hasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hasher::{}", self.kind().label())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    const KINDS: [HasherKind; 3] = [HasherKind::Crc32c, HasherKind::Tab32, HasherKind::Tab64];

    fn assert_run_matches_hash(h: &Hasher, start: u64, len: usize) {
        let mut run = vec![0u64; len];
        h.hash_run(start, &mut run);
        for (i, &got) in run.iter().enumerate() {
            let key = start.wrapping_add(i as u64);
            assert_eq!(got, h.hash(key), "{h:?} start={start:#x} key={key:#x}");
        }
    }

    fn assert_batch_matches_hash(h: &Hasher, keys: &[u64]) {
        let mut out = vec![0u64; keys.len()];
        h.hash_batch(keys, &mut out);
        for (&key, &got) in keys.iter().zip(&out) {
            assert_eq!(got, h.hash(key), "{h:?} key={key:#x}");
        }
    }

    /// The keys of at most `width` significant bytes.
    fn width_mask(width: u32) -> u64 {
        u64::MAX.checked_shr(64 - 8 * width).unwrap_or(0)
    }

    /// Blocks of `len` keys around the block size, for every key width
    /// 0..=8 (width 0 is the all-zero block): each narrow block, then
    /// the same block with one key a byte wider, or full range, placed
    /// first, in the middle and last.
    pub(crate) fn blocks_of_every_width() -> Vec<Vec<u64>> {
        let mut blocks = Vec::new();
        for len in [0usize, 1, 255, 256, 257] {
            for width in 0..=8 {
                let narrow: Vec<u64> = (0..len as u64)
                    .map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) & width_mask(width))
                    .collect();
                for at in [0, len / 2, len.saturating_sub(1)].into_iter().take(len) {
                    for wide in [width_mask((width + 1).min(8)), u64::MAX - at as u64] {
                        let mut mixed = narrow.clone();
                        mixed[at] = wide;
                        blocks.push(mixed);
                    }
                }
                blocks.push(narrow);
            }
        }
        blocks
    }

    #[test]
    fn hash_batch_matches_hash_at_every_key_width() {
        for kind in KINDS {
            let h = Hasher::new(kind, 0xBEEF);
            for keys in blocks_of_every_width() {
                assert_batch_matches_hash(&h, &keys);
            }
        }
    }

    #[test]
    fn hash_run_matches_hash_across_every_byte_carry() {
        // `…FF → …00` at each of the 8 byte positions (the last one is
        // the u64 wrap), approached from several distances so the carry
        // lands at the start, middle and end of a 256-key stretch.
        for kind in KINDS {
            let h = Hasher::new(kind, 0xFEED);
            for byte in 0..8 {
                let all_ones_below = u64::MAX >> (8 * (7 - byte));
                let carry_key = 0x0123_4567_89AB_CDEF | all_ones_below;
                for before in [0u64, 1, 5, 255, 256, 300] {
                    assert_run_matches_hash(&h, carry_key.wrapping_sub(before), 600);
                }
            }
            assert_run_matches_hash(&h, 7, 0);
        }
    }

    proptest! {
        #[test]
        fn prop_hash_run_matches_hash(seed: u64, start: u64, len in 0usize..700) {
            for kind in KINDS {
                assert_run_matches_hash(&Hasher::new(kind, seed), start, len);
            }
        }

        #[test]
        fn prop_hash_batch_matches_hash(
            seed: u64,
            width in 0u32..=8,
            keys in prop::collection::vec(any::<u64>(), 0..600),
            wide: Option<(usize, u64)>,
        ) {
            // Keys cut to `width` bytes, so every kernel width is drawn;
            // optionally one key left at full range.
            let mut keys: Vec<u64> = keys.iter().map(|&k| k & width_mask(width)).collect();
            if let Some((at, key)) = wide.filter(|_| !keys.is_empty()) {
                let at = at % keys.len();
                keys[at] = key;
            }
            for kind in KINDS {
                let h = Hasher::new(kind, seed);
                let mut out = vec![0u64; keys.len()];
                h.hash_batch(&keys, &mut out);
                for (&key, &got) in keys.iter().zip(&out) {
                    prop_assert_eq!(got, h.hash(key));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per key")]
    fn hash_batch_rejects_mismatched_lengths() {
        Hasher::new(HasherKind::Tab64, 1).hash_batch(&[1, 2], &mut [0]);
    }

    #[test]
    fn kinds_roundtrip_labels() {
        for kind in [HasherKind::Crc32c, HasherKind::Tab32, HasherKind::Tab64] {
            let parsed: HasherKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<HasherKind>().is_err());
    }

    #[test]
    fn output_bits_respected() {
        let crc = Hasher::new(HasherKind::Crc32c, 1);
        let tab32 = Hasher::new(HasherKind::Tab32, 1);
        let tab64 = Hasher::new(HasherKind::Tab64, 1);
        for x in 0..1000u64 {
            assert!(crc.hash(x) <= u64::from(u32::MAX));
            assert!(tab32.hash(x) <= u64::from(u32::MAX));
        }
        // Tab64 should produce values above 2^32 fairly quickly.
        assert!((0..100u64).any(|x| tab64.hash(x) > u64::from(u32::MAX)));
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        for kind in [HasherKind::Crc32c, HasherKind::Tab32, HasherKind::Tab64] {
            let a = Hasher::new(kind, 5);
            let b = Hasher::new(kind, 5);
            let c = Hasher::new(kind, 6);
            assert_eq!(a.hash(12345), b.hash(12345));
            let diff = (0..100u64).filter(|&x| a.hash(x) != c.hash(x)).count();
            assert!(diff > 90, "{kind:?}: seeds barely change outputs");
        }
    }

    #[test]
    fn debug_format_names_kind() {
        let h = Hasher::new(HasherKind::Tab64, 0);
        assert_eq!(format!("{h:?}"), "Hasher::Tab64");
    }
}
