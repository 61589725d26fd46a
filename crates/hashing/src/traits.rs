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
    /// kind dispatched once for the whole block.
    ///
    /// # Panics
    /// Panics if the two slices differ in length.
    pub fn hash_batch(&self, keys: &[u64], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        match self {
            Hasher::Crc32c(h) => fill(keys, out, |x| u64::from(h.hash(x))),
            Hasher::Tab32(h) => fill(keys, out, |x| u64::from(h.hash(x))),
            Hasher::Tab64(h) => fill(keys, out, |x| h.hash(x)),
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

/// `out[i] = hash(keys[i])` for one concrete hash function.
#[inline(always)]
fn fill(keys: &[u64], out: &mut [u64], hash: impl Fn(u64) -> u64) {
    for (slot, &key) in out.iter_mut().zip(keys) {
        *slot = hash(key);
    }
}

impl std::fmt::Debug for Hasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hasher::{}", self.kind().label())
    }
}

#[cfg(test)]
mod tests {
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
            keys in prop::collection::vec(any::<u64>(), 0..600),
        ) {
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
