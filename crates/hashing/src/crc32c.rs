//! CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//!
//! The paper hashes keys with the SSE 4.2 `crc32` instruction, and so does
//! [`Crc32cHash`] wherever the CPU has it: whether it does is detected
//! once, when the hash is built, and [`Crc32cHash::hash_batch`] picks the
//! path once per block rather than once per key. Everywhere else, and as
//! the test oracle for the instruction, a software slice-by-8 round
//! computes the *same mathematical function*, so all detection-accuracy
//! findings about CRC-32C (its strengths on bitflips, its weakness against
//! correlated low-bit changes) hold on either path — only throughput
//! differs. The byte-slice functions ([`crc32c_update`], [`crc32c`]) are
//! software only.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables, computed at compile time.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Update a running (already-inverted) CRC state with `data`.
///
/// The state convention matches the common zlib style: callers start from
/// `!initial`, feed bytes, and invert again at the end. [`crc32c`] wraps
/// this for the one-shot case.
#[inline]
pub fn crc32c_update(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // Fold 8 bytes at once (slice-by-8).
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ state;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(byte)) & 0xFF) as usize];
    }
    state
}

/// One-shot CRC-32C of a byte slice (standard init `0xFFFFFFFF`, final
/// inversion — matches the iSCSI/ext4 convention and the `_mm_crc32`
/// composition used in the paper's implementation).
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    !crc32c_update(!0, data)
}

/// A seeded CRC-32C hash function over `u64` keys.
///
/// CRC itself is unseeded; per-instance variation comes from the initial
/// state (derived from the seed), the same effect as prepending the seed
/// bytes to the input. For the checkers, one instance is created per run
/// and its output is bit-partitioned across iterations (§7.1).
#[derive(Debug, Clone, Copy)]
pub struct Crc32cHash {
    init: u32,
    /// The CPU has SSE 4.2's `crc32` instruction (detected in `new`).
    hardware: bool,
}

impl Crc32cHash {
    /// Create an instance whose initial state is derived from `seed`.
    pub fn new(seed: u64) -> Self {
        // Mix the 64-bit seed into a 32-bit init state (splitmix-style).
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self {
            init: (z ^ (z >> 31)) as u32,
            hardware: hw::detected(),
        }
    }

    /// Hash a 64-bit key to a 32-bit value: the `crc32` instruction where
    /// the CPU has it, else one slice-by-8 round in software.
    #[inline(always)]
    pub fn hash(&self, x: u64) -> u32 {
        if self.hardware {
            // SAFETY: `hardware` is set only where SSE 4.2 was detected.
            unsafe { hw::hash(self.init, x) }
        } else {
            self.portable(x)
        }
    }

    /// [`Crc32cHash::hash`] in software: one slice-by-8 round over the
    /// key's eight little-endian bytes. The fallback where the CPU lacks
    /// the instruction, and the oracle the instruction is tested against.
    #[inline(always)]
    fn portable(&self, x: u64) -> u32 {
        let state = !self.init;
        let lo = (x as u32) ^ state;
        let hi = (x >> 32) as u32;
        !(TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize])
    }

    /// `out[i] = hash(keys[i])`, zero-extended, with the instruction set
    /// chosen once for the whole block.
    ///
    /// # Panics
    /// Panics if the two slices differ in length.
    pub fn hash_batch(&self, keys: &[u64], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "one output slot per key");
        if self.hardware {
            // SAFETY: `hardware` is set only where SSE 4.2 was detected.
            unsafe { hw::hash_batch(self.init, keys, out) }
        } else {
            for (slot, &key) in out.iter_mut().zip(keys) {
                *slot = u64::from(self.portable(key));
            }
        }
    }
}

/// The SSE 4.2 path. `crc32 r64, r/m64` folds eight little-endian bytes
/// into a reflected CRC-32C state with neither inversion, so a key hashes
/// to `!crc32(!init, key)`, exactly as the slice-by-8 round computes it.
#[cfg(target_arch = "x86_64")]
mod hw {
    use std::arch::x86_64::_mm_crc32_u64;

    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("sse4.2")
    }

    /// # Safety
    /// The CPU must support SSE 4.2.
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn hash(init: u32, x: u64) -> u32 {
        !(_mm_crc32_u64(u64::from(!init), x) as u32)
    }

    /// # Safety
    /// The CPU must support SSE 4.2.
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn hash_batch(init: u32, keys: &[u64], out: &mut [u64]) {
        let state = u64::from(!init);
        for (slot, &key) in out.iter_mut().zip(keys) {
            *slot = u64::from(!(_mm_crc32_u64(state, key) as u32));
        }
    }
}

/// No `crc32` instruction off x86-64: every key takes the portable path.
#[cfg(not(target_arch = "x86_64"))]
mod hw {
    pub(super) fn detected() -> bool {
        false
    }

    /// # Safety
    /// Never called: [`detected`] is false here.
    pub(super) unsafe fn hash(_: u32, _: u64) -> u32 {
        unreachable!("no hardware CRC-32C on this target")
    }

    /// # Safety
    /// Never called: [`detected`] is false here.
    pub(super) unsafe fn hash_batch(_: u32, _: &[u64], _: &mut [u64]) {
        unreachable!("no hardware CRC-32C on this target")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Reference vectors from RFC 3720 (iSCSI) / the Intel white paper.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    /// `h` with the instruction set forced: `hardware == false` runs the
    /// portable path even on a CPU with SSE 4.2.
    fn forced(h: Crc32cHash, hardware: bool) -> Crc32cHash {
        Crc32cHash { hardware, ..h }
    }

    /// `h.hash(key)` on the `crc32` instruction, or `None` where the CPU
    /// lacks it.
    fn on_hardware(h: Crc32cHash, key: u64) -> Option<u32> {
        // SAFETY: `hw::hash` runs only where SSE 4.2 was detected.
        hw::detected().then(|| unsafe { hw::hash(h.init, key) })
    }

    /// The CRC-32C of `data` (a multiple of 8 bytes) through the key
    /// hash: one key per 8 bytes, each key's `init` the inverted state so
    /// far — the same chaining a byte-slice CRC does.
    fn crc_by_keys(data: &[u8], hash: impl Fn(Crc32cHash, u64) -> u32) -> u32 {
        data.chunks_exact(8).fold(0, |crc, chunk| {
            let key = u64::from_le_bytes(chunk.try_into().unwrap());
            hash(
                Crc32cHash {
                    init: crc,
                    hardware: hw::detected(),
                },
                key,
            )
        })
    }

    #[test]
    fn key_hash_reproduces_rfc3720_vectors_on_both_paths() {
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        for (data, expected) in [
            (&[0u8; 32][..], 0x8A91_36AA),
            (&[0xFFu8; 32][..], 0x62A8_AB43),
            (&ascending[..], 0x46DD_794E),
            (&descending[..], 0x113F_DB5C),
        ] {
            assert_eq!(crc32c(data), expected);
            assert_eq!(crc_by_keys(data, |h, k| h.portable(k)), expected);
            if hw::detected() {
                let hardware = crc_by_keys(data, |h, k| on_hardware(h, k).unwrap());
                assert_eq!(hardware, expected);
            }
        }
    }

    #[test]
    fn hash_dispatches_to_the_detected_path() {
        let h = Crc32cHash::new(7);
        assert_eq!(h.hardware, hw::detected());
        for key in [0, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(h.hash(key), h.portable(key));
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per key")]
    fn hash_batch_rejects_mismatched_lengths() {
        Crc32cHash::new(1).hash_batch(&[1, 2], &mut [0]);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let state = crc32c_update(!0, &data[..split]);
            let state = crc32c_update(state, &data[split..]);
            assert_eq!(!state, crc32c(&data), "split={split}");
        }
    }

    #[test]
    fn seeded_instances_differ() {
        let h1 = Crc32cHash::new(1);
        let h2 = Crc32cHash::new(2);
        let same = (0..1000u64).filter(|&x| h1.hash(x) == h2.hash(x)).count();
        assert!(
            same < 5,
            "seeds should decorrelate instances ({same} collisions)"
        );
    }

    #[test]
    fn seed_zero_is_valid() {
        let h = Crc32cHash::new(0);
        // Must not degenerate to identity or constant.
        let distinct: std::collections::HashSet<u32> = (0..100u64).map(|x| h.hash(x)).collect();
        assert!(distinct.len() > 95);
    }

    #[test]
    fn crc_linearity_over_xor() {
        // CRC is affine: crc(a) ^ crc(b) ^ crc(0) == crc(a ^ b) for
        // same-length inputs. This is the structural weakness the paper
        // observes with the IncDec manipulator; assert it holds so that
        // our software CRC reproduces the hardware behaviour.
        let a = 0x0123_4567_89AB_CDEFu64.to_le_bytes();
        let b = 0xFEDC_BA98_7654_3210u64.to_le_bytes();
        let x: Vec<u8> = a.iter().zip(b).map(|(&p, q)| p ^ q).collect();
        assert_eq!(crc32c(&a) ^ crc32c(&b) ^ crc32c(&[0u8; 8]), crc32c(&x));
    }

    proptest! {
        #[test]
        fn prop_incremental_split(data: Vec<u8>, split_frac in 0.0f64..1.0) {
            let split = ((data.len() as f64) * split_frac) as usize;
            let state = crc32c_update(!0, &data[..split]);
            let state = crc32c_update(state, &data[split..]);
            prop_assert_eq!(!state, crc32c(&data));
        }

        #[test]
        fn prop_single_bitflip_always_detected(x: u64, bit in 0u32..64) {
            // CRC detects every single-bit error by construction.
            let h = Crc32cHash::new(42);
            prop_assert_ne!(h.hash(x), h.hash(x ^ (1u64 << bit)));
        }

        #[test]
        fn prop_hardware_matches_portable(seed: u64, key: u64) {
            let h = Crc32cHash::new(seed);
            if let Some(hardware) = on_hardware(h, key) {
                prop_assert_eq!(hardware, h.portable(key));
            }
        }

        #[test]
        fn prop_hash_batch_matches_portable_on_both_paths(
            seed: u64,
            keys in prop::collection::vec(any::<u64>(), 0..300),
        ) {
            let h = Crc32cHash::new(seed);
            for hardware in [false, hw::detected()] {
                let mut out = vec![0u64; keys.len()];
                forced(h, hardware).hash_batch(&keys, &mut out);
                for (&key, &got) in keys.iter().zip(&out) {
                    prop_assert_eq!(got, u64::from(h.portable(key)));
                }
            }
        }

        #[test]
        fn prop_deterministic(x: u64, seed: u64) {
            let h = Crc32cHash::new(seed);
            prop_assert_eq!(h.hash(x), h.hash(x));
        }
    }
}
