//! Simple tabulation hashing (Wegman–Carter / Zobrist; analysed by
//! Pătraşcu & Thorup 2012).
//!
//! The key is split into bytes; each byte indexes its own table of random
//! words which are XORed together. Simple tabulation is 3-independent and
//! behaves like a fully random function for a large class of algorithms —
//! the paper finds it "performs quite uniformly well across the board"
//! where CRC-32C shows structure (§7.1).
//!
//! * [`Tab32`] — 64-bit keys → 32-bit hashes (8 tables × 256 × u32); the
//!   paper's "Tab" configuration,
//! * [`Tab64`] — 64-bit keys → 64-bit hashes (8 tables × 256 × u64); the
//!   paper's "Tab64" configuration.
//!
//! Both offer two block forms, bit-identical to `hash` per key:
//!
//! * `hash_batch` pays one lookup per **significant byte** of the
//!   block's widest key. A key of width `w` (bytes `w..8` zero) indexes
//!   entry 0 of tables `w..8`, whatever its low bytes are, so
//!   `hash(x) = T₀[x₀] ⊕ … ⊕ T_{w−1}[x_{w−1}] ⊕ Z[w]` with `Z[w] =
//!   T_w[0] ⊕ … ⊕ T₇[0]`. The nine words `Z[0..=8]` are built with the
//!   tables; one OR over the block gives `w` (cut short at the first
//!   key with a top byte), and each key then costs `w` lookups instead
//!   of eight (keys below 2²⁴ cost three). The identity holds for every
//!   key of the block, so the output is `hash(x)` bit for bit, however
//!   the widths inside the block mix.
//! * `hash_run` hashes **consecutive** keys (the zip checker's global
//!   positions): neighbours differ only in their low byte until it
//!   carries, so the XOR of the upper seven tables is computed once per
//!   256-aligned stretch and each key costs one lookup in table 0
//!   instead of eight.

use rand::rand_core::Rng as RngCore;

use crate::mt19937::Mt19937_64;

/// Random tables plus `zeros[w]`, the XOR of entry 0 of tables `w..8`:
/// the constant part of the hash of any key of at most `w` bytes.
fn tables_from<W, R: RngCore>(
    rng: &mut R,
    mut next: impl FnMut(&mut R) -> W,
) -> (Box<[[W; 256]; 8]>, [W; 9])
where
    W: Copy + Default + std::ops::BitXor<Output = W>,
{
    let mut tables = Box::new([[W::default(); 256]; 8]);
    for table in tables.iter_mut() {
        for entry in table.iter_mut() {
            *entry = next(rng);
        }
    }
    let mut zeros = [W::default(); 9];
    for w in (0..8).rev() {
        zeros[w] = zeros[w + 1] ^ tables[w][0];
    }
    (tables, zeros)
}

/// The significant bytes of the widest key of `keys`, 0 ..= 8: the OR of
/// the keys, cut short once it reaches the top byte, so a block of
/// full-range keys pays for one short stretch instead of a pass.
fn width(keys: &[u64]) -> usize {
    let mut widest = 0u64;
    for stretch in keys.chunks(16) {
        widest |= stretch.iter().fold(0, |acc, &key| acc | key);
        if widest >> 56 != 0 {
            return 8;
        }
    }
    (u64::BITS - widest.leading_zeros()).div_ceil(8) as usize
}

/// `out[i] = hash(keys[i])` with one lookup per significant byte of the
/// block's widest key (see the module docs). The width is resolved once
/// per block, so each width's loop is unrolled to its fixed byte count.
fn hash_batch<W>(tables: &[[W; 256]; 8], zeros: &[W; 9], keys: &[u64], out: &mut [u64])
where
    W: Copy + std::ops::BitXor<Output = W> + Into<u64>,
{
    let width = width(keys);
    let zero = zeros[width];
    match width {
        0 => hash_narrow::<W, 0>(tables, zero, keys, out),
        1 => hash_narrow::<W, 1>(tables, zero, keys, out),
        2 => hash_narrow::<W, 2>(tables, zero, keys, out),
        3 => hash_narrow::<W, 3>(tables, zero, keys, out),
        4 => hash_narrow::<W, 4>(tables, zero, keys, out),
        5 => hash_narrow::<W, 5>(tables, zero, keys, out),
        6 => hash_narrow::<W, 6>(tables, zero, keys, out),
        7 => hash_narrow::<W, 7>(tables, zero, keys, out),
        _ => hash_narrow::<W, 8>(tables, zero, keys, out),
    }
}

/// [`hash_batch`] for keys of at most `BYTES` significant bytes.
#[inline(always)]
fn hash_narrow<W, const BYTES: usize>(
    tables: &[[W; 256]; 8],
    zero: W,
    keys: &[u64],
    out: &mut [u64],
) where
    W: Copy + std::ops::BitXor<Output = W> + Into<u64>,
{
    for (slot, &key) in out.iter_mut().zip(keys) {
        let b = key.to_le_bytes();
        let mut hash = zero;
        for (table, &byte) in tables.iter().zip(&b).take(BYTES) {
            hash = hash ^ table[byte as usize];
        }
        *slot = hash.into();
    }
}

/// Hash the consecutive keys `start, start + 1, …` (wrapping) into `out`
/// — the table-0 trick shared by both widths. Bit-identical to hashing
/// each key on its own.
fn hash_run<W>(tables: &[[W; 256]; 8], start: u64, mut out: &mut [u64])
where
    W: Copy + std::ops::BitXor<Output = W> + Into<u64>,
{
    let mut key = start;
    while !out.is_empty() {
        let low = (key & 0xFF) as usize;
        let (stretch, rest) = out.split_at_mut(out.len().min(256 - low));
        let b = key.to_le_bytes();
        let upper = tables[1][b[1] as usize]
            ^ tables[2][b[2] as usize]
            ^ tables[3][b[3] as usize]
            ^ tables[4][b[4] as usize]
            ^ tables[5][b[5] as usize]
            ^ tables[6][b[6] as usize]
            ^ tables[7][b[7] as usize];
        for (slot, &entry) in stretch.iter_mut().zip(&tables[0][low..]) {
            *slot = (entry ^ upper).into();
        }
        key = key.wrapping_add(stretch.len() as u64);
        out = rest;
    }
}

/// Tabulation hash with 32-bit output over 64-bit keys.
#[derive(Clone)]
pub struct Tab32 {
    tables: Box<[[u32; 256]; 8]>,
    /// `zeros[w]`: XOR of entry 0 of tables `w..8`.
    zeros: [u32; 9],
}

impl Tab32 {
    /// Fill the tables from an MT19937-64 stream seeded with `seed`
    /// (mirrors the paper's use of the Mersenne Twister for table setup).
    pub fn new(seed: u64) -> Self {
        Self::from_rng(&mut Mt19937_64::new(seed))
    }

    /// Fill the tables from an arbitrary RNG.
    pub fn from_rng<R: RngCore>(rng: &mut R) -> Self {
        let (tables, zeros) = tables_from(rng, R::next_u32);
        Self { tables, zeros }
    }

    /// Hash a 64-bit key to 32 bits.
    #[inline]
    pub fn hash(&self, x: u64) -> u32 {
        let b = x.to_le_bytes();
        self.tables[0][b[0] as usize]
            ^ self.tables[1][b[1] as usize]
            ^ self.tables[2][b[2] as usize]
            ^ self.tables[3][b[3] as usize]
            ^ self.tables[4][b[4] as usize]
            ^ self.tables[5][b[5] as usize]
            ^ self.tables[6][b[6] as usize]
            ^ self.tables[7][b[7] as usize]
    }

    /// `out[i] = hash(keys[i])`, zero-extended: one lookup per
    /// significant byte of the block's widest key.
    pub fn hash_batch(&self, keys: &[u64], out: &mut [u64]) {
        hash_batch(&self.tables, &self.zeros, keys, out);
    }

    /// Hash the consecutive keys `start, start + 1, …` (wrapping) into
    /// `out`, zero-extended: one table lookup per key.
    pub fn hash_run(&self, start: u64, out: &mut [u64]) {
        hash_run(&self.tables, start, out);
    }
}

/// Tabulation hash with 64-bit output over 64-bit keys.
#[derive(Clone)]
pub struct Tab64 {
    tables: Box<[[u64; 256]; 8]>,
    /// `zeros[w]`: XOR of entry 0 of tables `w..8`.
    zeros: [u64; 9],
}

impl Tab64 {
    /// Fill the tables from an MT19937-64 stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self::from_rng(&mut Mt19937_64::new(seed))
    }

    /// Fill the tables from an arbitrary RNG.
    pub fn from_rng<R: RngCore>(rng: &mut R) -> Self {
        let (tables, zeros) = tables_from(rng, R::next_u64);
        Self { tables, zeros }
    }

    /// Hash a 64-bit key to 64 bits.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let b = x.to_le_bytes();
        self.tables[0][b[0] as usize]
            ^ self.tables[1][b[1] as usize]
            ^ self.tables[2][b[2] as usize]
            ^ self.tables[3][b[3] as usize]
            ^ self.tables[4][b[4] as usize]
            ^ self.tables[5][b[5] as usize]
            ^ self.tables[6][b[6] as usize]
            ^ self.tables[7][b[7] as usize]
    }

    /// `out[i] = hash(keys[i])`: one lookup per significant byte of the
    /// block's widest key.
    pub fn hash_batch(&self, keys: &[u64], out: &mut [u64]) {
        hash_batch(&self.tables, &self.zeros, keys, out);
    }

    /// Hash the consecutive keys `start, start + 1, …` (wrapping) into
    /// `out`: one table lookup per key.
    pub fn hash_run(&self, start: u64, out: &mut [u64]) {
        hash_run(&self.tables, start, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_per_seed() {
        let a = Tab64::new(11);
        let b = Tab64::new(11);
        for x in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(a.hash(x), b.hash(x));
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = Tab64::new(1);
        let b = Tab64::new(2);
        let same = (0..1000u64).filter(|&x| a.hash(x) == b.hash(x)).count();
        assert_eq!(same, 0, "64-bit collisions across seeds are ~impossible");
    }

    #[test]
    fn output_distribution_rough_uniformity() {
        // Bucket 100k consecutive keys into 16 buckets by top nibble; each
        // bucket should get ~6250 ± a generous margin.
        let h = Tab32::new(3);
        let mut counts = [0u32; 16];
        for x in 0..100_000u64 {
            counts[(h.hash(x) >> 28) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((5600..=6900).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn tab32_collisions_rare() {
        let h = Tab32::new(5);
        let distinct: HashSet<u32> = (0..10_000u64).map(|x| h.hash(x)).collect();
        // Birthday bound: expect ~10^8/2^33 ≈ 0.01 collisions.
        assert!(distinct.len() >= 9_990);
    }

    #[test]
    fn xor_structure_three_keys() {
        // Tabulation is linear over byte-aligned XOR *only* when keys
        // differ in a single byte position per table; verify the defining
        // identity h(x) ^ h(y) depends only on differing bytes.
        let h = Tab64::new(9);
        let x = 0x0000_0000_0000_00AAu64;
        let y = 0x0000_0000_0000_00BBu64;
        // Same high bytes → difference determined by table 0 alone.
        let d1 = h.hash(x) ^ h.hash(y);
        let d2 = h.hash(x | 0xFF00) ^ h.hash(y | 0xFF00);
        assert_eq!(d1, d2);
    }

    proptest! {
        #[test]
        fn prop_tab64_deterministic(seed: u64, x: u64) {
            let h = Tab64::new(seed);
            prop_assert_eq!(h.hash(x), h.hash(x));
        }

        #[test]
        fn prop_tab32_differs_on_single_byte_change(seed: u64, x: u64, pos in 0usize..8, delta in 1u8..=255) {
            let h = Tab32::new(seed);
            let mut bytes = x.to_le_bytes();
            bytes[pos] ^= delta;
            let y = u64::from_le_bytes(bytes);
            // A single-byte change flips the hash unless the two table
            // entries collide (prob 2^-32) — treat equality as failure.
            prop_assert_ne!(h.hash(x), h.hash(y));
        }
    }
}
