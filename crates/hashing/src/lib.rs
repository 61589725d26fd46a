//! # ccheck-hashing — hash functions and finite-field arithmetic for
//! probabilistic result checking
//!
//! Faithful Rust implementations of the primitives used in
//! "Communication Efficient Checking of Big Data Operations"
//! (Hübschle-Schneider & Sanders, 2018), §7:
//!
//! * [`crc32c`](mod@crc32c) — CRC-32C (Castagnoli) on the SSE 4.2 `crc32`
//!   instruction the paper evaluates, with a slice-by-8 software
//!   fallback computing the same function,
//! * [`tabulation`] — simple tabulation hashing (Zobrist), 32- and 64-bit
//!   variants with 256-entry tables,
//! * [`mt19937`] — the MT19937 / MT19937-64 Mersenne Twister used for
//!   pseudo-random numbers throughout,
//! * [`gf64`] — carry-less multiplication in GF(2⁶⁴) for the Galois-field
//!   variant of the polynomial permutation check (§5),
//! * [`field`] — arithmetic in 𝔽_{2⁶¹−1} plus Miller–Rabin primality and
//!   prime search for Lipton's polynomial identity check (Lemma 5),
//! * [`partition`] — the bit-parallel trick of §7.1: evaluate **one** hash
//!   function and slice its output into many small independent hash values,
//! * [`sha256`] — FIPS 180-4 SHA-256 for the service's receipt-ledger
//!   content hashes and per-tenant hash chains (audit-grade, unlike the
//!   checker-grade hashes above),
//! * [`traits`] — the seeded [`traits::Hasher`] enum unifying the
//!   above for the checkers.

pub mod crc32c;
pub mod field;
pub mod gf64;
pub mod mt19937;
pub mod partition;
pub mod sha256;
pub mod tabulation;
pub mod traits;

pub use crc32c::{crc32c, Crc32cHash};
pub use mt19937::{Mt19937, Mt19937_64};
pub use partition::{BucketMap, PartitionedHash};
pub use sha256::{sha256_hex, Sha256};
pub use tabulation::{Tab32, Tab64};
pub use traits::{Hasher, HasherKind};
