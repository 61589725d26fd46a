//! Permutation checking (§5 of the paper: Lemma 4, Lemma 5, Theorem 6).
//!
//! Three interchangeable methods verify that two distributed sequences
//! are permutations of each other:
//!
//! * [`PermMethod::HashSum`] — Wegman–Carter style: compare
//!   `Σ h(eᵢ)` with `Σ h(oᵢ)` (Lemma 4). We implement the fix for the
//!   paper's open TODO about duplicate elements: hash values are
//!   accumulated **exactly** (truncated to `H` bits, summed in 128-bit
//!   integers with no intermediate modulus), so the failure analysis
//!   `h(e)·(k−k′) = x` applies and the bound `1/H` holds for multisets,
//! * [`PermMethod::PolyField`] — Lipton's polynomial identity check
//!   (Lemma 5): compare `Π(z−eᵢ)` with `Π(z−oᵢ)` in 𝔽_{2⁶¹−1} at a
//!   random point `z`; needs no random hash function, failure ≤ n/(r−n),
//! * [`PermMethod::PolyGf64`] — the same check in GF(2⁶⁴) with carry-less
//!   multiplication (the SIMD-friendly variant §5 suggests).
//!
//! All methods run `iterations` independent instances and accept only if
//! every instance accepts and the global lengths are equal (a degenerate
//! mismatch no fingerprint is guaranteed to catch). The distributed
//! verdict costs one reduce and a one-byte broadcast whatever
//! `iterations` is ([`crate::lanes`]).
//!
//! Hash-sum iterations are `log_h`-bit slices of shared hash words, as
//! §7.1 does for the sum checker: one word of a `W`-bit hasher serves
//! `⌊W / log_h⌋` iterations ([`ccheck_hashing::PartitionedHash`]), so
//! Tab64 at `log_h = 32` hashes each element once per *two* iterations.
//! Word `w` is seeded as iteration `w` was when every iteration had a
//! hasher of its own, so wherever a word serves one iteration — 32-bit
//! hashers at `log_h = 32`, and every single-iteration check — the
//! fingerprints are unchanged. The block fold hashes a block once per
//! word and sums each iteration's slot of it.
//!
//! The verdict packs every lane at its combiner's width
//! ([`Op::bits`](crate::lanes::Op::bits)): a `PolyField` product in 61
//! bits, but a hash-sum difference in the full 128. Narrowing that lane
//! to `w` bits would reduce the sums mod 2ʷ, and two multisets whose
//! exact sums differ by a nonzero multiple of 2ʷ would then match: the
//! `1/H` bound holds only while no integer sum can wrap, that is while
//! `n·2^log_h < 2ʷ` for the *global* n. No PE knows that n before the
//! reduce it would size, so the lane stays at 128 bits.

use ccheck_hashing::field::Mersenne61;
use ccheck_hashing::gf64::gf_mul;
use ccheck_hashing::{HasherKind, Mt19937_64, PartitionedHash};
use ccheck_net::Comm;

use crate::lanes::{split, verdict, Lanes, Op};
use crate::sketch::{digest_chunked, for_each_block, Sketch, BLOCK};

/// Fingerprinting method for permutation checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PermMethod {
    /// Hash-sum comparison (Lemma 4) with `H = 2^log_h`.
    HashSum {
        /// Hash function family.
        hasher: HasherKind,
        /// Number of hash bits used (`log₂ H`); 1..=32.
        log_h: u32,
    },
    /// Polynomial identity in 𝔽_{2⁶¹−1} (Lemma 5). Elements must be
    /// `< 2⁶¹ − 1`.
    PolyField,
    /// Polynomial identity in GF(2⁶⁴) via carry-less multiplication.
    PolyGf64,
}

/// Configuration: method plus independent repetitions (Theorem 6 boosts
/// the success probability to `1 − δ` with `log 1/δ` instances).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermCheckConfig {
    /// Fingerprinting method.
    pub method: PermMethod,
    /// Independent repetitions; overall failure ≤ (per-instance)^iterations.
    pub iterations: usize,
}

impl PermCheckConfig {
    /// Hash-sum config matching the paper's Fig. 5 axis labels
    /// (`CRC⟨log H⟩` / `Tab⟨log H⟩`).
    pub fn hash_sum(hasher: HasherKind, log_h: u32) -> Self {
        assert!((1..=32).contains(&log_h), "log_h must be in 1..=32");
        Self {
            method: PermMethod::HashSum { hasher, log_h },
            iterations: 1,
        }
    }

    /// Upper bound on the failure probability of one instance, for `n`
    /// elements per side.
    pub fn single_instance_failure_bound(&self, n: u64) -> f64 {
        match self.method {
            PermMethod::HashSum { log_h, .. } => (0.5f64).powi(log_h as i32),
            // Lemma 5: ≤ n / r for a degree-n polynomial.
            PermMethod::PolyField => n as f64 / Mersenne61::P as f64,
            PermMethod::PolyGf64 => n as f64 / 2f64.powi(64),
        }
    }

    /// Overall failure bound after all iterations: the product of the
    /// per-instance bounds. For hash sums it assumes independent
    /// iterations, which bit-slices of one tabulation word are (the slice
    /// lemma in [`ccheck_hashing::partition`]); CRC-32C carries no such
    /// guarantee, sliced or not.
    pub fn failure_bound(&self, n: u64) -> f64 {
        self.single_instance_failure_bound(n)
            .powi(self.iterations as i32)
    }
}

/// A seeded permutation checker. Owns the prepared fingerprint of every
/// iteration (the partitioned hash of the hash sums, or the evaluation
/// points of the polynomial methods); sketches borrow it.
///
/// Hash-sum iterations are bit-slices of shared hash words; with
/// tabulation hashing they are independent (the slice lemma in
/// [`ccheck_hashing::partition`]), so Lemma 4 holds per iteration and
/// [`PermCheckConfig::failure_bound`] over all of them.
#[derive(Debug, Clone)]
pub struct PermChecker {
    cfg: PermCheckConfig,
    fingerprint: Fingerprint,
}

impl PermChecker {
    /// Create a checker; in SPMD use, all PEs must pass the same
    /// `(config, seed)`.
    pub fn new(cfg: PermCheckConfig, seed: u64) -> Self {
        assert!(cfg.iterations >= 1);
        // The seed of instance `k`: iteration `k`'s evaluation point, or
        // hash word `k` (identical on every PE: it derives from the
        // shared seed).
        let instance_seed =
            |k: usize| seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7065_726D;
        let eval_points =
            || (0..cfg.iterations).map(|iter| Mt19937_64::new(instance_seed(iter)).next());
        let fingerprint = match cfg.method {
            PermMethod::HashSum { hasher, log_h } => {
                assert!((1..=32).contains(&log_h), "log_h must be in 1..=32");
                Fingerprint::HashSum(PartitionedHash::with_word_seeds(
                    hasher,
                    cfg.iterations,
                    log_h,
                    instance_seed,
                ))
            }
            PermMethod::PolyField => {
                Fingerprint::PolyField(eval_points().map(Mersenne61::from_u64).collect())
            }
            // Nonzero points.
            PermMethod::PolyGf64 => Fingerprint::PolyGf64(eval_points().map(|z| z | 1).collect()),
        };
        Self { cfg, fingerprint }
    }

    /// The configuration.
    pub fn config(&self) -> &PermCheckConfig {
        &self.cfg
    }

    /// A fresh, empty streaming sketch for this checker (see
    /// [`crate::sketch::Sketch`]): all iterations' fingerprints advance
    /// in one pass over the data.
    pub fn sketch(&self) -> PermSketch<'_> {
        PermSketch {
            checker: self,
            accs: vec![self.fingerprint.identity(); self.cfg.iterations],
            count: 0,
        }
    }

    /// Distributed permutation check: is the multiset `output` a
    /// permutation of the multiset `input`? Both sides are distributed
    /// arbitrarily; every PE returns the same verdict.
    pub fn check(&self, comm: &mut Comm, input: &[u64], output: &[u64]) -> bool {
        self.check_concat(comm, &[input], output)
    }

    /// Check that `output` is a permutation of the concatenation of
    /// several input sequences (the Union checker's shape, Corollary 12).
    pub fn check_concat(&self, comm: &mut Comm, inputs: &[&[u64]], output: &[u64]) -> bool {
        let mut in_sk = self.sketch();
        for s in inputs {
            in_sk.update_iter(s.iter().copied());
        }
        let mut out_sk = self.sketch();
        out_sk.update_iter(output.iter().copied());
        self.check_distributed_sketches(comm, in_sk, out_sk)
    }

    /// Distributed check over pre-folded sketches — the collective
    /// driver of every permutation check: [`PermChecker::lanes`] of the
    /// two digests, one reduce and a one-byte broadcast, whatever
    /// `iterations` and the method are (`8 + 16·iterations` bytes up).
    ///
    /// # Panics
    /// Panics if either sketch belongs to a different checker instance.
    pub fn check_distributed_sketches(
        &self,
        comm: &mut Comm,
        input: PermSketch<'_>,
        output: PermSketch<'_>,
    ) -> bool {
        assert!(
            std::ptr::eq(input.checker, self) && std::ptr::eq(output.checker, self),
            "sketches must come from this checker instance"
        );
        verdict(comm, self.lanes(input.finalize(), output.finalize()))
    }

    /// The lanes of a check on two finalized digests: the element counts'
    /// difference (an [`Op::Add`] word — unequal lengths are a degenerate
    /// mismatch no fingerprint is guaranteed to catch), then one pair of
    /// words per iteration. Hash sums are exact and below 2¹²⁸, so their
    /// difference mod 2¹²⁸ ([`Op::Add128`], as `(low, high)`) is zero
    /// exactly when they are equal. Products do not subtract: the
    /// polynomial methods send the `(input, output)` pair
    /// ([`Op::MulMersenne61`], [`Op::MulGf64`]), which accepts when its
    /// halves agree.
    pub fn lanes(&self, input: (u64, Vec<u128>), output: (u64, Vec<u128>)) -> Lanes {
        let ((n_in, ins), (n_out, outs)) = (input, output);
        let op = match self.fingerprint {
            Fingerprint::HashSum(_) => Op::Add128,
            Fingerprint::PolyField(_) => Op::MulMersenne61,
            Fingerprint::PolyGf64(_) => Op::MulGf64,
        };
        let pairs = ins.into_iter().zip(outs).flat_map(|(i, o)| match op {
            Op::Add128 => split(i.wrapping_sub(o)),
            // Products live in the low 64 bits of the accumulator.
            _ => [i as u64, o as u64],
        });
        let words: Vec<u64> = std::iter::once(n_in.wrapping_sub(n_out))
            .chain(pairs)
            .collect();
        let its = self.cfg.iterations;
        assert_eq!(words.len(), 1 + 2 * its, "digests of this checker");
        Lanes::new(words, vec![(Op::Add, 1), (op, 2 * its)])
    }

    /// Purely local check (p = 1 semantics) for tests and benchmarks.
    pub fn check_local(&self, input: &[u64], output: &[u64]) -> bool {
        let digest =
            |side: &[u64]| digest_chunked(|| self.sketch(), side.iter().copied(), usize::MAX);
        self.lanes(digest(input), digest(output)).accepts()
    }
}

/// The prepared fingerprints of all iterations: the partitioned hash of
/// the hash sums, or one fixed evaluation point per iteration for the
/// polynomial methods.
#[derive(Debug, Clone)]
enum Fingerprint {
    /// Additive Wegman–Carter fingerprints (Lemma 4): iteration `i` sums
    /// instance `i` of the partitioned hash, a `log_h`-bit slice.
    HashSum(PartitionedHash),
    /// `Π (z − eᵢ)` in 𝔽_{2⁶¹−1} (Lemma 5). Elements are canonicalized
    /// into the field; the documented aliasing caveat for values
    /// ≥ 2⁶¹ − 1 applies.
    PolyField(Vec<u64>),
    /// `Π (z ⊕ eᵢ)` in GF(2⁶⁴) with carry-less multiplication.
    PolyGf64(Vec<u64>),
}

impl Fingerprint {
    /// The fold's neutral element (0 for sums, 1 for products).
    fn identity(&self) -> u128 {
        match self {
            Fingerprint::HashSum(_) => 0,
            Fingerprint::PolyField(_) | Fingerprint::PolyGf64(_) => 1,
        }
    }

    /// Fold one element into every iteration's accumulator — the
    /// definition of the digest. Hash sums accumulate exactly in 128 bits
    /// (no intermediate modulus — the multiset fix); products stay in the
    /// low 64 bits.
    fn fold(&self, accs: &mut [u128], x: u64) {
        match self {
            Fingerprint::HashSum(hash) => {
                for (i, acc) in accs.iter_mut().enumerate() {
                    *acc += u128::from(hash.hash(i, x));
                }
            }
            Fingerprint::PolyField(points) => {
                for (acc, &z) in accs.iter_mut().zip(points) {
                    let factor = Mersenne61::sub(z, Mersenne61::from_u64(x));
                    *acc = u128::from(Mersenne61::mul(*acc as u64, factor));
                }
            }
            Fingerprint::PolyGf64(points) => {
                for (acc, &z) in accs.iter_mut().zip(points) {
                    *acc = u128::from(gf_mul(*acc as u64, z ^ x));
                }
            }
        }
    }

    /// Fold one block (at most [`BLOCK`] elements). Hash sums hash the
    /// block once per hash word ([`PartitionedHash::hash_block`]) and add
    /// each iteration's slots up in a register (`BLOCK` values of ≤ 32
    /// bits cannot overflow a u64); the polynomial methods are chains of
    /// dependent multiplies and fold element by element.
    fn fold_block(&self, accs: &mut [u128], block: &[u64], words: &mut [u64; BLOCK]) {
        match self {
            Fingerprint::HashSum(hash) => hash.hash_block(block, words, |instances, words| {
                for (k, acc) in accs[instances].iter_mut().enumerate() {
                    *acc += u128::from(words.iter().map(|&w| hash.slot(w, k)).sum::<u64>());
                }
            }),
            Fingerprint::PolyField(_) | Fingerprint::PolyGf64(_) => {
                for &x in block {
                    self.fold(accs, x);
                }
            }
        }
    }

    /// Combine two partial accumulators (sketch merge).
    #[inline]
    fn combine(&self, a: u128, b: u128) -> u128 {
        match self {
            Fingerprint::HashSum(_) => a.wrapping_add(b),
            Fingerprint::PolyField(_) => u128::from(Mersenne61::mul(a as u64, b as u64)),
            Fingerprint::PolyGf64(_) => u128::from(gf_mul(a as u64, b as u64)),
        }
    }
}

/// Streaming sketch of the permutation checker: element count plus one
/// fingerprint accumulator per iteration, all advanced in a single pass.
/// Obtained from [`PermChecker::sketch`].
pub struct PermSketch<'a> {
    checker: &'a PermChecker,
    accs: Vec<u128>,
    count: u64,
}

impl PermSketch<'_> {
    /// Number of elements folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Sketch for PermSketch<'_> {
    type Item = u64;
    /// `(element count, per-iteration fingerprints)`.
    type Digest = (u64, Vec<u128>);

    fn update(&mut self, item: u64) {
        self.checker.fingerprint.fold(&mut self.accs, item);
        self.count += 1;
    }

    /// Block fold, iteration-major: each hash word runs over the whole
    /// block before the next one's tables are touched.
    fn update_iter<I: IntoIterator<Item = u64>>(&mut self, items: I) {
        let mut words = [0; BLOCK];
        for_each_block(items, |block| {
            self.checker
                .fingerprint
                .fold_block(&mut self.accs, block, &mut words);
            self.count += block.len() as u64;
        });
    }

    fn merge(&mut self, other: Self) {
        assert!(
            std::ptr::eq(self.checker, other.checker),
            "cannot merge sketches of different checker instances"
        );
        let fingerprint = &self.checker.fingerprint;
        for (acc, &badd) in self.accs.iter_mut().zip(&other.accs) {
            *acc = fingerprint.combine(*acc, badd);
        }
        self.count += other.count;
    }

    fn finalize(self) -> (u64, Vec<u128>) {
        (self.count, self.accs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::run;

    fn all_methods() -> Vec<PermCheckConfig> {
        vec![
            PermCheckConfig::hash_sum(HasherKind::Tab64, 32),
            PermCheckConfig::hash_sum(HasherKind::Crc32c, 16),
            PermCheckConfig {
                method: PermMethod::PolyField,
                iterations: 1,
            },
            PermCheckConfig {
                method: PermMethod::PolyGf64,
                iterations: 1,
            },
        ]
    }

    fn shuffled(data: &[u64]) -> Vec<u64> {
        // Deterministic shuffle: reverse + rotate.
        let mut v: Vec<u64> = data.iter().rev().copied().collect();
        v.rotate_left(data.len() / 3);
        v
    }

    #[test]
    fn accepts_true_permutations() {
        let data: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E3779B9) % 100_000)
            .collect();
        let perm = shuffled(&data);
        for cfg in all_methods() {
            for seed in 0..10 {
                let checker = PermChecker::new(cfg, seed);
                assert!(checker.check_local(&data, &perm), "{cfg:?} seed={seed}");
            }
        }
    }

    #[test]
    fn accepts_permutations_with_duplicates() {
        // The paper's TODO case: repeated elements.
        let data: Vec<u64> = (0..500u64).map(|i| i % 7).collect();
        let perm = shuffled(&data);
        for cfg in all_methods() {
            let checker = PermChecker::new(cfg, 99);
            assert!(checker.check_local(&data, &perm), "{cfg:?}");
        }
    }

    #[test]
    fn rejects_single_element_change() {
        let data: Vec<u64> = (0..1000u64).collect();
        for cfg in all_methods() {
            let mut detected = 0;
            let trials = 60;
            for seed in 0..trials {
                let checker = PermChecker::new(cfg, seed);
                let mut bad = shuffled(&data);
                bad[123] += 1;
                if !checker.check_local(&data, &bad) {
                    detected += 1;
                }
            }
            // All methods here have failure prob ≤ 2^-16.
            assert_eq!(detected, trials, "{cfg:?}");
        }
    }

    #[test]
    fn rejects_duplicate_multiplicity_change() {
        // E has element 5 three times, O only twice (plus a 6) — exactly
        // the multiset case the naive mod-H argument misses.
        let input = vec![5u64, 5, 5, 1, 2];
        let output = vec![5u64, 5, 6, 1, 2];
        for cfg in all_methods() {
            let checker = PermChecker::new(cfg, 4);
            assert!(!checker.check_local(&input, &output), "{cfg:?}");
        }
    }

    #[test]
    fn rejects_length_mismatch() {
        let data: Vec<u64> = (0..100).collect();
        let shorter: Vec<u64> = (0..99).collect();
        for cfg in all_methods() {
            let checker = PermChecker::new(cfg, 1);
            assert!(!checker.check_local(&data, &shorter), "{cfg:?}");
        }
    }

    #[test]
    fn low_h_misses_with_plausible_rate() {
        // With H = 2 (one hash bit) a random corruption escapes ≈ half
        // the time — the Fig. 5 leftmost column.
        let cfg = PermCheckConfig::hash_sum(HasherKind::Tab32, 1);
        let data: Vec<u64> = (0..200u64).collect();
        let mut accepted_bad = 0;
        let trials = 600;
        for seed in 0..trials {
            let checker = PermChecker::new(cfg, seed);
            let mut bad = data.clone();
            bad[50] = 1_000_000 + seed; // randomize an element
            if checker.check_local(&data, &bad) {
                accepted_bad += 1;
            }
        }
        let rate = accepted_bad as f64 / trials as f64;
        assert!((0.4..0.6).contains(&rate), "false-accept rate {rate} ≉ 0.5");
    }

    #[test]
    fn iterations_boost_detection() {
        let single = PermCheckConfig::hash_sum(HasherKind::Tab32, 1);
        let boosted = PermCheckConfig {
            iterations: 8,
            ..single
        };
        let data: Vec<u64> = (0..200u64).collect();
        let mut acc_single = 0;
        let mut acc_boosted = 0;
        for seed in 0..300 {
            let mut bad = data.clone();
            bad[3] = 777_777 + seed;
            if PermChecker::new(single, seed).check_local(&data, &bad) {
                acc_single += 1;
            }
            if PermChecker::new(boosted, seed).check_local(&data, &bad) {
                acc_boosted += 1;
            }
        }
        assert!(
            acc_boosted * 10 < acc_single,
            "{acc_boosted} vs {acc_single}"
        );
    }

    #[test]
    fn distributed_agrees_with_local() {
        let cfg = PermCheckConfig::hash_sum(HasherKind::Tab64, 32);
        for corrupt in [false, true] {
            let verdicts = run(4, |comm| {
                let rank = comm.rank() as u64;
                let input: Vec<u64> = (0..250).map(|i| rank * 250 + i).collect();
                // Output = global input redistributed: PE r gets elements
                // congruent r mod 4, reversed.
                let mut output: Vec<u64> = (0..1000u64).filter(|x| x % 4 == rank).rev().collect();
                if corrupt && rank == 3 {
                    output[7] ^= 0x40;
                }
                let checker = PermChecker::new(cfg, 31337);
                checker.check(comm, &input, &output)
            });
            assert!(verdicts.iter().all(|&v| v != corrupt), "corrupt={corrupt}");
        }
    }

    #[test]
    fn distributed_poly_methods() {
        // The per-lane multiplicative combiners, at one and at many
        // lanes: a true permutation is accepted, one changed element is
        // caught (failure ≤ n/2⁶¹ per instance).
        for method in [PermMethod::PolyField, PermMethod::PolyGf64] {
            for iterations in [1, 4, 16] {
                let cfg = PermCheckConfig { method, iterations };
                for p in [2usize, 3, 5] {
                    for corrupt in [false, true] {
                        let verdicts = run(p, |comm| {
                            let (rank, p) = (comm.rank() as u64, p as u64);
                            let input: Vec<u64> = (0..100).map(|i| rank * 100 + i).collect();
                            let mut output: Vec<u64> =
                                (0..100 * p).filter(|x| x % p == rank).collect();
                            if corrupt && comm.rank() == p as usize - 1 {
                                output[7] += 1;
                            }
                            let checker = PermChecker::new(cfg, 5);
                            checker.check(comm, &input, &output)
                        });
                        assert!(
                            verdicts.iter().all(|&v| v != corrupt),
                            "{method:?} iterations={iterations} p={p} corrupt={corrupt}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn count_mismatch_with_equal_fingerprints_rejects() {
        // An extra output element whose factor is the identity of the
        // fold (`z − x = 1`, `z ⊕ x = 1`, `h(x) mod 2 = 0`) leaves every
        // fingerprint pair equal: only the counts in the same message
        // can reject it.
        let one_bit_hash = PermCheckConfig::hash_sum(HasherKind::Tab64, 1);
        let poly = |method| PermCheckConfig {
            method,
            iterations: 1,
        };
        for cfg in [
            one_bit_hash,
            poly(PermMethod::PolyField),
            poly(PermMethod::PolyGf64),
        ] {
            let checker = PermChecker::new(cfg, 3);
            let invisible = match &checker.fingerprint {
                Fingerprint::HashSum(h) => (0..).find(|&x| h.hash(0, x) == 0).unwrap(),
                Fingerprint::PolyField(points) => Mersenne61::sub(points[0], 1),
                Fingerprint::PolyGf64(points) => points[0] ^ 1,
            };
            let verdicts = run(2, |comm| {
                let input: Vec<u64> = (0..50).map(|i| 1000 * comm.rank() as u64 + i).collect();
                let mut output = input.clone();
                if comm.rank() == 1 {
                    output.push(invisible);
                }
                let (mut in_sk, mut out_sk) = (checker.sketch(), checker.sketch());
                in_sk.update_iter(input.iter().copied());
                out_sk.update_iter(output.iter().copied());
                assert_eq!(in_sk.accs, out_sk.accs, "{cfg:?}: fingerprints must tie");
                checker.check_distributed_sketches(comm, in_sk, out_sk)
            });
            assert!(verdicts.iter().all(|&v| !v), "{cfg:?}");
        }
    }

    #[test]
    fn concat_union_shape() {
        let cfg = PermCheckConfig::hash_sum(HasherKind::Tab64, 32);
        let verdicts = run(2, |comm| {
            let rank = comm.rank() as u64;
            let s1: Vec<u64> = (0..50).map(|i| rank * 50 + i).collect();
            let s2: Vec<u64> = (0..30).map(|i| 1000 + rank * 30 + i).collect();
            // Union output redistributed: everything on PE 0.
            let output: Vec<u64> = if rank == 0 {
                (0..100u64).chain(1000..1060).collect()
            } else {
                Vec::new()
            };
            let checker = PermChecker::new(cfg, 8);
            checker.check_concat(comm, &[&s1, &s2], &output)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn communication_volume_constant_in_n() {
        use ccheck_net::router::run_with_stats;
        let volume = |n: u64| {
            let (_, snap) = run_with_stats(4, |comm| {
                let input: Vec<u64> = (0..n).collect();
                let output: Vec<u64> = (0..n).rev().collect();
                let checker = PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 2);
                checker.check(comm, &input, &output)
            });
            snap.total_bytes()
        };
        assert_eq!(volume(10), volume(10_000));
    }

    #[test]
    fn poly_field_canonicalizes_oversized_elements() {
        let cfg = PermCheckConfig {
            method: PermMethod::PolyField,
            iterations: 1,
        };
        let checker = PermChecker::new(cfg, 1);
        // Never rejects a correct result, even outside the universe bound.
        assert!(checker.check_local(&[u64::MAX, 5], &[5, u64::MAX]));
        // A high-bit flip (the faulty-data case) is still detected:
        // 2^63 mod (2^61 − 1) = 4 ≠ 0.
        assert!(!checker.check_local(&[1u64, 5], &[1 ^ (1 << 63), 5]));
        // The documented blind spot: values aliasing mod 2^61 − 1.
        let p = ccheck_hashing::field::MERSENNE61;
        assert!(checker.check_local(&[3u64], &[3 + p]));
    }
}
