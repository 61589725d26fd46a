//! The sum-aggregation checker (§4 of the paper: Algorithm 1, Theorem 1,
//! Lemmata 2–3).
//!
//! To check `SELECT key, SUM(value) GROUP BY key`, the checker applies a
//! naïve sum reduction to a *condensed* version of both the operation's
//! input and its asserted output: a random hash function maps the
//! unbounded key space onto `d` buckets, and per-bucket sums are kept in
//! the residue ring ℤ/rℤ for a random modulus `r ∈ (r̂, 2r̂]`. If the
//! aggregation was correct, both condensed tables agree for *every* hash
//! function and modulus; if it was wrong, they disagree with probability
//! at least `1 − (1/r̂ + 1/d)` per iteration (Lemma 2).
//!
//! Engineering details from §7.1, reproduced here:
//!
//! * all iterations share **one** hash evaluation whose bits are
//!   partitioned into per-iteration bucket indices
//!   ([`ccheck_hashing::PartitionedHash`]),
//! * bucket accumulators are 64-bit and added **without** modulo; an
//!   addition that overflows (detected via `overflowing_add`) folds the
//!   lost 2⁶⁴ back in as the precomputed `2⁶⁴ mod rᵢ` — at most two more
//!   adds, no division,
//! * the difference of the input-side and output-side tables, all
//!   iterations, travels in a **single** reduction message, each bucket
//!   packed at the `m + 1` bits of its residue:
//!   `⌈`[`SumCheckConfig::table_bits`]`/8⌉` bytes ([`crate::lanes`]), so
//!   the whole check costs one tree reduction plus a one-byte broadcast:
//!   `O((n/p + β·d·⌈log₂ 2r̂⌉·its) + α·log p)`.
//!
//! Every fold — [`Sketch::update_iter`], [`Sketch::update`], `condense`
//! and their signed forms — is the fused block fold the xor checker
//! shares (see [`crate::sketch`]): hash a block of keys once per hash
//! word, then update every iteration's bucket of each key in one pass.
//! Unsigned and signed values differ only in the value lane: the residue
//! each value adds in iteration `i`'s ℤ/rᵢℤ.

use ccheck_hashing::field::addmod;
use ccheck_hashing::{BucketMap, Mt19937_64, PartitionedHash};
use ccheck_net::Comm;

use crate::config::SumCheckConfig;
use crate::lanes::{verdict, Lanes, Op};
use crate::sketch::{
    digest_chunked, fold_buckets, for_each_pair_block, for_each_pair_chunk, Sketch,
};

/// One of [`SumChecker`]'s block folds: `(table, keys, values, words)`.
type BlockFold<V> = fn(&SumChecker, &mut [u64], &[u64], &[V], &mut [u64]);

/// A configured instance of the sum-aggregation checker.
///
/// Construction fixes the random hash function and the per-iteration
/// moduli from `seed`; in an SPMD run every PE must construct the checker
/// with the same `(config, seed)` so their condensed tables are
/// compatible.
///
/// Iterations are bit-slices of shared hash words. With tabulation
/// hashing the slices are independent hash functions (the slice lemma in
/// [`ccheck_hashing::partition`]), so Lemma 2's per-iteration bound and
/// the product [`SumCheckConfig::failure_bound`] hold as for separately
/// seeded functions.
#[derive(Debug, Clone)]
pub struct SumChecker {
    cfg: SumCheckConfig,
    hash: PartitionedHash,
    /// Modulus of each iteration, drawn uniformly from `(r̂, 2r̂]`.
    moduli: Vec<u64>,
    /// `2⁶⁴ mod rᵢ` per iteration: what an overflowing add lost, mod rᵢ.
    wraps: Vec<u64>,
    bucket_map: BucketMap,
}

impl SumChecker {
    /// Instantiate from a configuration and a shared seed.
    pub fn new(cfg: SumCheckConfig, seed: u64) -> Self {
        let bucket_map = BucketMap::new(cfg.buckets, cfg.hasher.output_bits());
        let hash = PartitionedHash::new(cfg.hasher, seed, cfg.iterations, bucket_map.bits());
        // Moduli from an MT19937-64 stream over the same seed (domain-
        // separated) — identical on every PE.
        let mut rng = Mt19937_64::new(seed ^ 0x6D6F_6475_6C75_7321);
        let rhat = cfg.rhat();
        let moduli: Vec<u64> = (0..cfg.iterations)
            .map(|_| rhat + 1 + rng.next() % rhat)
            .collect();
        let wraps = moduli.iter().map(|&r| (u64::MAX % r + 1) % r).collect();
        Self {
            cfg,
            hash,
            moduli,
            wraps,
            bucket_map,
        }
    }

    /// The configuration this checker was built with.
    pub fn config(&self) -> &SumCheckConfig {
        &self.cfg
    }

    /// The per-iteration moduli (each in `(r̂, 2r̂]`).
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Length of one condensed table: `iterations · buckets` u64 slots.
    pub fn table_len(&self) -> usize {
        self.cfg.iterations * self.cfg.buckets
    }

    /// A fresh zeroed condensed table.
    pub fn new_table(&self) -> Vec<u64> {
        vec![0u64; self.table_len()]
    }

    /// Add `add` into a bucket of an iteration whose `2⁶⁴ mod r` is
    /// `wrap()` (§7.1's jump-on-overflow trick): buckets stay unreduced,
    /// and an add that overflows folds the lost 2⁶⁴ back in as `wrap()`,
    /// which is evaluated only then. That add overflows again only if the
    /// wrapped sum was at least `2⁶⁴ − wrap`; what is left is then below
    /// `wrap < r`, so one more `wrap` fits.
    #[inline(always)]
    fn bucket_add(slot: &mut u64, add: u64, wrap: impl FnOnce() -> u64) {
        let (sum, overflow) = slot.overflowing_add(add);
        *slot = if overflow {
            Self::fold_carry(sum, wrap())
        } else {
            sum
        };
    }

    /// `sum + 2⁶⁴` in ℤ/rℤ, unreduced, for `wrap = 2⁶⁴ mod r`.
    #[cold]
    fn fold_carry(sum: u64, wrap: u64) -> u64 {
        match sum.overflowing_add(wrap) {
            (folded, false) => folded,
            (folded, true) => folded + wrap,
        }
    }

    /// The one fold of every unsigned sum path (the `cRed` inner loop):
    /// the pairs `(keys[j], values[j])` into `table`, all iterations,
    /// through the fused block fold; a value adds itself.
    fn fold_unsigned(&self, table: &mut [u64], keys: &[u64], values: &[u64], words: &mut [u64]) {
        let map = self.bucket_map;
        fold_buckets(
            &self.hash,
            map,
            table,
            keys,
            values,
            words,
            |bucket, value, i| Self::bucket_add(bucket, value, || self.wraps[i]),
        );
    }

    /// [`SumChecker::fold_unsigned`] for signed values: a value adds its
    /// positive residue in ℤ/rᵢℤ ([`SumChecker::signed_residue`]).
    fn fold_signed(&self, table: &mut [u64], keys: &[u64], values: &[i64], words: &mut [u64]) {
        let map = self.bucket_map;
        fold_buckets(
            &self.hash,
            map,
            table,
            keys,
            values,
            words,
            |bucket, value, i| {
                let add = Self::signed_residue(value, self.moduli[i]);
                Self::bucket_add(bucket, add, || self.wraps[i])
            },
        );
    }

    /// Fold a stream of pairs into `table` a block at a time, with `fold`
    /// one of the two block folds above.
    fn fold_iter<V: Copy + Default>(
        &self,
        table: &mut [u64],
        pairs: impl IntoIterator<Item = (u64, V)>,
        fold: BlockFold<V>,
    ) {
        assert_eq!(table.len(), self.table_len());
        for_each_pair_block(pairs, |keys, values, words| {
            fold(self, table, keys, values, words)
        });
    }

    /// The positive residue (`< r`) representing signed `value` in ℤ/rℤ.
    #[inline]
    fn signed_residue(value: i64, r: u64) -> u64 {
        if value >= 0 {
            value as u64
        } else {
            let neg = (value.unsigned_abs()) % r;
            if neg == 0 {
                0
            } else {
                r - neg
            }
        }
    }

    /// A fresh, empty streaming sketch for this checker (see
    /// [`crate::sketch::Sketch`]). Feed items with `update`, combine
    /// partial sketches with `merge`; the finalized digest is identical
    /// for every chunking of the same multiset.
    pub fn sketch(&self) -> SumSketch<'_> {
        SumSketch {
            checker: self,
            table: self.new_table(),
        }
    }

    /// Condense unsigned (key, value) pairs into `table` (the `cRed` of
    /// Algorithm 1, all iterations at once). `table` must come from
    /// [`SumChecker::new_table`] or a previous `condense` call; values
    /// accumulate.
    pub fn condense(&self, pairs: &[(u64, u64)], table: &mut [u64]) {
        assert_eq!(table.len(), self.table_len());
        for_each_pair_chunk(pairs, |keys, values, words| {
            self.fold_unsigned(table, keys, values, words)
        });
    }

    /// Condense signed (key, value) pairs — used by the median checker,
    /// where elements map to ±1 (§6.3). Negative values enter as their
    /// positive residue `r − (−v mod r)`.
    pub fn condense_signed(&self, pairs: &[(u64, i64)], table: &mut [u64]) {
        assert_eq!(table.len(), self.table_len());
        for_each_pair_chunk(pairs, |keys, values, words| {
            self.fold_signed(table, keys, values, words)
        });
    }

    /// Reduce every bucket to its canonical residue (`< r_i`). Must be
    /// called before tables are compared or communicated.
    pub fn finalize(&self, table: &mut [u64]) {
        let d = self.cfg.buckets;
        for (i, &r) in self.moduli.iter().enumerate() {
            for slot in &mut table[i * d..(i + 1) * d] {
                *slot %= r;
            }
        }
    }

    /// The lanes of a check: `input − output` in each iteration's ℤ/rᵢℤ,
    /// one [`Op::AddMod`] row of `d` words per iteration. Both are
    /// finalized digests of this checker's sketches (canonical residues),
    /// so the difference is zero exactly when they are equal; unsigned,
    /// signed and count checks, one-shot or chunked, all end here.
    pub fn lanes(&self, mut input: Vec<u64>, output: Vec<u64>) -> Lanes {
        let len = self.table_len();
        assert_eq!([input.len(), output.len()], [len; 2], "digest lengths");
        let d = self.cfg.buckets;
        let rows = input.chunks_mut(d).zip(output.chunks(d));
        for ((ins, outs), &r) in rows.zip(&self.moduli) {
            for (x, &y) in ins.iter_mut().zip(outs) {
                *x = addmod(*x, (r - y) % r, r);
            }
        }
        let rows = self.moduli.iter().map(|&r| (Op::AddMod(r), d)).collect();
        Lanes::new(input, rows)
    }

    /// The finalized digest of a stream of pairs.
    pub(crate) fn digest(&self, pairs: impl IntoIterator<Item = (u64, u64)>) -> Vec<u64> {
        digest_chunked(|| self.sketch(), pairs, usize::MAX)
    }

    /// The finalized digest of a stream of signed pairs.
    pub(crate) fn digest_signed(&self, pairs: impl IntoIterator<Item = (u64, i64)>) -> Vec<u64> {
        let mut sketch = self.sketch();
        sketch.update_signed_iter(pairs);
        sketch.finalize()
    }

    /// Purely local check (p = 1): condense input and asserted output,
    /// compare. Exposed for unit tests and the overhead benchmarks.
    pub fn check_local(&self, input: &[(u64, u64)], asserted: &[(u64, u64)]) -> bool {
        let (input, asserted) = (input.iter().copied(), asserted.iter().copied());
        self.lanes(self.digest(input), self.digest(asserted))
            .accepts()
    }

    /// Distributed check of a sum aggregation (Algorithm 1).
    ///
    /// `input` is this PE's share of the operation's input; `asserted` is
    /// this PE's share of the asserted output (any distribution, but the
    /// shards must be **disjoint**: each key's aggregate appears exactly
    /// once globally — a replicated output would be double-counted; use
    /// an empty shard on all but one PE for replicated results). The
    /// difference of the two condensed tables travels in one tree
    /// reduction; the verdict is broadcast so **every** PE returns the
    /// same boolean.
    ///
    /// One-sided error: a correct result is always accepted; an incorrect
    /// one is (erroneously) accepted with probability at most
    /// [`SumCheckConfig::failure_bound`].
    pub fn check_distributed(
        &self,
        comm: &mut Comm,
        input: &[(u64, u64)],
        asserted: &[(u64, u64)],
    ) -> bool {
        let (input, asserted) = (input.iter().copied(), asserted.iter().copied());
        verdict(comm, self.lanes(self.digest(input), self.digest(asserted)))
    }

    /// Distributed check over pre-folded sketches, for streams folded
    /// incrementally (through a [`crate::sketch::Tee`], or chunk-merged
    /// across threads) before the collective phase.
    ///
    /// # Panics
    /// Panics if either sketch belongs to a different checker instance.
    pub fn check_distributed_sketches(
        &self,
        comm: &mut Comm,
        input: SumSketch<'_>,
        asserted: SumSketch<'_>,
    ) -> bool {
        assert!(
            std::ptr::eq(input.checker, self) && std::ptr::eq(asserted.checker, self),
            "sketches must come from this checker instance"
        );
        verdict(comm, self.lanes(input.finalize(), asserted.finalize()))
    }
}

/// Streaming sketch of the sum-aggregation checker: the `its × d`
/// condensed table, fed one pair at a time. Obtained from
/// [`SumChecker::sketch`]; see [`crate::sketch`] for the contract.
///
/// Memory is O(its · d) regardless of how many items are folded in, and
/// any chunking of the input yields a bit-identical
/// [`Sketch::finalize`] digest.
#[derive(Clone)]
pub struct SumSketch<'a> {
    checker: &'a SumChecker,
    table: Vec<u64>,
}

impl SumSketch<'_> {
    /// Fold a signed pair (the median checker's ±1 streams): the value
    /// enters as its positive residue in each iteration's ℤ/rᵢℤ.
    pub fn update_signed(&mut self, (key, value): (u64, i64)) {
        self.checker
            .fold_signed(&mut self.table, &[key], &[value], &mut [0]);
    }

    /// Fold a stream of signed pairs: [`SumSketch::update_signed`] per
    /// pair, computed by the block fold.
    pub fn update_signed_iter<I: IntoIterator<Item = (u64, i64)>>(&mut self, pairs: I) {
        self.checker
            .fold_iter(&mut self.table, pairs, SumChecker::fold_signed);
    }

    /// The raw (unfinalized) condensed table — bucket sums with lazy
    /// modulo reduction, as communicated nowhere; finalize before
    /// comparing.
    pub fn table(&self) -> &[u64] {
        &self.table
    }
}

impl Sketch for SumSketch<'_> {
    type Item = (u64, u64);
    /// The finalized condensed table: canonical residues `< rᵢ`.
    type Digest = Vec<u64>;

    fn update(&mut self, (key, value): (u64, u64)) {
        self.checker
            .fold_unsigned(&mut self.table, &[key], &[value], &mut [0]);
    }

    fn update_iter<I: IntoIterator<Item = (u64, u64)>>(&mut self, pairs: I) {
        self.checker
            .fold_iter(&mut self.table, pairs, SumChecker::fold_unsigned);
    }

    fn merge(&mut self, other: Self) {
        assert!(
            std::ptr::eq(self.checker, other.checker),
            "cannot merge sketches of different checker instances"
        );
        let d = self.checker.cfg.buckets;
        for ((i, slot), &add) in self.table.iter_mut().enumerate().zip(&other.table) {
            SumChecker::bucket_add(slot, add, || self.checker.wraps[i / d]);
        }
    }

    fn finalize(self) -> Vec<u64> {
        let mut table = self.table;
        self.checker.finalize(&mut table);
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;
    use std::collections::HashMap;

    fn cfg(its: usize, d: usize, m: u32) -> SumCheckConfig {
        SumCheckConfig::new(its, d, m, HasherKind::Tab64)
    }

    fn aggregate(input: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut map: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in input {
            *map.entry(k).or_insert(0) = map.get(&k).copied().unwrap_or(0).wrapping_add(v);
        }
        let mut out: Vec<(u64, u64)> = map.into_iter().collect();
        out.sort_unstable();
        out
    }

    fn example_input(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i % 37, i * 13 + 1)).collect()
    }

    #[test]
    fn accepts_correct_result_always() {
        // One-sided error: across many seeds, a correct result must
        // never be rejected.
        let input = example_input(500);
        let output = aggregate(&input);
        for seed in 0..50 {
            let checker = SumChecker::new(cfg(4, 8, 5), seed);
            assert!(checker.check_local(&input, &output), "seed {seed}");
        }
    }

    #[test]
    fn rejects_single_value_corruption_with_high_probability() {
        let input = example_input(500);
        let output = aggregate(&input);
        let mut rejected = 0;
        let trials = 200;
        for seed in 0..trials {
            let checker = SumChecker::new(cfg(4, 8, 5), seed);
            let mut bad = output.clone();
            bad[7].1 += 1;
            if !checker.check_local(&input, &bad) {
                rejected += 1;
            }
        }
        // δ = (1/32 + 1/8)^4 ≈ 6e-4; in 200 trials expect ≈ 0 accepts.
        assert!(rejected >= trials - 2, "rejected only {rejected}/{trials}");
    }

    #[test]
    fn rejects_missing_key() {
        let input = example_input(500);
        let output = aggregate(&input);
        let checker = SumChecker::new(cfg(4, 8, 5), 42);
        let mut bad = output.clone();
        bad.remove(3); // "forget" a key entirely
        assert!(!checker.check_local(&input, &bad));
    }

    #[test]
    fn rejects_extra_key() {
        let input = example_input(500);
        let mut bad = aggregate(&input);
        bad.push((999_999, 1));
        let checker = SumChecker::new(cfg(4, 8, 5), 42);
        assert!(!checker.check_local(&input, &bad));
    }

    #[test]
    fn zero_value_insertion_is_invisible() {
        // x ⊕ 0 = x: adding a neutral element cannot be detected (and is
        // not an error for sum aggregation semantics).
        let input = example_input(100);
        let mut output = aggregate(&input);
        output.push((123_456, 0));
        let checker = SumChecker::new(cfg(4, 8, 5), 1);
        assert!(checker.check_local(&input, &output));
    }

    #[test]
    fn empty_input_empty_output_accepted() {
        let checker = SumChecker::new(cfg(2, 4, 5), 9);
        assert!(checker.check_local(&[], &[]));
    }

    #[test]
    fn single_iteration_two_buckets_sometimes_misses() {
        // With d=2, r̂ large: swap-keys manipulation escapes whenever both
        // keys hash to the same bucket (prob ≈ 1/2). Statistically check
        // the failure rate is in the right ballpark, confirming the
        // checker is no stronger than theory predicts (sanity against
        // accidentally comparing raw data).
        let input: Vec<(u64, u64)> = (0..100).map(|i| (i, 10 + i)).collect();
        let output = aggregate(&input);
        let mut accepted_bad = 0;
        let trials = 400;
        for seed in 0..trials {
            let checker = SumChecker::new(cfg(1, 2, 20), seed);
            let mut bad = output.clone();
            // Swap the values of two keys (IncDec-like, modulus-immune).
            let (v5, v9) = (bad[5].1, bad[9].1);
            bad[5].1 = v9;
            bad[9].1 = v5;
            if checker.check_local(&input, &bad) {
                accepted_bad += 1;
            }
        }
        let rate = accepted_bad as f64 / trials as f64;
        assert!(
            (0.35..0.65).contains(&rate),
            "false-accept rate {rate} should be ≈ 1/2 for d=2"
        );
    }

    #[test]
    fn overflow_lazy_modulo_correct() {
        // Values near u64::MAX force the overflow path; the block fold
        // must equal a naive per-key residue computation — with one hash
        // word, a fast-range map (d = 37), and partitions of three Tab64
        // and two CRC words.
        for c in [
            cfg(2, 4, 5),
            cfg(3, 37, 8),
            cfg(16, 1024, 24),
            SumCheckConfig::new(16, 16, 15, HasherKind::Crc32c),
        ] {
            let checker = SumChecker::new(c, 3);
            let input: Vec<(u64, u64)> = (0..600).map(|i| (i % 41, u64::MAX - i)).collect();
            let mut table = checker.new_table();
            checker.condense(&input, &mut table);
            checker.finalize(&mut table);
            // Naive recomputation in u128.
            let (its, d) = (c.iterations, c.buckets);
            let mut expected = vec![0u128; checker.table_len()];
            for &(k, v) in &input {
                for i in 0..its {
                    let bucket = checker.bucket_map.map(checker.hash.hash(i, k));
                    let r = checker.moduli[i] as u128;
                    let slot = &mut expected[i * d + bucket];
                    *slot = (*slot + v as u128) % r;
                }
            }
            let expected: Vec<u64> = expected.into_iter().map(|x| x as u64).collect();
            assert_eq!(table, expected, "{c}");
        }
    }

    #[test]
    fn signed_condense_matches_integer_semantics() {
        // +1/−1 per key must cancel exactly.
        let checker = SumChecker::new(cfg(3, 8, 6), 11);
        let pairs: Vec<(u64, i64)> = (0..50)
            .flat_map(|k| [(k, 1i64), (k, 1), (k, -1), (k, -1)])
            .collect();
        let mut table = checker.new_table();
        checker.condense_signed(&pairs, &mut table);
        checker.finalize(&mut table);
        assert!(table.iter().all(|&x| x == 0), "non-zero residue: {table:?}");
    }

    #[test]
    fn signed_detects_imbalance() {
        let checker = SumChecker::new(cfg(4, 8, 6), 11);
        let pairs: Vec<(u64, i64)> = vec![(1, 1), (1, 1), (1, -1)]; // sum = 1
        let mut table = checker.new_table();
        checker.condense_signed(&pairs, &mut table);
        checker.finalize(&mut table);
        assert!(table.iter().any(|&x| x != 0));
    }

    #[test]
    fn non_power_of_two_buckets() {
        // d = 37 (a Table 2 optimum) exercises the fast-range path.
        let c = SumCheckConfig::new(3, 37, 8, HasherKind::Tab64);
        let checker = SumChecker::new(c, 5);
        let input = example_input(1000);
        let output = aggregate(&input);
        assert!(checker.check_local(&input, &output));
        let mut bad = output.clone();
        bad[0].1 ^= 0x10;
        assert!(!checker.check_local(&input, &bad));
    }

    #[test]
    fn moduli_in_half_open_interval() {
        for m in [3u32, 5, 15, 31] {
            let c = cfg(16, 4, m);
            let checker = SumChecker::new(c, 77);
            let rhat = 1u64 << m;
            for &r in checker.moduli() {
                assert!(r > rhat && r <= 2 * rhat, "m={m}: r={r}");
            }
        }
    }

    #[test]
    fn distributed_matches_local_semantics() {
        // 4 PEs, each holding a share of input and output; the
        // distributed verdict must equal the local all-data verdict.
        for corrupt in [false, true] {
            let verdicts = run(4, |comm| {
                let rank = comm.rank() as u64;
                let input: Vec<(u64, u64)> = (0..250u64)
                    .map(|i| ((rank * 250 + i) % 37, i + 1))
                    .collect();
                // Correct global aggregation computed redundantly per PE
                // (cheap here; it is the checker under test, not the op).
                let all_input: Vec<(u64, u64)> = (0..4u64)
                    .flat_map(|r| (0..250u64).map(move |i| ((r * 250 + i) % 37, i + 1)))
                    .collect();
                let full = aggregate(&all_input);
                // Distribute output shards round-robin.
                let mut shard: Vec<(u64, u64)> =
                    full.iter().copied().skip(comm.rank()).step_by(4).collect();
                if corrupt && comm.rank() == 2 && !shard.is_empty() {
                    shard[0].1 += 5;
                }
                let checker = SumChecker::new(cfg(6, 16, 9), 1234);
                checker.check_distributed(comm, &input, &shard)
            });
            assert!(
                verdicts.iter().all(|&v| v != corrupt),
                "corrupt={corrupt}: {verdicts:?}"
            );
            // All PEs agree on the verdict.
            assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn distributed_signed_zero_target() {
        let verdicts = run(3, |comm| {
            let rank = comm.rank() as u64;
            // Balanced ±1 pairs across PEs: (k, +1) on this PE, (k, −1)
            // on the next — global per-key sums are all zero.
            let pairs: Vec<(u64, i64)> = (0..60)
                .map(|i| (i, if (i + rank).is_multiple_of(3) { 1 } else { 0 }))
                .collect();
            let neg: Vec<(u64, i64)> = pairs.iter().map(|&(k, v)| (k, -v)).collect();
            let all: Vec<(u64, i64)> = pairs.into_iter().chain(neg).collect();
            let checker = SumChecker::new(cfg(4, 8, 6), 5);
            let zero = checker.digest_signed([]);
            verdict(comm, checker.lanes(checker.digest_signed(all), zero))
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn communication_volume_is_config_bound_not_input_bound() {
        use ccheck_net::router::run_with_stats;
        // The checker's traffic must depend on (its × d), not on n.
        let volume_for_n = |n: u64| {
            let (_, snap) = run_with_stats(4, |comm| {
                let input: Vec<(u64, u64)> = (0..n).map(|i| (i % 17, i)).collect();
                let output = aggregate(&input); // everyone checks vs full output on PE 0
                let shard = if comm.rank() == 0 { output } else { Vec::new() };
                let checker = SumChecker::new(cfg(4, 16, 7), 9);
                checker.check_distributed(comm, &input, &shard)
            });
            snap.total_bytes()
        };
        let small = volume_for_n(100);
        let large = volume_for_n(10_000);
        assert_eq!(small, large, "checker volume must be independent of n");
    }

    #[test]
    fn count_aggregation_convenience() {
        let verdicts = run(3, |comm| {
            let rank = comm.rank() as u64;
            let keys: Vec<u64> = (0..90).map(|i| (rank * 90 + i) % 7).collect();
            // Correct global counts: 270 elements over 7 keys, on PE 0.
            let mut counts = [0u64; 7];
            (0..270).for_each(|g| counts[g % 7] += 1);
            let shard = if comm.rank() == 0 { 0..7 } else { 0..0 };
            let asserted: Vec<(u64, u64)> = shard.map(|k| (k as u64, counts[k])).collect();
            // Count aggregation is sum aggregation with every value 1.
            let checker = SumChecker::new(cfg(4, 16, 9), 3);
            let count = |comm: &mut Comm, asserted: &[(u64, u64)]| {
                let ones = checker.digest(keys.iter().map(|&k| (k, 1)));
                let asserted = checker.digest(asserted.iter().copied());
                verdict(comm, checker.lanes(ones, asserted))
            };
            let ok = count(comm, &asserted);
            // Off-by-one count must be rejected.
            let mut bad = asserted.clone();
            if comm.rank() == 0 {
                bad[2].1 += 1;
            }
            let caught = !count(comm, &bad);
            ok && caught
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn replicated_output_shards_are_rejected() {
        // The documented contract: output shards must be disjoint. A
        // result replicated on every PE is double-counted and rejected
        // (feeding it from a single PE is the correct usage).
        let verdicts = run(2, |comm| {
            let input: Vec<(u64, u64)> = (0..100).map(|i| (i % 9, i + 1)).collect();
            let all_input: Vec<(u64, u64)> = (0..2)
                .flat_map(|_| (0..100u64).map(|i| (i % 9, i + 1)))
                .collect();
            let full = aggregate(&all_input);
            let checker = SumChecker::new(cfg(4, 16, 9), 8);
            // Wrong: every PE feeds the whole output.
            let wrong = checker.check_distributed(comm, &input, &full);
            // Right: only PE 0 feeds it.
            let shard = if comm.rank() == 0 { full } else { Vec::new() };
            let right = checker.check_distributed(comm, &input, &shard);
            (wrong, right)
        });
        assert!(verdicts.iter().all(|&(w, r)| !w && r));
    }

    #[test]
    fn sketch_chunking_invariance() {
        // Any chunking of the input folds to the same finalized digest
        // as the one-shot condense path.
        let input = example_input(777);
        let checker = SumChecker::new(cfg(4, 37, 7), 21); // fast-range path too
        let mut one_shot = checker.new_table();
        checker.condense(&input, &mut one_shot);
        checker.finalize(&mut one_shot);
        for chunk in [1usize, 3, 10, 100, 776, 777, 10_000] {
            let digest =
                crate::sketch::digest_chunked(|| checker.sketch(), input.iter().copied(), chunk);
            assert_eq!(digest, one_shot, "chunk={chunk}");
        }
    }

    #[test]
    fn overflow_fold_matches_the_modulo_path() {
        // Adds near 2⁶⁴ into buckets near 2⁶⁴: the wrap fold must leave
        // the residue the two-`%` path computes, including when folding
        // `2⁶⁴ mod r` back in wraps a second time.
        let checker = SumChecker::new(cfg(64, 2, 62), 9);
        let near_top = [u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) + 12_345, 3];
        let mut wrapped_twice = 0;
        for (&r, &wrap) in checker.moduli.iter().zip(&checker.wraps) {
            assert_eq!(u128::from(wrap), (1u128 << 64) % u128::from(r));
            for slot in near_top {
                for add in near_top {
                    let modulo = addmod(slot % r, add % r, r);
                    let mut folded = slot;
                    SumChecker::bucket_add(&mut folded, add, || wrap);
                    assert_eq!(folded % r, modulo, "r={r} slot={slot} add={add}");
                    let once = slot.wrapping_add(add);
                    if slot.checked_add(add).is_none() && once.checked_add(wrap).is_none() {
                        wrapped_twice += 1;
                    }
                }
            }
        }
        assert!(wrapped_twice > 0, "no case wrapped twice");
    }

    #[test]
    fn sketch_merge_handles_overflow_buckets() {
        // Values near u64::MAX in both halves force the merge's lazy
        // modulo path; the digest must match the one-shot fold.
        let checker = SumChecker::new(cfg(2, 4, 5), 3);
        let input: Vec<(u64, u64)> = (0..64).map(|i| (i % 4, u64::MAX - i)).collect();
        let mut whole = checker.sketch();
        whole.update_iter(input.iter().copied());
        let mut left = checker.sketch();
        left.update_iter(input[..32].iter().copied());
        let mut right = checker.sketch();
        right.update_iter(input[32..].iter().copied());
        left.merge(right);
        assert_eq!(left.finalize(), whole.finalize());
    }

    #[test]
    fn scales_to_many_pes() {
        // p = 32 smoke test: tree reduction depth 5, verdict uniform.
        let verdicts = run(32, |comm| {
            let rank = comm.rank() as u64;
            let input: Vec<(u64, u64)> = (0..50).map(|i| ((rank * 50 + i) % 13, i + 1)).collect();
            let all: Vec<(u64, u64)> = (0..32u64)
                .flat_map(|r| (0..50u64).map(move |i| ((r * 50 + i) % 13, i + 1)))
                .collect();
            let full = aggregate(&all);
            let shard = if comm.rank() == 0 { full } else { Vec::new() };
            let checker = SumChecker::new(cfg(4, 16, 9), 17);
            checker.check_distributed(comm, &input, &shard)
        });
        assert_eq!(verdicts.len(), 32);
        assert!(verdicts.iter().all(|&v| v));
    }
}
