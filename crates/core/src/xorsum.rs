//! XOR aggregation checking — the second worked instance of Theorem 1.
//!
//! §4: "the checker works not only for sum aggregation, but also other
//! operations on integers that fulfill certain properties. We require
//! that the reduce operator ⊕ be associative, commutative, and satisfy
//! x ⊕ y ≠ x for all y ≠ 0. Examples include count aggregation … and
//! exclusive or (xor)."
//!
//! For ⊕ = xor the construction simplifies: values never grow, so no
//! modulus is needed and the per-iteration failure bound loses its
//! `1/r̂` term — a single iteration fails with probability at most
//! `1/d` (only the bucket-collision mode of Lemma 2 remains).

use ccheck_hashing::{BucketMap, HasherKind, PartitionedHash};

use crate::lanes::{Lanes, Op};
use crate::sketch::{fold_buckets, for_each_pair_block, for_each_pair_chunk, Sketch};

/// Configuration of the xor-aggregation checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorCheckConfig {
    /// Number of independent iterations.
    pub iterations: usize,
    /// Buckets per iteration (power of two recommended).
    pub buckets: usize,
    /// Hash family mapping keys to buckets.
    pub hasher: HasherKind,
}

impl XorCheckConfig {
    /// Create a validated configuration.
    pub fn new(iterations: usize, buckets: usize, hasher: HasherKind) -> Self {
        assert!(iterations >= 1 && buckets >= 2);
        Self {
            iterations,
            buckets,
            hasher,
        }
    }

    /// Failure bound `(1/d)^its` (no modulus term).
    pub fn failure_bound(&self) -> f64 {
        (1.0 / self.buckets as f64).powi(self.iterations as i32)
    }
}

/// Checker for `SELECT key, XOR_AGG(value) GROUP BY key`.
#[derive(Debug, Clone)]
pub struct XorChecker {
    cfg: XorCheckConfig,
    hash: PartitionedHash,
    bucket_map: BucketMap,
}

impl XorChecker {
    /// Instantiate from a configuration and a shared seed.
    pub fn new(cfg: XorCheckConfig, seed: u64) -> Self {
        let bucket_map = BucketMap::new(cfg.buckets, cfg.hasher.output_bits());
        let hash = PartitionedHash::new(cfg.hasher, seed, cfg.iterations, bucket_map.bits());
        Self {
            cfg,
            hash,
            bucket_map,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &XorCheckConfig {
        &self.cfg
    }

    /// A fresh, empty streaming sketch for this checker (see
    /// [`crate::sketch::Sketch`]). Xor is its own inverse and merge, so
    /// this is the simplest sketch in the family: the digest is the raw
    /// table.
    pub fn sketch(&self) -> XorSketch<'_> {
        XorSketch {
            checker: self,
            table: vec![0u64; self.cfg.iterations * self.cfg.buckets],
        }
    }

    /// Condense pairs into an `iterations × buckets` xor table.
    pub fn condense(&self, pairs: &[(u64, u64)], table: &mut [u64]) {
        assert_eq!(table.len(), self.cfg.iterations * self.cfg.buckets);
        for_each_pair_chunk(pairs, |keys, values, words| {
            self.fold(table, keys, values, words)
        });
    }

    /// The one fold of every xor path: the pairs `(keys[j], values[j])`
    /// into `table`, all iterations, through the fused block fold the sum
    /// checker shares (see [`crate::sketch`]).
    fn fold(&self, table: &mut [u64], keys: &[u64], values: &[u64], words: &mut [u64]) {
        fold_buckets(
            &self.hash,
            self.bucket_map,
            table,
            keys,
            values,
            words,
            |bucket, value, _| *bucket ^= value,
        );
    }

    /// [`XorChecker::fold`] over a stream of pairs, a block at a time.
    fn fold_iter(&self, table: &mut [u64], pairs: impl IntoIterator<Item = (u64, u64)>) {
        assert_eq!(table.len(), self.cfg.iterations * self.cfg.buckets);
        for_each_pair_block(pairs, |keys, values, words| {
            self.fold(table, keys, values, words)
        });
    }

    /// The lanes of a check: `input ⊕ output`, one [`Op::Xor`] row. It is
    /// zero exactly when the two digests are equal. The local check is
    /// [`Lanes::accepts`]; the distributed one is [`crate::lanes::verdict`],
    /// one xor tree reduction plus a one-byte broadcast.
    pub fn lanes(&self, mut input: Vec<u64>, output: Vec<u64>) -> Lanes {
        let len = self.cfg.iterations * self.cfg.buckets;
        assert_eq!([input.len(), output.len()], [len; 2], "digest lengths");
        for (x, y) in input.iter_mut().zip(output) {
            *x ^= y;
        }
        Lanes::new(input, vec![(Op::Xor, len)])
    }
}

/// Streaming sketch of the xor-aggregation checker: the `its × d` xor
/// table. Obtained from [`XorChecker::sketch`].
#[derive(Clone)]
pub struct XorSketch<'a> {
    checker: &'a XorChecker,
    table: Vec<u64>,
}

impl Sketch for XorSketch<'_> {
    type Item = (u64, u64);
    /// The xor table itself — xor needs no canonicalization.
    type Digest = Vec<u64>;

    fn update(&mut self, (key, value): (u64, u64)) {
        self.checker
            .fold(&mut self.table, &[key], &[value], &mut [0]);
    }

    fn update_iter<I: IntoIterator<Item = (u64, u64)>>(&mut self, pairs: I) {
        self.checker.fold_iter(&mut self.table, pairs);
    }

    fn merge(&mut self, other: Self) {
        assert!(
            std::ptr::eq(self.checker, other.checker),
            "cannot merge sketches of different checker instances"
        );
        for (slot, &add) in self.table.iter_mut().zip(&other.table) {
            *slot ^= add;
        }
    }

    fn finalize(self) -> Vec<u64> {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::verdict;
    use crate::sketch::digest_chunked;
    use ccheck_net::run;
    use std::collections::HashMap;

    /// The lanes of a check of two slices.
    fn lanes(checker: &XorChecker, input: &[(u64, u64)], asserted: &[(u64, u64)]) -> Lanes {
        let digest = |side: &[(u64, u64)]| {
            digest_chunked(|| checker.sketch(), side.iter().copied(), usize::MAX)
        };
        checker.lanes(digest(input), digest(asserted))
    }

    fn xor_aggregate(input: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut m: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in input {
            *m.entry(k).or_insert(0) ^= v;
        }
        let mut out: Vec<(u64, u64)> = m.into_iter().collect();
        out.sort_unstable();
        out
    }

    fn cfg() -> XorCheckConfig {
        XorCheckConfig::new(4, 16, HasherKind::Tab64)
    }

    #[test]
    fn accepts_correct_xor_aggregation() {
        let input: Vec<(u64, u64)> = (0..500u64).map(|i| (i % 31, i * 0x9E37 + 1)).collect();
        let output = xor_aggregate(&input);
        for seed in 0..20 {
            assert!(lanes(&XorChecker::new(cfg(), seed), &input, &output).accepts());
        }
    }

    #[test]
    fn detects_value_corruption() {
        let input: Vec<(u64, u64)> = (0..500u64).map(|i| (i % 31, i * 0x9E37 + 1)).collect();
        let mut bad = xor_aggregate(&input);
        bad[5].1 ^= 0x100;
        let missed = (0..100)
            .filter(|&seed| lanes(&XorChecker::new(cfg(), seed), &input, &bad).accepts())
            .count();
        assert_eq!(missed, 0, "δ = 16^-4 ≈ 1.5e-5: no misses in 100 trials");
    }

    #[test]
    fn detects_forgotten_key() {
        let input: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 7, i | 1)).collect();
        let mut bad = xor_aggregate(&input);
        bad.remove(2);
        assert!(!lanes(&XorChecker::new(cfg(), 3), &input, &bad).accepts());
    }

    #[test]
    fn zero_values_invisible_by_design() {
        // x ⊕ 0 = x: exactly the neutral-element caveat of Theorem 1.
        let input: Vec<(u64, u64)> = vec![(1, 5), (2, 9)];
        let mut output = xor_aggregate(&input);
        output.push((777, 0));
        assert!(lanes(&XorChecker::new(cfg(), 1), &input, &output).accepts());
    }

    #[test]
    fn failure_bound_formula() {
        let c = XorCheckConfig::new(3, 8, HasherKind::Crc32c);
        assert!((c.failure_bound() - (1.0f64 / 512.0)).abs() < 1e-12);
    }

    #[test]
    fn weak_config_misses_at_predicted_rate() {
        // d = 2, 1 iteration: swapping the values of two keys goes
        // unnoticed iff both keys share a bucket — probability 1/2.
        let input: Vec<(u64, u64)> = (0..100u64).map(|i| (i, i * 3 + 1)).collect();
        let output = xor_aggregate(&input);
        let weak = XorCheckConfig::new(1, 2, HasherKind::Tab64);
        let mut accepted = 0u64;
        let trials = 400;
        for seed in 0..trials {
            let mut bad = output.clone();
            let (a, b) = (bad[10].1, bad[20].1);
            bad[10].1 = b;
            bad[20].1 = a;
            if lanes(&XorChecker::new(weak, seed), &input, &bad).accepts() {
                accepted += 1;
            }
        }
        let rate = accepted as f64 / trials as f64;
        assert!((0.38..0.62).contains(&rate), "rate {rate} ≉ 0.5");
    }

    #[test]
    fn distributed_check_and_detection() {
        for corrupt in [false, true] {
            let verdicts = run(4, |comm| {
                let rank = comm.rank() as u64;
                let input: Vec<(u64, u64)> = (0..200u64)
                    .map(|i| ((rank * 200 + i) % 23, i | 1))
                    .collect();
                let all: Vec<(u64, u64)> = (0..4u64)
                    .flat_map(|r| (0..200u64).map(move |i| ((r * 200 + i) % 23, i | 1)))
                    .collect();
                let full = xor_aggregate(&all);
                let mut shard: Vec<(u64, u64)> =
                    full.iter().copied().skip(comm.rank()).step_by(4).collect();
                if corrupt && comm.rank() == 1 && !shard.is_empty() {
                    shard[0].1 ^= 0x8000;
                }
                verdict(comm, lanes(&XorChecker::new(cfg(), 9), &input, &shard))
            });
            assert!(verdicts.iter().all(|&v| v != corrupt), "corrupt={corrupt}");
        }
    }

    #[test]
    fn sketch_chunking_invariance() {
        let input: Vec<(u64, u64)> = (0..400u64).map(|i| (i % 29, i * 0x9E37 + 1)).collect();
        let checker = XorChecker::new(cfg(), 6);
        let mut one_shot = vec![0u64; 4 * 16];
        checker.condense(&input, &mut one_shot);
        for chunk in [1usize, 7, 64, 399, 400, 5000] {
            let digest =
                crate::sketch::digest_chunked(|| checker.sketch(), input.iter().copied(), chunk);
            assert_eq!(digest, one_shot, "chunk={chunk}");
        }
    }

    #[test]
    fn non_power_of_two_buckets() {
        let c = XorCheckConfig::new(3, 37, HasherKind::Tab64);
        let input: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 41, i | 1)).collect();
        let output = xor_aggregate(&input);
        let checker = XorChecker::new(c, 5);
        assert!(lanes(&checker, &input, &output).accepts());
        let mut bad = output.clone();
        bad[0].1 ^= 1;
        assert!(!lanes(&checker, &input, &bad).accepts());
    }
}
