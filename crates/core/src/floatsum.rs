//! Floating-point sum aggregation checking — the paper's future-work
//! question, answered for the practical case.
//!
//! "It would also be interesting to know whether the sum aggregation
//! checker can be adapted for other data types such as floating point
//! numbers without suffering from numerical instability issues such as
//! catastrophic cancellation." (§ Future Work)
//!
//! The obstruction is not the checker but the *operation*: f64 addition
//! is non-associative, so a distributed float sum is order-dependent and
//! "the correct result" is not even well-defined — no checker can have
//! one-sided error against an ambiguous ground truth. The practical
//! resolution implemented here: make the aggregation **exact** by
//! summing on a fixed-point grid (values scaled to integer "ticks"),
//! which restores associativity/commutativity and lets Theorem 1 apply
//! verbatim to the tick integers. Quantization error is bounded and
//! incurred once per input element (≤ 2⁻ᶠʳᵃᶜ⁻¹ each, no cancellation
//! amplification), which is exactly how production systems make money
//! amounts and metrics aggregation reproducible.

use ccheck_net::Comm;

use crate::config::SumCheckConfig;
use crate::lanes::{verdict, Lanes};
use crate::sum::SumChecker;

/// Fixed-point codec: `frac_bits` fractional bits on a signed 64-bit
/// grid, giving a dynamic range of ±2^(63−frac).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPoint {
    /// Fractional bits (grid resolution 2^−frac_bits).
    pub frac_bits: u32,
}

impl FixedPoint {
    /// Create a codec; `frac_bits ≤ 52` (beyond f64 mantissa precision
    /// the extra bits are meaningless).
    pub fn new(frac_bits: u32) -> Self {
        assert!(
            frac_bits <= 52,
            "more than 52 fractional bits is meaningless for f64"
        );
        Self { frac_bits }
    }

    /// Scale factor 2^frac_bits.
    pub fn scale(&self) -> f64 {
        (1u64 << self.frac_bits) as f64
    }

    /// Quantize a float to grid ticks (round-to-nearest). Returns `None`
    /// for NaN/∞ or values outside the representable range.
    pub fn encode(&self, x: f64) -> Option<i64> {
        if !x.is_finite() {
            return None;
        }
        let scaled = (x * self.scale()).round();
        if scaled >= -(2f64.powi(62)) && scaled <= 2f64.powi(62) {
            Some(scaled as i64)
        } else {
            None
        }
    }

    /// Ticks back to float.
    pub fn decode(&self, ticks: i64) -> f64 {
        ticks as f64 / self.scale()
    }

    /// Worst-case absolute quantization error per element.
    pub fn max_error_per_element(&self) -> f64 {
        0.5 / self.scale()
    }
}

/// Checker for fixed-point float sum aggregation.
///
/// The *operation under test* must aggregate on the same grid (sum the
/// encoded ticks — see [`aggregate_ticks`] for the reference), making
/// the computation exact and order-independent; the checker then has
/// genuine one-sided error exactly as in Theorem 1.
#[derive(Debug, Clone)]
pub struct FloatSumChecker {
    codec: FixedPoint,
    inner: SumChecker,
}

impl FloatSumChecker {
    /// Build from a sum-checker configuration, a codec, and the shared
    /// seed.
    pub fn new(cfg: SumCheckConfig, codec: FixedPoint, seed: u64) -> Self {
        Self {
            codec,
            inner: SumChecker::new(cfg, seed),
        }
    }

    /// The codec in use.
    pub fn codec(&self) -> FixedPoint {
        self.codec
    }

    fn encode_pairs(&self, pairs: &[(u64, f64)]) -> Option<Vec<(u64, i64)>> {
        pairs
            .iter()
            .map(|&(k, v)| self.codec.encode(v).map(|t| (k, t)))
            .collect()
    }

    /// The lanes of a check: a veto if any value fails to encode
    /// (NaN/∞/overflow) or an asserted sum is not on the grid, then the
    /// sum checker's lanes of the encoded ticks. [`Lanes::accepts`] is the
    /// local check (p = 1 semantics).
    pub fn lanes(&self, input: &[(u64, f64)], asserted: &[(u64, f64)]) -> Lanes {
        let (t_in, t_out) = (self.encode_pairs(input), self.encode_pairs(asserted));
        let veto = Lanes::veto(t_in.is_none() || t_out.is_none());
        let digest =
            |ticks: Option<Vec<(u64, i64)>>| self.inner.digest_signed(ticks.unwrap_or_default());
        veto.concat(self.inner.lanes(digest(t_in), digest(t_out)))
    }

    /// Distributed check: `input` float pairs vs `asserted` per-key float
    /// sums (disjoint shards, as for [`SumChecker`]), one [`verdict`] over
    /// [`FloatSumChecker::lanes`]. Rejects outright if any value on any PE
    /// fails to encode. Every PE returns the same verdict.
    pub fn check_distributed(
        &self,
        comm: &mut Comm,
        input: &[(u64, f64)],
        asserted: &[(u64, f64)],
    ) -> bool {
        verdict(comm, self.lanes(input, asserted))
    }
}

/// Reference fixed-point aggregation for the operation side: sums each
/// key's encoded ticks exactly, returning per-key float sums on the grid.
/// Returns `None` if any value fails to encode.
pub fn aggregate_ticks(codec: FixedPoint, pairs: &[(u64, f64)]) -> Option<Vec<(u64, f64)>> {
    let mut sums: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    for &(k, v) in pairs {
        let t = codec.encode(v)?;
        *sums.entry(k).or_insert(0) += t;
    }
    let mut out: Vec<(u64, f64)> = sums
        .into_iter()
        .map(|(k, t)| (k, codec.decode(t)))
        .collect();
    out.sort_by_key(|&(k, _)| k);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;

    fn cfg() -> SumCheckConfig {
        SumCheckConfig::new(6, 16, 9, HasherKind::Tab64)
    }

    fn codec() -> FixedPoint {
        FixedPoint::new(20) // ~1e-6 resolution
    }

    fn workload() -> Vec<(u64, f64)> {
        (0..400u64)
            .map(|i| (i % 13, (i as f64) * 0.03125 - 3.5)) // exact on the grid
            .collect()
    }

    #[test]
    fn encode_decode_roundtrip_on_grid() {
        let c = codec();
        for x in [-1000.0, -0.5, 0.0, 0.25, 3.0e9] {
            let t = c.encode(x).unwrap();
            assert_eq!(c.decode(t), x, "{x} is on the 2^-20 grid");
        }
    }

    #[test]
    fn encode_quantizes_off_grid() {
        let c = FixedPoint::new(4); // 1/16 resolution
        let t = c.encode(0.3).unwrap(); // nearest tick: 5/16 = 0.3125
        assert_eq!(c.decode(t), 0.3125);
        assert!((c.decode(t) - 0.3).abs() <= c.max_error_per_element() + 1e-12);
    }

    #[test]
    fn encode_rejects_non_finite_and_overflow() {
        let c = codec();
        assert_eq!(c.encode(f64::NAN), None);
        assert_eq!(c.encode(f64::INFINITY), None);
        assert_eq!(c.encode(1e300), None);
    }

    #[test]
    fn accepts_correct_fixed_point_aggregation() {
        let input = workload();
        let asserted = aggregate_ticks(codec(), &input).unwrap();
        for seed in 0..20 {
            let checker = FloatSumChecker::new(cfg(), codec(), seed);
            assert!(checker.lanes(&input, &asserted).accepts(), "seed {seed}");
        }
    }

    #[test]
    fn detects_single_tick_corruption() {
        // The smallest representable error — one grid tick on one key.
        let input = workload();
        let mut bad = aggregate_ticks(codec(), &input).unwrap();
        bad[3].1 += codec().max_error_per_element() * 2.0; // exactly 1 tick
        let checker = FloatSumChecker::new(cfg(), codec(), 5);
        assert!(!checker.lanes(&input, &bad).accepts());
    }

    #[test]
    fn detects_catastrophic_cancellation_error() {
        // The motivating instability: a+b−a computed naively in f64 loses
        // b's low bits; on the tick grid it cannot.
        let c = FixedPoint::new(20);
        let input: Vec<(u64, f64)> = vec![(1, 1.0e9), (1, 0.25), (1, -1.0e9)];
        let exact = aggregate_ticks(c, &input).unwrap();
        assert_eq!(exact, vec![(1, 0.25)]);
        // A faulty implementation that summed in f32 would report 0.0.
        let checker = FloatSumChecker::new(cfg(), c, 9);
        assert!(checker.lanes(&input, &exact).accepts());
        assert!(!checker.lanes(&input, &[(1, 0.0)]).accepts());
    }

    #[test]
    fn rejects_nan_input_consistently() {
        let verdicts = run(2, |comm| {
            let input: Vec<(u64, f64)> = if comm.rank() == 0 {
                vec![(1, f64::NAN)]
            } else {
                vec![(1, 2.0)]
            };
            let checker = FloatSumChecker::new(cfg(), codec(), 1);
            checker.check_distributed(comm, &input, &[])
        });
        assert!(verdicts.iter().all(|&v| !v));
        // All PEs agree even though only PE 0 saw the NaN.
        assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn distributed_check_end_to_end() {
        for corrupt in [false, true] {
            let verdicts = run(4, |comm| {
                let rank = comm.rank() as u64;
                let input: Vec<(u64, f64)> = (0..100u64)
                    .map(|i| ((rank * 100 + i) % 11, (i as f64) * 0.5 - 20.0))
                    .collect();
                let all: Vec<(u64, f64)> = (0..4u64)
                    .flat_map(|r| {
                        (0..100u64).map(move |i| ((r * 100 + i) % 11, (i as f64) * 0.5 - 20.0))
                    })
                    .collect();
                let full = aggregate_ticks(codec(), &all).unwrap();
                let mut shard: Vec<(u64, f64)> = if comm.rank() == 0 { full } else { Vec::new() };
                if corrupt && comm.rank() == 0 {
                    shard[5].1 += 1.0 / 1024.0;
                }
                let checker = FloatSumChecker::new(cfg(), codec(), 21);
                checker.check_distributed(comm, &input, &shard)
            });
            assert!(verdicts.iter().all(|&v| v != corrupt), "corrupt={corrupt}");
        }
    }

    #[test]
    fn negative_sums_handled() {
        let input: Vec<(u64, f64)> = vec![(1, -5.5), (1, -4.5), (2, 3.0)];
        let asserted = aggregate_ticks(codec(), &input).unwrap();
        assert_eq!(asserted, vec![(1, -10.0), (2, 3.0)]);
        let checker = FloatSumChecker::new(cfg(), codec(), 2);
        assert!(checker.lanes(&input, &asserted).accepts());
    }

    #[test]
    #[should_panic(expected = "52 fractional bits")]
    fn excessive_precision_rejected() {
        let _ = FixedPoint::new(53);
    }
}
