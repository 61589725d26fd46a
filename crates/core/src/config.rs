//! Sum-aggregation checker configuration (§4 of the paper).
//!
//! A configuration is written `#its×d Hashfn m⟨log₂ r̂⟩` in the paper
//! (e.g. `4×8 CRC m5`): `its` independent iterations, `d` buckets per
//! iteration, moduli drawn from `(r̂, 2r̂]` with `r̂ = 2^m`, hashed with
//! `Hashfn`. [`SumCheckConfig`] carries exactly those parameters and the
//! associated failure-probability algebra that generates Table 3.

use ccheck_hashing::HasherKind;

/// Parameters of the sum-aggregation checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SumCheckConfig {
    /// Number of independent iterations (repetitions), ≥ 1.
    pub iterations: usize,
    /// Bucket count `d` per iteration, ≥ 2.
    pub buckets: usize,
    /// `m = log₂ r̂`; the modulus of each iteration is drawn uniformly
    /// from `(2^m, 2^(m+1)]`. Must be in `1..=62`.
    pub log2_rhat: u32,
    /// Hash function family mapping keys to buckets.
    pub hasher: HasherKind,
}

impl SumCheckConfig {
    /// Create a validated configuration.
    ///
    /// # Panics
    /// Panics if any parameter is out of range (see field docs).
    pub fn new(iterations: usize, buckets: usize, log2_rhat: u32, hasher: HasherKind) -> Self {
        assert!(iterations >= 1, "need at least one iteration");
        assert!(buckets >= 2, "need at least two buckets (d >= 2)");
        assert!(
            (1..=62).contains(&log2_rhat),
            "log2_rhat must be in 1..=62 (got {log2_rhat})"
        );
        Self {
            iterations,
            buckets,
            log2_rhat,
            hasher,
        }
    }

    /// `r̂ = 2^m`.
    pub fn rhat(&self) -> u64 {
        1u64 << self.log2_rhat
    }

    /// Upper bound on the failure probability of a *single* iteration:
    /// `1/r̂ + 1/d` (Lemma 2).
    pub fn single_iteration_failure_bound(&self) -> f64 {
        1.0 / self.rhat() as f64 + 1.0 / self.buckets as f64
    }

    /// Overall failure probability bound `δ = (1/r̂ + 1/d)^its` — the
    /// "achieved δ" / "failure rate" column of Tables 2 and 3.
    pub fn failure_bound(&self) -> f64 {
        self.single_iteration_failure_bound()
            .powi(self.iterations as i32)
    }

    /// Size of the minireduction table in bits: `its · d · ⌈log₂ 2r̂⌉`
    /// (each bucket holds a value `< 2r̂`, i.e. `m+1` bits) — the
    /// "table size" column of Table 3 and the message-size budget `b`
    /// of Table 2. It is literally what the distributed check sends:
    /// [`crate::lanes::verdict`] packs each bucket in `m + 1` bits, so a
    /// reduction hop carries `⌈table_bits / 8⌉` bytes.
    pub fn table_bits(&self) -> u64 {
        self.iterations as u64 * self.buckets as u64 * (u64::from(self.log2_rhat) + 1)
    }

    /// The paper's label syntax, e.g. `4×8 CRC m5`.
    pub fn label(&self) -> String {
        format!(
            "{}×{} {} m{}",
            self.iterations,
            self.buckets,
            self.hasher.label(),
            self.log2_rhat
        )
    }

    /// Parse the paper's label syntax (`4×8 CRC m5`, ASCII `x` accepted).
    pub fn parse(label: &str) -> Result<Self, String> {
        let parts: Vec<&str> = label.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(format!("expected '<its>×<d> <Hash> m<m>', got '{label}'"));
        }
        let (its_str, d_str) = parts[0]
            .split_once(['×', 'x'])
            .ok_or_else(|| format!("missing × in '{}'", parts[0]))?;
        let iterations: usize = its_str.parse().map_err(|e| format!("iterations: {e}"))?;
        let buckets: usize = d_str.parse().map_err(|e| format!("buckets: {e}"))?;
        let hasher: HasherKind = parts[1].parse()?;
        let m_str = parts[2]
            .strip_prefix('m')
            .ok_or_else(|| format!("modulus field must start with 'm': '{}'", parts[2]))?;
        let log2_rhat: u32 = m_str.parse().map_err(|e| format!("log2_rhat: {e}"))?;
        if iterations < 1 || buckets < 2 || !(1..=62).contains(&log2_rhat) {
            return Err(format!("parameters out of range in '{label}'"));
        }
        Ok(Self {
            iterations,
            buckets,
            log2_rhat,
            hasher,
        })
    }
}

impl std::fmt::Display for SumCheckConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl std::str::FromStr for SumCheckConfig {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// The accuracy-experiment configurations of Table 3 (first block), used
/// by the Fig. 3 reproduction. CRC and Tab variants are generated for
/// each shape exactly as in Fig. 3's x-axis.
pub fn table3_accuracy_shapes() -> Vec<(usize, usize, u32)> {
    // (iterations, buckets, log2_rhat); m=31 entries use the modulus-free
    // shape of the first two rows (high r̂ ⇒ modulus failure negligible).
    vec![
        (1, 2, 31),
        (1, 4, 31),
        (4, 2, 4),
        (4, 4, 3),
        (4, 4, 5),
        (4, 8, 3),
        (4, 8, 5),
        (4, 8, 7),
    ]
}

/// The scaling/overhead configurations of Table 3 (second block) =
/// the rows of Table 5 and the series of Fig. 4.
pub fn table5_configs() -> Vec<SumCheckConfig> {
    use HasherKind::*;
    vec![
        SumCheckConfig::new(5, 16, 5, Crc32c),
        SumCheckConfig::new(6, 32, 9, Crc32c),
        SumCheckConfig::new(8, 16, 15, Crc32c),
        SumCheckConfig::new(4, 256, 15, Crc32c),
        SumCheckConfig::new(5, 128, 11, Tab64),
        SumCheckConfig::new(8, 256, 15, Tab64),
        SumCheckConfig::new(16, 16, 15, Tab64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 3 of the paper: label → (table bits, failure rate δ).
    /// Our algebra must reproduce every row.
    #[test]
    fn reproduces_table3() {
        let rows: Vec<(&str, u64, f64)> = vec![
            ("1×2 CRC m31", 64, 5e-1),
            ("1×4 CRC m31", 128, 2.5e-1),
            ("4×2 CRC m4", 40, 1e-1),
            ("4×4 CRC m3", 64, 2e-2),
            ("4×4 CRC m5", 96, 6e-3),
            ("4×8 CRC m3", 128, 3.9e-3),
            ("4×8 CRC m5", 192, 6e-4),
            ("4×8 CRC m7", 256, 3.1e-4),
            ("5×16 CRC m5", 480, 7.2e-6),
            ("6×32 CRC m9", 1920, 1.3e-9),
            ("8×16 CRC m15", 2048, 2.3e-10),
            ("4×256 CRC m15", 16384, 2.4e-10),
            ("5×128 Tab64 m11", 7680, 3.9e-11),
            ("8×256 Tab64 m15", 32768, 5.8e-20), // paper prints 32769 (typo)
            ("16×16 Tab64 m15", 4096, 5.4e-20),
        ];
        for (label, bits, delta) in rows {
            let cfg = SumCheckConfig::parse(label).unwrap();
            assert_eq!(cfg.table_bits(), bits, "{label}: table bits");
            let ratio = cfg.failure_bound() / delta;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{label}: δ={} vs paper {delta} (ratio {ratio})",
                cfg.failure_bound()
            );
        }
    }

    #[test]
    fn label_roundtrip() {
        for cfg in table5_configs() {
            let parsed = SumCheckConfig::parse(&cfg.label()).unwrap();
            assert_eq!(parsed, cfg);
        }
        // ASCII x accepted too.
        let cfg = SumCheckConfig::parse("4x8 CRC m5").unwrap();
        assert_eq!(cfg.label(), "4×8 CRC m5");
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "4×8",
            "4×8 CRC",
            "4×8 BOGUS m5",
            "0×8 CRC m5",
            "4×1 CRC m5",
            "4×8 CRC m0",
            "4×8 CRC m63",
            "4×8 CRC 5",
            "a×8 CRC m5",
        ] {
            assert!(SumCheckConfig::parse(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn failure_bound_monotone_in_iterations() {
        let base = SumCheckConfig::new(1, 8, 5, HasherKind::Crc32c);
        let more = SumCheckConfig::new(4, 8, 5, HasherKind::Crc32c);
        assert!(more.failure_bound() < base.failure_bound());
        assert!((base.failure_bound().powi(4) - more.failure_bound()).abs() < 1e-15);
    }

    #[test]
    fn minimum_volume_configuration() {
        // §4: minimum bottleneck volume at d=2, r̂=8 → 8-bit result per
        // iteration with failure base 1/8 + 1/2 = 0.625 ("log_1.6 δ⁻¹").
        let cfg = SumCheckConfig::new(1, 2, 3, HasherKind::Crc32c);
        assert_eq!(cfg.table_bits(), 8);
        assert!((cfg.single_iteration_failure_bound() - 0.625).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "two buckets")]
    fn one_bucket_rejected() {
        let _ = SumCheckConfig::new(1, 1, 5, HasherKind::Crc32c);
    }
}
