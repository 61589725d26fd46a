//! # ccheck — communication-efficient checking of big-data operations
//!
//! A Rust implementation of the probabilistic result checkers from
//! **Hübschle-Schneider & Sanders, "Communication Efficient Checking of
//! Big Data Operations" (2018)**. The checkers verify the output of
//! distributed data-processing operations (sum/average/median/minimum
//! aggregation, sorting, permutation, union, merge, zip, and the
//! redistribution phases of GroupBy and Join) while communicating
//! **sublinearly** in the input size — no PE sends or receives more than
//! a configuration-dependent constant, regardless of `n`.
//!
//! All checkers have one-sided error: a correct result is never
//! rejected; an incorrect result is accepted with probability at most a
//! user-chosen `δ` (Table 1 of the paper).
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module | Checker |
//! |---|---|---|
//! | §4 Thm 1 | [`sum`] | [`SumChecker`] — sum/count aggregation |
//! | §4 Table 2 | [`params`] | optimal (d, r̂, #its) for a message budget |
//! | §5 Thm 6 | [`permutation`] | [`PermChecker`] — hash-sum & polynomial |
//! | §5 Thm 7 | [`sort`] | [`check_sorted`] |
//! | §6.1 Cor 8 | [`average`] | [`check_average`] (count certificate) |
//! | §6.2 Thm 9 | [`minmax`] | [`check_min`] / [`check_max`] (location certificate) |
//! | §6.3 Thm 10 | [`median`] | [`check_median_unique`] / tie certificates |
//! | §6.4 Thm 11 | [`zip`] | [`ZipChecker`] |
//! | §6.5.1 Cor 12 | [`union`] | [`check_union`] |
//! | §6.5.2 Cor 13 | [`sort`] | [`check_merge`] |
//! | §6.5.3 Cor 14 | [`redistribution`] | [`check_groupby_redistribution`] |
//! | §6.5.4 Cor 15 | [`redistribution`] | [`check_join_redistribution`] |
//! | §2 | [`integrity`] | [`replicated_consistent`]; [`integrity::replica_matches_root`] for a check that carries the comparison in its own verdict |
//! | (streaming core) | [`sketch`] | [`Sketch`] — `update`/`merge`/`finalize` behind every checker |
//! | (one verdict) | [`lanes`] | [`Lanes`] — input minus output of a linear sketch; [`verdict`] reduces it, [`lanes::settle`] with a payload riding along |
//!
//! ## Quickstart
//!
//! ```
//! use ccheck::{SumChecker, SumCheckConfig};
//! use ccheck_hashing::HasherKind;
//!
//! // Configure: 4 iterations × 8 buckets, moduli in (2^5, 2^6], CRC-32C —
//! // the paper's "4×8 CRC m5" with failure probability ≈ 6·10⁻⁴.
//! let cfg = SumCheckConfig::new(4, 8, 5, HasherKind::Crc32c);
//! let checker = SumChecker::new(cfg, /*seed=*/ 42);
//!
//! // The operation under test: SELECT key, SUM(value) GROUP BY key.
//! let input = vec![(1u64, 10u64), (2, 5), (1, 7), (2, 1)];
//! let correct = vec![(1u64, 17u64), (2, 6)];
//! let faulty = vec![(1u64, 18u64), (2, 6)];
//!
//! assert!(checker.check_local(&input, &correct)); // never rejects correct
//! assert!(!checker.check_local(&input, &faulty)); // detects w.p. ≥ 1 − δ
//! ```
//!
//! Distributed use is identical but calls `check_distributed(comm, …)`
//! inside a [`ccheck_net::run`] SPMD region; see the repository examples.
//!
//! ## Streaming (out-of-core) checking
//!
//! Every checker is a mergeable one-pass [`Sketch`] underneath: instead
//! of handing it slices, feed elements with [`Sketch::update`], combine
//! per-chunk sketches with [`Sketch::merge`], and compare
//! [`Sketch::finalize`] digests — memory stays constant no matter how
//! large `n` grows, and any chunking produces bit-identical digests:
//!
//! ```
//! use ccheck::sketch::Sketch;
//! use ccheck::{SumChecker, SumCheckConfig};
//! use ccheck_hashing::HasherKind;
//!
//! let checker = SumChecker::new(SumCheckConfig::new(4, 8, 5, HasherKind::Crc32c), 42);
//!
//! // The same check as above, element-at-a-time: no input slice, no
//! // asserted-output slice, just two O(its·d) sketches.
//! let mut input = checker.sketch();
//! for pair in [(1u64, 10u64), (2, 5), (1, 7), (2, 1)] {
//!     input.update(pair); // stream from disk / generator / network
//! }
//! let mut asserted = checker.sketch();
//! asserted.update_iter([(1u64, 17u64), (2, 6)]);
//! assert_eq!(input.finalize(), asserted.finalize());
//!
//! // Chunked folding merges to the identical digest.
//! let mut a = checker.sketch();
//! a.update_iter([(1u64, 10u64), (2, 5)]);
//! let mut b = checker.sketch();
//! b.update_iter([(1u64, 7u64), (2, 1)]);
//! a.merge(b);
//! let mut whole = checker.sketch();
//! whole.update_iter([(1u64, 10u64), (2, 5), (1, 7), (2, 1)]);
//! assert_eq!(a.finalize(), whole.finalize());
//! ```

pub mod average;
pub mod config;
pub mod floatsum;
pub mod integrity;
pub mod lanes;
pub mod median;
pub mod minmax;
pub mod params;
pub mod permutation;
pub mod redistribution;
pub mod sketch;
pub mod sort;
pub mod sum;
pub mod union;
pub mod xorsum;
pub mod zip;

pub use average::check_average;
pub use config::SumCheckConfig;
pub use floatsum::{aggregate_ticks, FixedPoint, FloatSumChecker};
pub use integrity::replicated_consistent;
pub use lanes::{verdict, Lanes};
pub use median::{check_median_unique, check_median_with_cert, MedianTieCert};
pub use minmax::{check_extrema, check_extrema_bitvector, check_max, check_min, Extremum};
pub use params::{optimize, OptimalConfig};
pub use permutation::{PermCheckConfig, PermChecker, PermMethod, PermSketch};
pub use redistribution::{
    check_groupby_redistribution, check_join_redistribution, check_range_redistribution,
};
pub use sketch::Sketch;
pub use sort::{check_merge, check_sorted};
pub use sum::{SumChecker, SumSketch};
pub use union::check_union;
pub use xorsum::{XorCheckConfig, XorChecker, XorSketch};
pub use zip::{ZipCheckConfig, ZipChecker, ZipPairSketch, ZipSketch};
