//! `Dia` — a Thrill-style distributed collection API with built-in
//! checking.
//!
//! The paper's checkers were "designed to become part of" Thrill (§1),
//! whose programs are chains of DIA (Distributed Immutable Array)
//! operations. This module provides the same ergonomics: a [`Dia<T>`]
//! wraps a PE's local share of a conceptual global array, operations
//! chain method-style, and every operation has a `*_checked` variant
//! that runs the corresponding checker and refuses to hand over an
//! unverified result.
//!
//! ```no_run
//! # use ccheck_dataflow::dia::{Dia, PipelineCtx};
//! # use ccheck_hashing::HasherKind;
//! # use ccheck::SumCheckConfig;
//! # ccheck_net::run(4, |comm| {
//! let mut ctx = PipelineCtx::new(comm, /*seed=*/ 42);
//! let words = Dia::from_local(vec![(1u64, 1u64), (2, 1)]);
//! let cfg = SumCheckConfig::new(4, 16, 9, HasherKind::Tab64);
//! let counts = words
//!     .reduce_by_key_checked(&mut ctx, cfg)
//!     .expect("verified");
//! # });
//! ```

use ccheck::config::SumCheckConfig;
use ccheck::permutation::{PermCheckConfig, PermChecker};
use ccheck::sort::{check_merge, check_sorted};
use ccheck::zip::{ZipCheckConfig, ZipChecker};
use ccheck::SumChecker;
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_net::Comm;

use crate::aggregate::{average_by_key, median_by_key, min_by_key, AverageResult, ExtremaResult};
use crate::merge::merge_sorted;
use crate::reduce::reduce_by_key;
use crate::sort::sort;
use crate::zip::zip;
use crate::Pair;

/// A checker rejected the result of the preceding operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRejected {
    /// Which operation failed verification.
    pub operation: &'static str,
}

impl std::fmt::Display for CheckRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checker rejected the result of {}", self.operation)
    }
}

impl std::error::Error for CheckRejected {}

/// Per-PE pipeline context: the communicator plus a seed counter so each
/// checked stage gets a fresh, SPMD-consistent seed.
pub struct PipelineCtx<'a> {
    comm: &'a mut Comm,
    seed: u64,
    stage: u64,
    partition_hasher: Hasher,
}

impl<'a> PipelineCtx<'a> {
    /// Wrap a communicator; `seed` must be identical on every PE.
    pub fn new(comm: &'a mut Comm, seed: u64) -> Self {
        Self {
            comm,
            seed,
            stage: 0,
            partition_hasher: Hasher::new(HasherKind::Tab64, seed ^ 0x7061_7274),
        }
    }

    /// The underlying communicator.
    pub fn comm(&mut self) -> &mut Comm {
        self.comm
    }

    /// Fresh per-stage seed (identical across PEs because stages advance
    /// in SPMD lockstep).
    fn next_seed(&mut self) -> u64 {
        self.stage += 1;
        self.seed
            .wrapping_add(self.stage.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// A distributed immutable array: this PE's local share of the global
/// collection. Operations consume the `Dia` (immutability by move).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dia<T> {
    local: Vec<T>,
}

impl<T> Dia<T> {
    /// Wrap this PE's local share.
    pub fn from_local(local: Vec<T>) -> Self {
        Self { local }
    }

    /// This PE's share, by reference.
    pub fn local(&self) -> &[T] {
        &self.local
    }

    /// Unwrap into the local share.
    pub fn into_local(self) -> Vec<T> {
        self.local
    }

    /// Number of local elements.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Global element count (one allreduce).
    pub fn global_len(&self, ctx: &mut PipelineCtx<'_>) -> u64 {
        ctx.comm.allreduce(self.local.len() as u64, |a, b| a + b)
    }

    /// Map every element (purely local).
    pub fn map<U, F: FnMut(T) -> U>(self, f: F) -> Dia<U> {
        Dia {
            local: self.local.into_iter().map(f).collect(),
        }
    }

    /// Keep elements satisfying the predicate (purely local).
    pub fn filter<F: FnMut(&T) -> bool>(self, f: F) -> Dia<T> {
        Dia {
            local: self.local.into_iter().filter(f).collect(),
        }
    }

    /// Multiset union with another DIA (local concatenation, §6.5.1).
    pub fn union(mut self, other: Dia<T>) -> Dia<T> {
        self.local.extend(other.local);
        self
    }
}

impl Dia<Pair> {
    /// Sum aggregation (ReduceByKey), unchecked.
    pub fn reduce_by_key(self, ctx: &mut PipelineCtx<'_>) -> Dia<Pair> {
        let hasher = ctx.partition_hasher.clone();
        Dia {
            local: reduce_by_key(ctx.comm, self.local, &hasher, |a, b| a.wrapping_add(b)),
        }
    }

    /// Sum aggregation with verification (§4): runs the sum checker over
    /// the operation's input and output; the result is only handed out
    /// if every PE's checker accepted.
    pub fn reduce_by_key_checked(
        self,
        ctx: &mut PipelineCtx<'_>,
        cfg: SumCheckConfig,
    ) -> Result<Dia<Pair>, CheckRejected> {
        let hasher = ctx.partition_hasher.clone();
        let out = reduce_by_key(ctx.comm, self.local.iter().copied(), &hasher, |a, b| {
            a.wrapping_add(b)
        });
        let checker = SumChecker::new(cfg, ctx.next_seed());
        if checker.check_distributed(ctx.comm, &self.local, &out) {
            Ok(Dia { local: out })
        } else {
            Err(CheckRejected {
                operation: "reduce_by_key",
            })
        }
    }

    /// Per-key minimum with location certificate, verified by the
    /// deterministic checker of Theorem 9.
    pub fn min_by_key_checked(
        self,
        ctx: &mut PipelineCtx<'_>,
    ) -> Result<ExtremaResult, CheckRejected> {
        let result = min_by_key(ctx.comm, self.local.clone());
        if ccheck::check_min(ctx.comm, &self.local, &result.optima, &result.locations) {
            Ok(result)
        } else {
            Err(CheckRejected {
                operation: "min_by_key",
            })
        }
    }

    /// Per-key median (replicated at all PEs), verified per Theorem 10
    /// (unique-value form).
    pub fn median_by_key_checked(
        self,
        ctx: &mut PipelineCtx<'_>,
        cfg: SumCheckConfig,
    ) -> Result<Vec<(u64, f64)>, CheckRejected> {
        let hasher = ctx.partition_hasher.clone();
        let medians = median_by_key(ctx.comm, self.local.clone(), &hasher);
        let seed = ctx.next_seed();
        if ccheck::check_median_unique(ctx.comm, &self.local, &medians, cfg, seed) {
            Ok(medians)
        } else {
            Err(CheckRejected {
                operation: "median_by_key",
            })
        }
    }

    /// Per-key average with count certificate, verified per Corollary 8.
    pub fn average_by_key_checked(
        self,
        ctx: &mut PipelineCtx<'_>,
        cfg: SumCheckConfig,
    ) -> Result<AverageResult, CheckRejected> {
        let hasher = ctx.partition_hasher.clone();
        let avg = average_by_key(ctx.comm, self.local.clone(), &hasher);
        let seed = ctx.next_seed();
        if ccheck::check_average(ctx.comm, &self.local, &avg.averages, &avg.counts, cfg, seed) {
            Ok(avg)
        } else {
            Err(CheckRejected {
                operation: "average_by_key",
            })
        }
    }
}

impl Dia<u64> {
    /// Distributed sample sort, unchecked.
    pub fn sort(self, ctx: &mut PipelineCtx<'_>) -> Dia<u64> {
        Dia {
            local: sort(ctx.comm, self.local),
        }
    }

    /// Sort with verification (Theorem 7).
    pub fn sort_checked(
        self,
        ctx: &mut PipelineCtx<'_>,
        cfg: PermCheckConfig,
    ) -> Result<Dia<u64>, CheckRejected> {
        let out = sort(ctx.comm, self.local.clone());
        let perm = PermChecker::new(cfg, ctx.next_seed());
        if check_sorted(ctx.comm, &self.local, &out, &perm) {
            Ok(Dia { local: out })
        } else {
            Err(CheckRejected { operation: "sort" })
        }
    }

    /// Merge with another globally sorted DIA, verified (Corollary 13).
    pub fn merge_checked(
        self,
        other: Dia<u64>,
        ctx: &mut PipelineCtx<'_>,
        cfg: PermCheckConfig,
    ) -> Result<Dia<u64>, CheckRejected> {
        let out = merge_sorted(ctx.comm, self.local.clone(), other.local.clone());
        let perm = PermChecker::new(cfg, ctx.next_seed());
        if check_merge(ctx.comm, &self.local, &other.local, &out, &perm) {
            Ok(Dia { local: out })
        } else {
            Err(CheckRejected { operation: "merge" })
        }
    }

    /// Index-wise zip with another DIA, verified (Theorem 11).
    pub fn zip_checked(
        self,
        other: Dia<u64>,
        ctx: &mut PipelineCtx<'_>,
        cfg: ZipCheckConfig,
    ) -> Result<Dia<Pair>, CheckRejected> {
        let out = zip(ctx.comm, &self.local, &other.local);
        let checker = ZipChecker::new(cfg, ctx.next_seed());
        if checker.check(ctx.comm, &self.local, &other.local, &out) {
            Ok(Dia { local: out })
        } else {
            Err(CheckRejected { operation: "zip" })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::run;

    fn sum_cfg() -> SumCheckConfig {
        SumCheckConfig::new(6, 16, 9, HasherKind::Tab64)
    }

    fn perm_cfg() -> PermCheckConfig {
        PermCheckConfig::hash_sum(HasherKind::Tab64, 32)
    }

    #[test]
    fn wordcount_pipeline_end_to_end() {
        let results = run(4, |comm| {
            let mut ctx = PipelineCtx::new(comm, 7);
            let rank = ctx.comm().rank() as u64;
            let words =
                Dia::from_local((0..100u64).map(|i| ((rank * 100 + i) % 9, 1u64)).collect());
            let counts = words
                .reduce_by_key_checked(&mut ctx, sum_cfg())
                .expect("verified");
            counts.into_local()
        });
        let mut all: Vec<Pair> = results.into_iter().flatten().collect();
        all.sort_unstable();
        let total: u64 = all.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 400);
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn map_filter_union_are_local() {
        use ccheck_net::router::run_with_stats;
        let (_, snap) = run_with_stats(3, |comm| {
            let mut ctx = PipelineCtx::new(comm, 1);
            let a = Dia::from_local(vec![1u64, 2, 3]);
            let b = Dia::from_local(vec![10u64, 20]);
            let c = a.map(|x| x * 2).filter(|&x| x > 2).union(b);
            assert!(c.local_len() <= 5);
            // Only global_len communicates.
            let n = c.global_len(&mut ctx);
            assert_eq!(n, 12); // (2 kept of 3) + 2 per PE = 4 × 3
        });
        // map/filter/union moved zero payload beyond the one allreduce.
        assert!(snap.total_bytes() < 200);
    }

    #[test]
    fn sort_and_merge_checked() {
        let results = run(3, |comm| {
            let mut ctx = PipelineCtx::new(comm, 5);
            let rank = ctx.comm().rank() as u64;
            let a = Dia::from_local((0..50u64).map(|i| (i * 3 + rank * 151) % 500).collect());
            let b = Dia::from_local((0..30u64).map(|i| (i * 7 + rank * 97) % 500).collect());
            let sa = a.sort_checked(&mut ctx, perm_cfg()).expect("sort a");
            let sb = b.sort_checked(&mut ctx, perm_cfg()).expect("sort b");
            let merged = sa.merge_checked(sb, &mut ctx, perm_cfg()).expect("merge");
            merged.into_local()
        });
        let concat: Vec<u64> = results.into_iter().flatten().collect();
        assert_eq!(concat.len(), 240);
        assert!(concat.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zip_checked_pipeline() {
        let results = run(2, |comm| {
            let mut ctx = PipelineCtx::new(comm, 9);
            let rank = ctx.comm().rank() as u64;
            let xs = Dia::from_local((0..40u64).map(|i| rank * 40 + i).collect());
            let ys = Dia::from_local((0..40u64).map(|i| 1000 + rank * 40 + i).collect());
            xs.zip_checked(ys, &mut ctx, ZipCheckConfig::default())
                .expect("zip")
                .into_local()
        });
        for (x, y) in results.into_iter().flatten() {
            assert_eq!(y, 1000 + x);
        }
    }

    #[test]
    fn aggregates_checked_pipeline() {
        let verdicts = run(3, |comm| {
            let mut ctx = PipelineCtx::new(comm, 11);
            let rank = ctx.comm().rank() as u64;
            let data: Vec<Pair> = (0..60)
                .map(|i| (i % 5, (rank * 60 + i).wrapping_mul(0x9E3779B9) % 100_000))
                .collect();
            let mins = Dia::from_local(data.clone())
                .min_by_key_checked(&mut ctx)
                .expect("min");
            let medians = Dia::from_local(data.clone())
                .median_by_key_checked(&mut ctx, sum_cfg())
                .expect("median");
            let avg = Dia::from_local(data)
                .average_by_key_checked(&mut ctx, sum_cfg())
                .expect("average");
            // averages are sharded: count keys globally.
            let avg_keys = ctx
                .comm()
                .allreduce(avg.averages.len() as u64, |a, b| a + b);
            mins.optima.len() == 5 && medians.len() == 5 && avg_keys == 5
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn check_rejected_error_formats() {
        let e = CheckRejected { operation: "sort" };
        assert!(e.to_string().contains("sort"));
        fn is_error<E: std::error::Error>(_: &E) {}
        is_error(&e);
    }
}
