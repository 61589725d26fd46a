//! Single-pass checking through [`ccheck::sketch::Tee`]: the checker
//! folds the operation's input while the operation consumes it. An
//! operation that reads only half of its input, and emits an output
//! consistent with that half, must be rejected once the tee is
//! finished. A tee that is leaked instead (`mem::forget`, so its
//! draining `Drop` never runs) has shown the checker only the half,
//! and the same output passes — the control that shows the drain is
//! what catches it.

use ccheck::permutation::{PermCheckConfig, PermChecker};
use ccheck::sketch::{Sketch, Tee, BLOCK};
use ccheck::sort::check_globally_sorted;
use ccheck::{SumCheckConfig, SumChecker};
use ccheck_dataflow::{reduce_by_key_chunked, sort_chunked};
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_net::run;

/// Local input length. The half the op reads is whole tee blocks, so
/// an unfinished tee has observed exactly what the op consumed.
const LOCAL: usize = 4 * BLOCK;

/// Every PE's verdict on a reduce that reads half of its input.
fn half_read_reduce(p: usize, finish: bool) -> Vec<bool> {
    run(p, move |comm| {
        let rank = comm.rank() as u64;
        let input = (0..LOCAL as u64).map(|i| ((rank * 7 + i) % 37, i + 1));
        let checker = SumChecker::new(SumCheckConfig::new(4, 16, 9, HasherKind::Tab64), 3);
        let hasher = Hasher::new(HasherKind::Tab64, 1);
        let mut seen = checker.sketch();
        let mut tee = Tee::new(input, |block: &[(u64, u64)]| {
            seen.update_iter(block.iter().copied())
        });
        let out = reduce_by_key_chunked(comm, tee.by_ref().take(LOCAL / 2), &hasher, 64, |a, b| {
            a.wrapping_add(b)
        });
        if finish {
            tee.finish();
        } else {
            std::mem::forget(tee);
        }
        let mut asserted = checker.sketch();
        asserted.update_iter(out);
        checker.check_distributed_sketches(comm, seen, asserted)
    })
}

/// Every PE's verdict on a sort that reads half of its input.
fn half_read_sort(p: usize, finish: bool) -> Vec<bool> {
    run(p, move |comm| {
        let rank = comm.rank() as u64;
        let input =
            (0..LOCAL as u64).map(|i| (rank * 1_000_003 + i).wrapping_mul(0x9E37_79B9) % 5000);
        let perm = PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 3);
        let mut seen = perm.sketch();
        let mut tee = Tee::new(input, |block: &[u64]| {
            seen.update_iter(block.iter().copied())
        });
        let out = sort_chunked(comm, tee.by_ref().take(LOCAL / 2), 64);
        if finish {
            tee.finish();
        } else {
            std::mem::forget(tee);
        }
        let mut asserted = perm.sketch();
        asserted.update_iter(out.iter().copied());
        let is_perm = perm.check_distributed_sketches(comm, seen, asserted);
        check_globally_sorted(comm, &out) && is_perm
    })
}

#[test]
fn an_op_that_reads_half_its_input_is_rejected_after_finish() {
    for p in [1, 2, 3] {
        assert!(
            half_read_reduce(p, true).iter().all(|&ok| !ok),
            "reduce p={p}"
        );
        assert!(half_read_sort(p, true).iter().all(|&ok| !ok), "sort p={p}");
    }
}

#[test]
fn without_the_drain_the_half_read_would_pass() {
    for p in [1, 2, 3] {
        assert!(
            half_read_reduce(p, false).iter().all(|&ok| ok),
            "reduce p={p}"
        );
        assert!(half_read_sort(p, false).iter().all(|&ok| ok), "sort p={p}");
    }
}
