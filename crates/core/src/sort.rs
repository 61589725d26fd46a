//! Sort checking (§5, Theorem 7) and the derived Merge checker
//! (§6.5.2, Corollary 13).
//!
//! A sequence is a sorted version of another iff it is (a) a permutation
//! of it, (b) locally sorted on every PE, and (c) ordered across PE
//! boundaries. The permutation part is probabilistic (Theorem 6); parts
//! (b) and (c) are deterministic.

use ccheck_net::{Comm, Wire};

use crate::permutation::PermChecker;

/// What one PE contributes to the boundary exchange: its share's ends,
/// or the fact that the share already fails on its own. Sending the
/// local verdict *inside* the exchange is what saves the separate
/// `all_agree` round.
///
/// On the wire it is `Option<(u64, u64)>` with a third tag: `0` empty,
/// `1` + `min` + `max`, `2` failed — the local verdict costs no byte
/// of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShareSummary {
    /// No elements here; the neighbours are compared with each other.
    Empty,
    /// A share that passes its local test (ascending; for the range
    /// redistribution checker, every key in this PE's range) and spans
    /// these values.
    Span { min: u64, max: u64 },
    /// The share fails its local test.
    Failed,
}

impl ShareSummary {
    /// Summary of a share taken to be ascending: only its ends are read.
    fn ends(data: &[u64]) -> Self {
        match (data.first(), data.last()) {
            (Some(&min), Some(&max)) => ShareSummary::Span { min, max },
            _ => ShareSummary::Empty,
        }
    }

    /// Summary of a share after testing that it is ascending.
    fn of(data: &[u64]) -> Self {
        if data.windows(2).all(|w| w[0] <= w[1]) {
            Self::ends(data)
        } else {
            ShareSummary::Failed
        }
    }
}

impl Wire for ShareSummary {
    fn write(&self, buf: &mut Vec<u8>) {
        match *self {
            ShareSummary::Empty => buf.push(0),
            ShareSummary::Span { min, max } => {
                buf.push(1);
                (min, max).write(buf);
            }
            ShareSummary::Failed => buf.push(2),
        }
    }
    fn read(input: &mut &[u8]) -> Option<Self> {
        match u8::read(input)? {
            0 => Some(ShareSummary::Empty),
            1 => {
                let (min, max) = Wire::read(input)?;
                Some(ShareSummary::Span { min, max })
            }
            2 => Some(ShareSummary::Failed),
            _ => None,
        }
    }
    fn wire_size(&self) -> usize {
        match self {
            ShareSummary::Span { .. } => 17,
            ShareSummary::Empty | ShareSummary::Failed => 1,
        }
    }
}

/// The one collective of every sortedness check: gather all PEs'
/// summaries and accept iff no share failed locally and every share's
/// minimum is at least the maximum of the nearest non-empty share before
/// it. Every PE returns the same verdict.
///
/// The paper exchanges boundaries with direct neighbors (O(1) volume);
/// we gather the per-PE summaries instead — **one allgather** of at most
/// 17 bytes per PE (O(p) volume, still independent of n and of the
/// checker's `iterations`) — because it handles empty PEs without a
/// chain of forwarding rounds.
pub(crate) fn summaries_ordered(comm: &mut Comm, mine: ShareSummary) -> bool {
    let mut prev_max: Option<u64> = None;
    for summary in comm.allgather(mine) {
        match summary {
            ShareSummary::Empty => {}
            ShareSummary::Span { min, max } => {
                if prev_max.is_some_and(|pm| min < pm) {
                    return false;
                }
                prev_max = Some(max);
            }
            ShareSummary::Failed => return false,
        }
    }
    true
}

/// Deterministic cross-PE boundary check: every PE's maximum must not
/// exceed any later PE's minimum. Only the ends of `data` are read — the
/// caller vouches for (or separately agrees on) local sortedness; use
/// [`check_globally_sorted`] to have both in the one exchange. Costs one
/// allgather of a 1- or 17-byte summary per PE. Every PE returns the
/// same verdict.
pub fn check_boundaries(comm: &mut Comm, data: &[u64]) -> bool {
    summaries_ordered(comm, ShareSummary::ends(data))
}

/// Parts (b) and (c) of the sort check in one allgather: every PE's
/// share is ascending and the shares are ordered across PE boundaries.
/// Every PE returns the same verdict.
pub fn check_globally_sorted(comm: &mut Comm, data: &[u64]) -> bool {
    summaries_ordered(comm, ShareSummary::of(data))
}

/// Distributed sort check (Theorem 7): `output` must be a globally
/// sorted permutation of `input`. Every PE returns the same verdict.
/// Two collectives: the permutation checker's verdict and the
/// sortedness allgather.
///
/// One-sided error: correct results are always accepted; an unsorted or
/// non-permutation output is accepted with probability at most the
/// permutation checker's failure bound.
pub fn check_sorted(comm: &mut Comm, input: &[u64], output: &[u64], perm: &PermChecker) -> bool {
    let is_perm = perm.check(comm, input, output);
    check_globally_sorted(comm, output) && is_perm
}

/// Merge checker (Corollary 13): `output` must be a globally sorted
/// permutation of the concatenation of `s1` and `s2`.
pub fn check_merge(
    comm: &mut Comm,
    s1: &[u64],
    s2: &[u64],
    output: &[u64],
    perm: &PermChecker,
) -> bool {
    let is_perm = perm.check_concat(comm, &[s1, s2], output);
    check_globally_sorted(comm, output) && is_perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::PermCheckConfig;
    use ccheck_hashing::HasherKind;
    use ccheck_net::run;
    use ccheck_net::wire::{decode, encode};
    use proptest::prelude::*;

    fn perm_cfg() -> PermCheckConfig {
        PermCheckConfig::hash_sum(HasherKind::Tab64, 32)
    }

    #[test]
    fn accepts_correctly_sorted() {
        let verdicts = run(4, |comm| {
            let rank = comm.rank() as u64;
            // Input: interleaved; output: contiguous sorted blocks.
            let input: Vec<u64> = (0..250u64).map(|i| i * 4 + rank).collect();
            let output: Vec<u64> = (rank * 250..(rank + 1) * 250).collect();
            let perm = PermChecker::new(perm_cfg(), 7);
            check_sorted(comm, &input, &output, &perm)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn rejects_locally_unsorted() {
        let verdicts = run(2, |comm| {
            let rank = comm.rank() as u64;
            let input: Vec<u64> = (rank * 100..(rank + 1) * 100).collect();
            let mut output = input.clone();
            if rank == 1 {
                output.swap(10, 20);
            }
            let perm = PermChecker::new(perm_cfg(), 7);
            check_sorted(comm, &input, &output, &perm)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_boundary_violation() {
        let verdicts = run(2, |comm| {
            let rank = comm.rank() as u64;
            // Each PE locally sorted, but PE 0 holds larger values.
            let input: Vec<u64> = (rank * 100..(rank + 1) * 100).collect();
            let output: Vec<u64> = ((1 - rank) * 100..(2 - rank) * 100).collect();
            let perm = PermChecker::new(perm_cfg(), 7);
            check_sorted(comm, &input, &output, &perm)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_sorted_but_not_permutation() {
        let verdicts = run(2, |comm| {
            let rank = comm.rank() as u64;
            let input: Vec<u64> = (rank * 100..(rank + 1) * 100).collect();
            // Sorted output with one value replaced.
            let mut output = input.clone();
            if rank == 0 {
                output[50] = 51; // duplicate instead of 50 — still sorted
            }
            let perm = PermChecker::new(perm_cfg(), 7);
            check_sorted(comm, &input, &output, &perm)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn accepts_with_empty_pes() {
        let verdicts = run(4, |comm| {
            let rank = comm.rank() as u64;
            let input: Vec<u64> = if rank == 0 {
                (0..100).collect()
            } else {
                vec![]
            };
            // All data ends up on PE 3 after "sorting".
            let output: Vec<u64> = if rank == 3 {
                (0..100).collect()
            } else {
                vec![]
            };
            let perm = PermChecker::new(perm_cfg(), 7);
            check_sorted(comm, &input, &output, &perm)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn boundary_check_with_interleaved_empties() {
        let verdicts = run(5, |comm| {
            let rank = comm.rank();
            // PEs 1 and 3 empty; 0 < 2 < 4 ranges ascending → OK.
            let data: Vec<u64> = match rank {
                0 => (0..10).collect(),
                2 => (10..20).collect(),
                4 => (20..30).collect(),
                _ => vec![],
            };
            check_boundaries(comm, &data)
        });
        assert!(verdicts.iter().all(|&v| v));

        let verdicts = run(5, |comm| {
            let rank = comm.rank();
            // Violation between PE 0 and PE 4 with empties in between.
            let data: Vec<u64> = match rank {
                0 => (100..110).collect(),
                4 => (0..10).collect(),
                _ => vec![],
            };
            check_boundaries(comm, &data)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn boundary_equal_values_allowed() {
        let verdicts = run(3, |comm| {
            // All PEs hold the same value — ties across boundaries are
            // legal in a sorted sequence.
            check_boundaries(comm, &[7u64, 7, 7])
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    /// One world holding every state of the summary: a sorted share, an
    /// empty one, a share of equal values tying both neighbours, and a
    /// last share that is ascending or — with ends that still look
    /// ordered — not.
    fn four_state_world(comm: &Comm, last_sorted: bool) -> Vec<u64> {
        match comm.rank() {
            0 => vec![1, 5, 9],
            1 => vec![],
            2 => vec![9, 9],
            _ if last_sorted => vec![9, 10, 11, 12],
            _ => vec![9, 11, 10, 12],
        }
    }

    #[test]
    fn one_exchange_carries_empty_sorted_and_unsorted_shares() {
        let verdicts = run(4, |comm| {
            let data = four_state_world(comm, true);
            (
                check_globally_sorted(comm, &data),
                check_boundaries(comm, &data),
            )
        });
        assert!(verdicts.iter().all(|&v| v == (true, true)), "{verdicts:?}");

        // Only the failed state can reject here: the unsorted share's
        // ends are in order, which is all `check_boundaries` reads.
        let verdicts = run(4, |comm| {
            let data = four_state_world(comm, false);
            (
                check_globally_sorted(comm, &data),
                check_boundaries(comm, &data),
            )
        });
        assert!(verdicts.iter().all(|&v| v == (false, true)), "{verdicts:?}");
    }

    #[test]
    fn sortedness_check_is_one_allgather_of_the_old_boundary_bytes() {
        use ccheck_net::run_with_stats;
        let (_, one) = run_with_stats(4, |comm| {
            let data = four_state_world(comm, true);
            check_globally_sorted(comm, &data)
        });
        let (_, gather) = run_with_stats(4, |comm| {
            let data = four_state_world(comm, true);
            comm.allgather(data.first().copied().zip(data.last().copied()))
        });
        assert_eq!(one.total_bytes(), gather.total_bytes());
        assert_eq!(one.total_messages(), gather.total_messages());
        assert_eq!(one.max_rounds(), gather.max_rounds());
    }

    #[test]
    fn summary_states() {
        assert_eq!(ShareSummary::of(&[]), ShareSummary::Empty);
        assert_eq!(
            ShareSummary::of(&[4]),
            ShareSummary::Span { min: 4, max: 4 }
        );
        assert_eq!(
            ShareSummary::of(&[4, 4, 6]),
            ShareSummary::Span { min: 4, max: 6 }
        );
        assert_eq!(ShareSummary::of(&[4, 3, 6]), ShareSummary::Failed);
        assert_eq!(
            ShareSummary::ends(&[4, 3, 6]),
            ShareSummary::Span { min: 4, max: 6 }
        );
        assert_eq!(decode::<ShareSummary>(&[3]), None, "unknown tag");
    }

    proptest! {
        /// The summary round-trips, a clean one is byte for byte the
        /// `Option<(u64, u64)>` it replaced, and every proper prefix of
        /// an encoding is malformed.
        #[test]
        fn prop_summary_wire_roundtrip(state in 0u8..3, min: u64, max: u64) {
            let (summary, old) = match state {
                0 => (ShareSummary::Empty, Some(None)),
                1 => (ShareSummary::Span { min, max }, Some(Some((min, max)))),
                _ => (ShareSummary::Failed, None),
            };
            let buf = encode(&summary);
            prop_assert_eq!(buf.len(), summary.wire_size());
            prop_assert_eq!(decode::<ShareSummary>(&buf), Some(summary));
            if let Some(old) = old {
                prop_assert_eq!(&buf, &encode::<Option<(u64, u64)>>(&old));
            }
            for cut in 0..buf.len() {
                prop_assert_eq!(decode::<ShareSummary>(&buf[..cut]), None);
            }
        }
    }

    #[test]
    fn merge_checker_accepts_and_rejects() {
        for corrupt in [false, true] {
            let verdicts = run(2, |comm| {
                let rank = comm.rank() as u64;
                // s1 = evens, s2 = odds, both globally sorted.
                let s1: Vec<u64> = (0..100u64).map(|i| 2 * (rank * 100 + i)).collect();
                let s2: Vec<u64> = (0..100u64).map(|i| 2 * (rank * 100 + i) + 1).collect();
                // Correct merge: contiguous ranges.
                let mut output: Vec<u64> = (rank * 200..(rank + 1) * 200).collect();
                if corrupt && rank == 1 {
                    output[5] += 1; // breaks the permutation property
                }
                let perm = PermChecker::new(perm_cfg(), 3);
                check_merge(comm, &s1, &s2, &output, &perm)
            });
            assert!(verdicts.iter().all(|&v| v != corrupt), "corrupt={corrupt}");
        }
    }
}
