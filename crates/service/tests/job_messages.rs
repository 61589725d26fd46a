//! Every message and round of a whole job, epilogue included, in closed
//! form.
//!
//! A job is a fixed sequence of collective calls: its operation's, its
//! check's, and one final collective that settles the verdict and
//! carries each PE's share of the receipt totals (digest term, output
//! length, comm counters). Each call's sends per PE follow from its
//! communication pattern alone, and a PE's rounds are its sends, so the
//! job's messages are the sum over its calls and its rounds the largest
//! per-PE sum. With every PE's share below the chunk, a chunked job's
//! exchange sends one message per peer, like a one-shot job's, and the
//! forms hold for both modes.
//!
//! The receipt's `comm` stops before the final collective; the test
//! pins that too.

use ccheck_net::run_with_stats;
use ccheck_service::{execute_job, JobOp, JobSpec, Receipt, Verdict};

/// Each PE's sends in one collective call.
type Sends = Vec<u64>;

/// A binomial-tree reduce or gather to PE 0: every other PE sends its
/// subtree to its parent once.
fn up(p: usize) -> Sends {
    (0..p).map(|rank| u64::from(rank > 0)).collect()
}

/// A binomial-tree broadcast from `root`: in virtual ranks (`root` ↦ 0)
/// the parent of `w` is `w` without its lowest set bit, and each PE
/// sends once to each child.
fn down(p: usize, root: usize) -> Sends {
    (0..p)
        .map(|rank| {
            let vr = (rank + p - root) % p;
            (1..p).filter(|&w| w & (w - 1) == vr).count() as u64
        })
        .collect()
}

/// A Hillis–Steele scan: PE r sends to `r + 2ᵏ` for each `2ᵏ < p − r`.
fn scan(p: usize) -> Sends {
    (0..p)
        .map(|r| (0..usize::BITS).filter(|&k| r + (1 << k) < p).count() as u64)
        .collect()
}

/// An all-to-all with one message per peer.
fn exchange(p: usize) -> Sends {
    vec![p as u64 - 1; p]
}

/// Gather to PE 0, then broadcast: an allgather, and also a reduce plus
/// broadcast (an allreduce, or the final collective).
fn up_down(p: usize) -> Sends {
    add(&up(p), &down(p, 0))
}

/// Scan, then broadcast of the totals from the last PE: a prefix sum.
fn prefix_sums(p: usize) -> Sends {
    add(&scan(p), &down(p, p - 1))
}

fn add(a: &Sends, b: &Sends) -> Sends {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// The job's collective calls in order, the last one its final
/// collective.
fn calls(op: JobOp, p: usize) -> Vec<Sends> {
    match op {
        // The key exchange; the final collective.
        JobOp::Reduce => vec![exchange(p), up_down(p)],
        // The splitter samples' allgather, the exchange; the sortedness
        // allgather, the digest offset's prefix sum; the final collective.
        JobOp::Sort => vec![
            up_down(p),
            exchange(p),
            up_down(p),
            prefix_sums(p),
            up_down(p),
        ],
        // The op's two prefix sums, allgather and exchange; the check's
        // prefix sum over the three lengths; the final collective.
        JobOp::Zip => vec![
            prefix_sums(p),
            prefix_sums(p),
            up_down(p),
            exchange(p),
            prefix_sums(p),
            up_down(p),
        ],
    }
}

/// `(messages, rounds)` of a sequence of calls.
fn cost(calls: &[Sends], p: usize) -> (u64, u64) {
    let per_pe = calls.iter().fold(vec![0; p], |acc, call| add(&acc, call));
    (per_pe.iter().sum(), per_pe.into_iter().max().unwrap_or(0))
}

fn spec(op: JobOp, n: u64, chunk: u64) -> JobSpec {
    JobSpec {
        op,
        n,
        keys: 53,
        seed: 5,
        chunk,
        ..JobSpec::default()
    }
}

#[test]
fn every_message_and_round_of_a_job_is_its_closed_form() {
    for op in [JobOp::Reduce, JobOp::Sort, JobOp::Zip] {
        for (n, chunk) in [(100, 0), (1000, 0), (100, 512), (1000, 512)] {
            for p in [1, 2, 3, 5] {
                let case = format!("{} n={n} chunk={chunk} p={p}", op.name());
                let spec = spec(op, n, chunk);
                let (receipts, stats): (Vec<Receipt>, _) =
                    run_with_stats(p, |comm| execute_job(comm, 1, &spec));
                assert!(
                    receipts.iter().all(|r| r.verdict == Verdict::Verified),
                    "{case}"
                );
                let calls = calls(op, p);
                let job = (stats.total_messages(), stats.max_rounds());
                assert_eq!(job, cost(&calls, p), "{case}: whole job");
                // Reduce 2, sort 5, zip 6 calls: 4 / 10 / 12 messages at p = 2.
                let (count, msgs_at_2) = match op {
                    JobOp::Reduce => (2, 4),
                    JobOp::Sort => (5, 10),
                    JobOp::Zip => (6, 12),
                };
                assert_eq!(calls.len(), count, "{case}");
                if p == 2 {
                    assert_eq!(job.0, msgs_at_2, "{case}");
                }
                let before_final = cost(&calls[..calls.len() - 1], p);
                let comm = receipts[0].comm.expect("PE 0 carries the comm volumes");
                assert_eq!(
                    (comm.total_msgs, comm.max_rounds),
                    before_final,
                    "{case}: receipt"
                );
            }
        }
    }
}
