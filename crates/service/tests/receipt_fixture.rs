//! Receipt fixture: what a job's receipt says, pinned in
//! `tests/fixtures/receipts.txt`.
//!
//! Every op runs one-shot (`chunk = 0`) and chunked (`chunk = 512`),
//! clean and with one injected fault, on 1, 2, 3 and 5 PEs. Each line
//! pins the verdict, the digest and the output length; one-shot lines
//! also pin the job's communication (`total_bytes`, `total_msgs`,
//! `max_rounds`), which is the same whether the op runs as its own
//! one-shot code or as its chunked body at an unbounded chunk. Chunked
//! lines pin no message counts: how a streamed exchange ends its
//! per-peer streams is the exchange's business, not the receipt's.
//!
//! Independently of the fixture, the test asserts that every job whose
//! result is correct (verified, or recomputed by the fallback) has the
//! same `(digest, output_elems)` at every PE count: the data is a pure
//! function of the spec, and so is the result.
//!
//! To regenerate after a *deliberate* receipt change:
//! `cargo test -p ccheck-service --test receipt_fixture -- --ignored`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ccheck_service::{execute_job, FaultSpec, JobOp, JobSpec, Receipt, Verdict};

const FIXTURE: &str = include_str!("fixtures/receipts.txt");
const FIXTURE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/receipts.txt");

const PES: [usize; 4] = [1, 2, 3, 5];
const CHUNKS: [u64; 2] = [0, 512];

/// One fault per op that every mode has something to catch in.
fn fault_of(op: JobOp) -> &'static str {
    match op {
        JobOp::Reduce => "bitflip",
        JobOp::Sort => "dupneighbor",
        JobOp::Zip => "swappairs",
    }
}

fn spec(op: JobOp, chunk: u64, fault: Option<&str>) -> JobSpec {
    JobSpec {
        op,
        n: 3_000,
        keys: 53,
        seed: 5,
        chunk,
        fault: fault.map(|kind| FaultSpec {
            kind: kind.into(),
            seed: 3,
        }),
        ..JobSpec::default()
    }
}

/// PE 0's receipt (the one carrying the comm volumes), after checking
/// that every PE agrees on verdict, digest and output length.
fn run_job(p: usize, spec: &JobSpec) -> Receipt {
    let receipts = ccheck_net::run(p, |comm| execute_job(comm, 1, spec));
    for r in &receipts {
        assert_eq!(
            (&r.verdict, r.digest, r.output_elems),
            (
                &receipts[0].verdict,
                receipts[0].digest,
                receipts[0].output_elems
            ),
            "PEs disagree: {spec:?} p={p}"
        );
    }
    receipts.into_iter().next().expect("p >= 1")
}

fn compute_fixture() -> String {
    let mut out = String::from(
        "# Receipt fixture — see crates/service/tests/receipt_fixture.rs. Do not edit by hand.\n\
         # op chunk fault p: verdict digest output_elems [total_bytes total_msgs max_rounds]\n",
    );
    // (op, chunk, fault) -> (digest, output_elems) of each correct result.
    let mut correct: BTreeMap<String, Vec<(usize, u64, u64)>> = BTreeMap::new();
    for op in [JobOp::Reduce, JobOp::Sort, JobOp::Zip] {
        for chunk in CHUNKS {
            for fault in [None, Some(fault_of(op))] {
                let case = format!("{} {chunk} {}", op.name(), fault.unwrap_or("clean"));
                for p in PES {
                    let r = run_job(p, &spec(op, chunk, fault));
                    let _ = write!(
                        out,
                        "{case} {p}: {} {:#018x} {}",
                        r.verdict.name(),
                        r.digest,
                        r.output_elems
                    );
                    if chunk == 0 {
                        let c = r.comm.expect("PE 0 carries the comm volumes");
                        let _ = write!(out, " {} {} {}", c.total_bytes, c.total_msgs, c.max_rounds);
                    }
                    out.push('\n');
                    if r.verdict != Verdict::Rejected {
                        correct.entry(case.clone()).or_default().push((
                            p,
                            r.digest,
                            r.output_elems,
                        ));
                    }
                }
            }
        }
    }
    for (case, results) in correct {
        let (_, digest, elems) = results[0];
        for (p, d, e) in results {
            assert_eq!((d, e), (digest, elems), "{case}: p={p} differs from p=1");
        }
    }
    out
}

#[test]
fn receipts_match_the_checked_in_fixture() {
    let computed = compute_fixture();
    for (n, (got, want)) in computed.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(got, want, "receipt changed at fixture line {}", n + 1);
    }
    assert_eq!(
        computed.lines().count(),
        FIXTURE.lines().count(),
        "fixture line count"
    );
}

#[test]
#[ignore = "regenerates tests/fixtures/receipts.txt"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE_PATH, compute_fixture()).expect("fixture path is writable");
}
