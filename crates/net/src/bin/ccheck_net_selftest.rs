//! `ccheck-net-selftest` — SPMD worker that exercises the full
//! collective surface over whatever transport it was launched on.
//!
//! Run under the launcher:
//!
//! ```text
//! ccheck-launch -p 4 -- ccheck-net-selftest
//! ```
//!
//! or standalone (falls back to an in-process 4-PE run). Exits 0 iff
//! every check passed on every rank; rank 0 prints the gathered
//! communication-summary table so the multi-process accounting path is
//! exercised too.

use std::process::ExitCode;

use ccheck_net::{bootstrap, Comm, Tag};

/// The workload: point-to-point, selective receive, and one of each
/// collective family. Returns the number of checks performed.
fn exercise(comm: &mut Comm) -> u64 {
    let p = comm.size();
    let r = comm.rank();
    let mut checks = 0u64;

    // Ring exchange (point-to-point, user tags).
    let next = (r + 1) % p;
    let prev = (r + p - 1) % p;
    comm.send(next, Tag::user(1), &(r as u64));
    assert_eq!(comm.recv::<u64>(prev, Tag::user(1)) as usize, prev);
    checks += 1;

    // Out-of-order selective receive from the previous neighbor.
    comm.send(next, Tag::user(3), &33u64);
    comm.send(next, Tag::user(2), &22u64);
    assert_eq!(comm.recv::<u64>(prev, Tag::user(2)), 22);
    assert_eq!(comm.recv::<u64>(prev, Tag::user(3)), 33);
    checks += 1;

    // Collectives.
    assert_eq!(
        comm.allreduce(r as u64 + 1, |a, b| a + b),
        (p as u64) * (p as u64 + 1) / 2
    );
    checks += 1;
    let everyone = comm.allgather(r as u64);
    assert_eq!(everyone, (0..p as u64).collect::<Vec<_>>());
    checks += 1;
    let (prefix, total) = comm.exclusive_prefix_sum(2);
    assert_eq!((prefix, total), (2 * r as u64, 2 * p as u64));
    checks += 1;
    let incoming = comm.all_to_all((0..p as u64).map(|j| 100 * r as u64 + j).collect());
    for (src, v) in incoming.iter().enumerate() {
        assert_eq!(*v, 100 * src as u64 + r as u64);
    }
    checks += 1;
    // Streamed all-to-all: PER_PEER items to every PE, at chunks below,
    // equal to and above that count. A batch shorter than the chunk ends
    // a peer's stream, so each peer costs ⌊PER_PEER / chunk⌋ + 1 messages.
    const PER_PEER: u64 = 4;
    for chunk in [1, 3, 4, 5, usize::MAX] {
        let msgs_before = comm.stats().snapshot().per_pe()[r].msgs_sent;
        let items = (0..p).flat_map(|j| (0..PER_PEER).map(move |i| (j, 100 * r as u64 + i)));
        let mut received: Vec<Vec<u64>> = vec![Vec::new(); p];
        comm.all_to_all_chunked(
            items,
            chunk,
            |&(dest, _)| dest,
            |src, batch| received[src].extend(batch.into_iter().map(|(_, v)| v)),
        );
        for (src, stream) in received.iter().enumerate() {
            let sent: Vec<u64> = (0..PER_PEER).map(|i| 100 * src as u64 + i).collect();
            assert_eq!(*stream, sent, "chunk {chunk}: stream from PE {src}");
        }
        let msgs = comm.stats().snapshot().per_pe()[r].msgs_sent - msgs_before;
        assert_eq!(
            msgs,
            (p as u64 - 1) * (PER_PEER / chunk as u64 + 1),
            "chunk {chunk}"
        );
        checks += 1;
    }
    assert!(comm.all_agree(true));
    comm.barrier();
    checks += 1;

    checks
}

fn main() -> ExitCode {
    let comm = match bootstrap::init_from_env() {
        Ok(comm) => comm,
        Err(e) => {
            eprintln!("ccheck-net-selftest: bootstrap failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match comm {
        Some(mut comm) => {
            // Test hook: simulate a collective deadlock after bootstrap
            // (rank 0 parks; every other rank blocks in the barrier) so
            // the launcher's --run-timeout path can be exercised for
            // real in crates/net/tests/multiprocess.rs.
            if std::env::var("CCHECK_SELFTEST_HANG").is_ok() {
                if comm.rank() == 0 {
                    loop {
                        std::thread::park();
                    }
                }
                comm.barrier();
            }
            // Multi-process mode: this process is one rank.
            let checks = exercise(&mut comm);
            if let Some(stats) = comm.gather_stats() {
                println!(
                    "ccheck-net-selftest: {} ranks x {checks} checks OK over TCP",
                    comm.size()
                );
                print!("{}", stats.render_table());
            }
            ExitCode::SUCCESS
        }
        None => {
            // Standalone: in-process world, all ranks as threads.
            let p = 4;
            let checks = ccheck_net::run(p, exercise);
            println!(
                "ccheck-net-selftest: {p} ranks x {} checks OK in-process",
                checks[0]
            );
            ExitCode::SUCCESS
        }
    }
}
