//! Run harness: spawn `p` PE threads wired together through a pluggable
//! transport backend (`std::sync::mpsc` channels by default, real TCP
//! loopback sockets on request).

use std::sync::Arc;

use crate::comm::Comm;
use crate::stats::{CommStats, StatsSnapshot};
use crate::transport::local::LocalTransport;
use crate::transport::tcp::TcpTransport;
use crate::transport::{Backend, Transport};

/// Builder for a `p`-PE communication domain.
///
/// Most users call [`run`]; `Router` is useful when the caller wants to
/// keep the [`CommStats`] handle to inspect traffic after the run, to
/// pick a non-default [`Backend`], or to drive PE threads with custom
/// scheduling.
pub struct Router {
    comms: Vec<Comm>,
    stats: Arc<CommStats>,
}

impl Router {
    /// Create communicators for `p` PEs on the default in-process
    /// backend, sharing one statistics registry.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn build(p: usize) -> Self {
        Self::build_on(Backend::Local, p)
    }

    /// Create communicators for `p` PEs on the chosen backend.
    ///
    /// # Panics
    /// Panics if `p == 0`, or if the TCP loopback backend cannot set up
    /// its socket mesh (no loopback networking available).
    pub fn build_on(backend: Backend, p: usize) -> Self {
        assert!(p > 0, "need at least one PE");
        let stats = CommStats::new(p);
        let transports: Vec<Box<dyn Transport>> = match backend {
            Backend::Local => LocalTransport::world(p)
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
            Backend::TcpLoopback => TcpTransport::loopback_world(p)
                .expect("failed to build TCP loopback world")
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
        };
        let comms = transports
            .into_iter()
            .map(|t| Comm::over(t, Arc::clone(&stats)))
            .collect();
        Self { comms, stats }
    }

    /// The statistics registry shared by all communicators.
    pub fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }

    /// Take ownership of the per-PE communicators (rank order).
    pub fn into_comms(self) -> Vec<Comm> {
        self.comms
    }

    /// Run `f` on every PE, each on its own OS thread, and collect the
    /// per-rank results in rank order.
    pub fn run<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let f = &f;
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(self.comms.len(), || None);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for mut comm in self.comms {
                handles.push(scope.spawn(move || {
                    let r = f(&mut comm);
                    (comm.rank(), r)
                }));
            }
            for handle in handles {
                let (rank, r) = handle.join().expect("PE thread panicked");
                results[rank] = Some(r);
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("all ranks ran"))
            .collect()
    }
}

/// Spawn `p` PE threads, run `f` on each, and return the per-rank results.
///
/// This is the main entry point of the crate:
///
/// ```
/// let sums = ccheck_net::run(3, |comm| {
///     comm.allreduce(1u64, |a, b| a + b)
/// });
/// assert_eq!(sums, vec![3, 3, 3]);
/// ```
pub fn run<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    Router::build(p).run(f)
}

/// Like [`run`], but on an explicit [`Backend`].
pub fn run_on<R, F>(backend: Backend, p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    Router::build_on(backend, p).run(f)
}

/// Like [`run`], but also returns the final communication statistics.
pub fn run_with_stats<R, F>(p: usize, f: F) -> (Vec<R>, StatsSnapshot)
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    run_with_stats_on(Backend::Local, p, f)
}

/// Like [`run_on`], but also returns the final communication statistics.
pub fn run_with_stats_on<R, F>(backend: Backend, p: usize, f: F) -> (Vec<R>, StatsSnapshot)
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    let router = Router::build_on(backend, p);
    let stats = router.stats();
    let results = router.run(f);
    (results, stats.snapshot())
}

/// Test support: run workloads on **every** in-process backend and insist
/// the observable behavior — results *and* exact per-PE communication
/// accounting — is identical.
///
/// This module is `pub` (not `#[cfg(test)]`) so integration tests across
/// the workspace can parameterize over backends; it is not intended for
/// production use.
pub mod testing {
    use super::*;

    /// All backends [`run_both`] exercises.
    pub const ALL_BACKENDS: [Backend; 2] = [Backend::Local, Backend::TcpLoopback];

    /// Run `f` on the local and the TCP loopback backend; assert the
    /// per-rank results agree, then return them.
    pub fn run_both<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let (results, _) = run_both_with_stats(p, f);
        results
    }

    /// Run `f` on both backends; assert that per-rank results *and*
    /// per-PE byte/message/round counters are identical, then return the
    /// (shared) outcome.
    ///
    /// The stats assertion is the contract the paper's measurements rely
    /// on: moving from simulated channels to real sockets must not change
    /// a single counted byte.
    pub fn run_both_with_stats<R, F>(p: usize, f: F) -> (Vec<R>, StatsSnapshot)
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let (local_results, local_stats) = run_with_stats_on(Backend::Local, p, &f);
        let (tcp_results, tcp_stats) = run_with_stats_on(Backend::TcpLoopback, p, &f);
        assert_eq!(
            local_results, tcp_results,
            "local and tcp backends disagree on results (p={p})"
        );
        assert_eq!(
            local_stats.per_pe(),
            tcp_stats.per_pe(),
            "local and tcp backends disagree on communication accounting (p={p})"
        );
        (local_results, local_stats)
    }

    /// Like [`run_with_stats_on`], but every PE *owns* its communicator
    /// (`Fn(Comm)`, not `Fn(&mut Comm)`) — required to move it into a
    /// [`crate::scope::CommMux`]. The returned snapshot is taken from the
    /// shared registry after all PEs finish, so it includes any scoped
    /// children created during the run.
    pub fn run_owned_with_stats_on<R, F>(
        backend: Backend,
        p: usize,
        f: F,
    ) -> (Vec<R>, StatsSnapshot)
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        let router = Router::build_on(backend, p);
        let stats = router.stats();
        let comms = router.into_comms();
        let f = &f;
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(p, || None);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for comm in comms {
                let rank = comm.rank();
                handles.push(scope.spawn(move || (rank, f(comm))));
            }
            for handle in handles {
                let (rank, r) = handle.join().expect("PE thread panicked");
                results[rank] = Some(r);
            }
        });
        let results = results
            .into_iter()
            .map(|r| r.expect("all ranks ran"))
            .collect();
        (results, stats.snapshot())
    }

    /// [`run_both_with_stats`] for owned-communicator workloads: runs on
    /// both backends and asserts results *and* full statistics snapshots
    /// (including per-scope breakdowns) are identical.
    pub fn run_both_owned_with_stats<R, F>(p: usize, f: F) -> (Vec<R>, StatsSnapshot)
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(Comm) -> R + Sync,
    {
        let (local_results, local_stats) = run_owned_with_stats_on(Backend::Local, p, &f);
        let (tcp_results, tcp_stats) = run_owned_with_stats_on(Backend::TcpLoopback, p, &f);
        assert_eq!(
            local_results, tcp_results,
            "local and tcp backends disagree on results (p={p})"
        );
        assert_eq!(
            local_stats, tcp_stats,
            "local and tcp backends disagree on communication accounting (p={p})"
        );
        (local_results, local_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{run_both, run_both_with_stats};
    use super::*;
    use crate::comm::Tag;

    #[test]
    fn results_in_rank_order() {
        let out = run_both(5, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_pe_runs() {
        let out = run_both(1, |comm| comm.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        let _ = Router::build(0);
    }

    #[test]
    fn run_with_stats_reports_traffic() {
        let (_, snap) = run_both_with_stats(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag::user(0), &1u8);
            } else {
                let _: u8 = comm.recv(0, Tag::user(0));
            }
        });
        assert_eq!(snap.total_bytes(), 1);
        assert_eq!(snap.total_messages(), 1);
    }

    #[test]
    fn stats_handle_outlives_run() {
        for backend in testing::ALL_BACKENDS {
            let router = Router::build_on(backend, 2);
            let stats = router.stats();
            router.run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, Tag::user(0), &7u64);
                } else {
                    let _: u64 = comm.recv(0, Tag::user(0));
                }
            });
            assert_eq!(stats.snapshot().total_bytes(), 8);
        }
    }
}
