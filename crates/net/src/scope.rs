//! Scoped communicators: multiplexing independent tag namespaces over
//! one shared transport.
//!
//! The `ccheck-service` runtime executes many independent *checking
//! jobs* concurrently over a single launched world. Each job is
//! ordinary SPMD code full of collectives; if two jobs shared one
//! [`Comm`], their collective tags (sequence-numbered per communicator)
//! would collide and their traffic would cross-talk. This module gives
//! every job its own fully functional `Comm` — same collectives, same
//! exact [`crate::CommStats`] accounting — in a private **tag
//! namespace**, all sharing the one physical transport:
//!
//! ```text
//!   Comm ──into_mux()──▶ CommMux
//!                          ├─ control()   → Comm (scope 0, root stats)
//!                          ├─ scoped(1,…) → Comm (scope 1, child stats)
//!                          └─ scoped(2,…) → Comm (scope 2, child stats)
//! ```
//!
//! Mechanically: the transport's sending side is detached
//! ([`crate::transport::Transport::split_sender`]) and shared behind a
//! mutex, while a **pump thread** owns the receiving side and routes
//! every arriving packet to its scope's queue by the top
//! `64 − `[`SCOPE_SHIFT`] bits of the tag (packets for scopes that have
//! not registered yet are stashed and replayed on registration, so
//! ranks may start a job's traffic slightly ahead of each other).
//! Scoped sends shift their tags into the namespace; receives see them
//! stripped back, so a scoped `Comm` is indistinguishable from a plain
//! one to the code running over it — and because [`CommStats`] counts
//! payload bytes only, a job's measured communication volume is
//! byte-for-byte identical to running it alone on a dedicated world.
//!
//! Per-scope statistics go to labeled children of the root registry
//! ([`CommStats::scoped`]), so the root snapshot reports the whole
//! world's totals *and* a per-job breakdown.
//!
//! ## Teardown
//!
//! Dropping a scoped `Comm` merely deregisters its queue. The mux
//! itself tears down symmetrically on every PE: [`CommMux::shutdown`]
//! half-closes the shared sender, and the pump exits once every *peer*
//! has done the same (their end-of-stream drains behind all in-flight
//! data, so nothing is lost). Callers should only shut down after the
//! SPMD program is globally quiescent — the service runtime runs a
//! control-scope barrier first.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::comm::{Comm, Tag};
use crate::error::{NetError, Result};
use crate::stats::CommStats;
use crate::transport::{Packet, Transport, TransportSender};

/// Number of low tag bits available *inside* a scope; the remaining
/// high bits carry the scope id. [`Tag::COLLECTIVE_BASE`] (2⁴⁸) leaves
/// collective sequence numbers far below 2⁵⁶, so both user and
/// collective tags fit.
pub const SCOPE_SHIFT: u32 = 56;

/// Largest scope id (scope 0 is the control scope of
/// [`CommMux::control`]).
pub const MAX_SCOPE: u64 = (1 << (64 - SCOPE_SHIFT)) - 1;

const TAG_MASK: u64 = (1 << SCOPE_SHIFT) - 1;

/// What the pump delivers into a scope's queue.
enum ScopeEvent {
    /// A packet addressed to this scope, tag already stripped back to
    /// the in-scope value.
    Packet(Packet),
    /// A peer closed its sending side; delivered once per peer per
    /// registration.
    Closed(usize),
    /// The underlying transport reported an unrecoverable fault.
    Fatal(NetError),
}

/// Routing state shared between the pump thread and scope handles.
struct MuxState {
    /// Scope ids with a live communicator (kept separately from
    /// `scopes`, whose queue senders the pump drops on teardown).
    live: std::collections::HashSet<u64>,
    /// Live scope queues by scope id.
    scopes: HashMap<u64, Sender<ScopeEvent>>,
    /// Packets that arrived for scopes not (or no longer) registered;
    /// replayed in arrival order when the scope (re)registers.
    stash: HashMap<u64, Vec<Packet>>,
    /// Peers whose sending side has closed.
    closed: Vec<bool>,
    /// First fatal transport error, if any (relayed to every scope).
    fatal: Option<NetError>,
    /// The pump has exited: no further packet can ever arrive.
    torn_down: bool,
}

struct MuxShared {
    rank: usize,
    size: usize,
    sender: Mutex<Box<dyn TransportSender>>,
    state: Mutex<MuxState>,
}

impl MuxShared {
    /// Poison-tolerant state lock: a scope thread that panicked (e.g. a
    /// rejected tag) must not take the pump or the teardown path down
    /// with it — the counters and routing tables stay usable.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, MuxState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_sender(&self) -> std::sync::MutexGuard<'_, Box<dyn TransportSender>> {
        match self.sender.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Multiplexer handing out scoped [`Comm`]s over one shared transport.
/// Obtained from [`Comm::into_mux`]; see the module docs.
pub struct CommMux {
    shared: Arc<MuxShared>,
    stats: Arc<CommStats>,
    pump: Option<JoinHandle<()>>,
    /// Carry-over for the control communicator (pending stash and
    /// collective sequence of the wrapped communicator); consumed by the
    /// first [`CommMux::control`] call.
    control_state: Mutex<Option<(VecDeque<Packet>, u64)>>,
}

impl CommMux {
    /// Wrap a communicator. All PEs of an SPMD program must do this at
    /// the same point of their collective sequence.
    pub fn new(comm: Comm) -> Self {
        let (mut transport, stats, pending, coll_seq) = comm.into_parts();
        let sender = transport
            .split_sender()
            .expect("transport's send side must be attachable");
        let shared = Arc::new(MuxShared {
            rank: transport.rank(),
            size: transport.size(),
            sender: Mutex::new(sender),
            state: Mutex::new(MuxState {
                live: std::collections::HashSet::new(),
                scopes: HashMap::new(),
                stash: HashMap::new(),
                closed: vec![false; transport.size()],
                fatal: None,
                torn_down: false,
            }),
        });
        let pump_shared = Arc::clone(&shared);
        let pump = std::thread::Builder::new()
            .name(format!("ccheck-net-mux-{}", shared.rank))
            .spawn(move || pump(transport, pump_shared))
            .expect("spawn mux pump thread");
        Self {
            shared,
            stats,
            pump: Some(pump),
            control_state: Mutex::new(Some((pending, coll_seq))),
        }
    }

    /// Rank of this PE.
    pub fn rank(&self) -> usize {
        self.shared.rank
    }

    /// Number of PEs in the world.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// The root statistics registry (the wrapped communicator's); its
    /// snapshot aggregates every scope's child registry.
    pub fn stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }

    /// The **control communicator** (scope 0): records into the root
    /// statistics registry and continues the wrapped communicator's
    /// collective sequence and pending stash, so pre-mux traffic (user
    /// tags and in-flight stragglers) flows into it seamlessly.
    ///
    /// # Panics
    /// Panics if called more than once.
    pub fn control(&self) -> Comm {
        let (pending, coll_seq) = self
            .control_state
            .lock()
            .expect("control state poisoned")
            .take()
            .expect("CommMux::control may only be called once");
        let rx = self.register(0);
        Comm::over_resumed(
            Box::new(ScopedTransport {
                shared: Arc::clone(&self.shared),
                scope: 0,
                rx,
                closed: vec![false; self.shared.size],
            }),
            Arc::clone(&self.stats),
            pending,
            coll_seq,
        )
    }

    /// A fresh communicator in tag namespace `scope` (1..=[`MAX_SCOPE`]),
    /// recording into the child statistics registry labeled `label`.
    /// Its collective sequence starts at zero, so all PEs creating the
    /// same scope run the same tag stream — the SPMD contract, one level
    /// up.
    ///
    /// A scope id may be reused once its previous communicator has been
    /// dropped **and** the previous job is globally complete; packets
    /// arriving for an unregistered scope are stashed and replayed on
    /// registration, so admission skew between ranks is safe. The service
    /// daemon needs no barrier for this: each slot cycles through several
    /// scope ids, so a slot's next job never shares a scope with the job a
    /// slower PE may still be finishing, and an id comes round again only
    /// after every PE has left the job that last used it.
    ///
    /// # Panics
    /// Panics if `scope` is 0, exceeds [`MAX_SCOPE`], or is currently
    /// registered.
    pub fn scoped(&self, scope: u64, label: &str) -> Comm {
        assert!(
            (1..=MAX_SCOPE).contains(&scope),
            "scope id {scope} out of range 1..={MAX_SCOPE} (0 is the control scope)"
        );
        let rx = self.register(scope);
        Comm::over(
            Box::new(ScopedTransport {
                shared: Arc::clone(&self.shared),
                scope,
                rx,
                closed: vec![false; self.shared.size],
            }),
            self.stats.scoped(label),
        )
    }

    fn register(&self, scope: u64) -> Receiver<ScopeEvent> {
        let (tx, rx) = channel();
        let mut st = self.shared.lock_state();
        assert!(
            st.live.insert(scope),
            "scope {scope} already has a live communicator"
        );
        // Replay what the pump saw before this registration: stashed
        // packets first (they always precede a peer's close), then any
        // closures and a fatal fault.
        if let Some(packets) = st.stash.remove(&scope) {
            for pkt in packets {
                let _ = tx.send(ScopeEvent::Packet(pkt));
            }
        }
        for (peer, &closed) in st.closed.iter().enumerate() {
            if closed {
                let _ = tx.send(ScopeEvent::Closed(peer));
            }
        }
        if let Some(fatal) = &st.fatal {
            let _ = tx.send(ScopeEvent::Fatal(fatal.clone()));
        }
        if !st.torn_down {
            st.scopes.insert(scope, tx);
        }
        rx
    }

    /// Half-close this PE's sending side and wait for the pump to drain
    /// every peer's stream to *its* end-of-stream. Call only once the
    /// SPMD program is globally quiescent (all scopes done everywhere —
    /// run a control-scope barrier first); the service runtime does
    /// exactly that. Dropping the mux without calling this performs the
    /// same teardown.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.shared.lock_sender().close();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

impl Drop for CommMux {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Unwinding: close our send side so peers can still tear
            // down, but don't block on the pump — it only exits once
            // every *peer* closes, which a panicked world may never
            // reach. A detached pump is harmless; a join here would
            // turn one PE's panic into a whole-world hang.
            self.shared.lock_sender().close();
            if let Some(pump) = self.pump.take() {
                drop(pump);
            }
            return;
        }
        self.finish();
    }
}

/// The pump: sole owner of the transport's receiving side. Routes
/// packets by scope, relays per-peer closures to every scope, and exits
/// when the transport reports full teardown or a fatal fault.
fn pump(mut transport: Box<dyn Transport>, shared: Arc<MuxShared>) {
    loop {
        match transport.recv() {
            Ok(pkt) => {
                let scope = pkt.tag.0 >> SCOPE_SHIFT;
                let pkt = Packet {
                    src: pkt.src,
                    tag: Tag(pkt.tag.0 & TAG_MASK),
                    payload: pkt.payload,
                };
                let mut st = shared.lock_state();
                match st.scopes.get(&scope) {
                    Some(tx) => {
                        if tx.send(ScopeEvent::Packet(pkt)).is_err() {
                            // Receiver vanished without deregistering
                            // (scope thread panicked): stop routing to it.
                            st.scopes.remove(&scope);
                        }
                    }
                    None => st.stash.entry(scope).or_default().push(pkt),
                }
            }
            Err(NetError::Disconnected { peer }) => {
                let mut st = shared.lock_state();
                st.closed[peer] = true;
                for tx in st.scopes.values() {
                    let _ = tx.send(ScopeEvent::Closed(peer));
                }
            }
            Err(NetError::TornDown) => {
                let mut st = shared.lock_state();
                st.torn_down = true;
                // Dropping the queue senders lets blocked scope receives
                // observe the teardown.
                st.scopes.clear();
                return;
            }
            Err(err) => {
                let mut st = shared.lock_state();
                for tx in st.scopes.values() {
                    let _ = tx.send(ScopeEvent::Fatal(err.clone()));
                }
                st.fatal = Some(err);
                st.torn_down = true;
                st.scopes.clear();
                return;
            }
        }
    }
}

/// One scope's view of the shared transport. Sends shift tags into the
/// scope's namespace (under the shared sender mutex); receives drain the
/// scope's queue, fed by the pump with tags already stripped.
struct ScopedTransport {
    shared: Arc<MuxShared>,
    scope: u64,
    rx: Receiver<ScopeEvent>,
    closed: Vec<bool>,
}

impl Transport for ScopedTransport {
    fn rank(&self) -> usize {
        self.shared.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn send(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<()> {
        assert!(
            tag.0 <= TAG_MASK,
            "tag {:#x} exceeds the scoped tag space (< 2^{SCOPE_SHIFT})",
            tag.0
        );
        let scoped = Tag((self.scope << SCOPE_SHIFT) | tag.0);
        self.shared.lock_sender().send(dest, scoped, payload)
    }

    fn recv(&mut self) -> Result<Packet> {
        match self.rx.recv() {
            Ok(ScopeEvent::Packet(pkt)) => Ok(pkt),
            Ok(ScopeEvent::Closed(peer)) => {
                self.closed[peer] = true;
                Err(NetError::Disconnected { peer })
            }
            Ok(ScopeEvent::Fatal(err)) => Err(err),
            Err(_) => Err(NetError::TornDown),
        }
    }

    fn is_closed(&self, peer: usize) -> bool {
        // Only from local bookkeeping: a peer counts as closed once this
        // scope has *drained* its closure marker, which the pump enqueues
        // behind all of the peer's packets — so "closed" really means "no
        // further packet from it can reach this scope".
        self.closed[peer]
    }

    fn shutdown(&mut self) -> Result<()> {
        // A scope's teardown is its deregistration (see Drop); the
        // physical transport outlives it.
        Ok(())
    }

    fn split_sender(&mut self) -> Result<Box<dyn TransportSender>> {
        Err(NetError::bootstrap(
            "scoped transports cannot detach their sender (already shared)",
        ))
    }
}

impl Drop for ScopedTransport {
    fn drop(&mut self) {
        let mut st = self.shared.lock_state();
        st.live.remove(&self.scope);
        st.scopes.remove(&self.scope);
        // Anything still queued (stray packets of a crashed scope) is
        // re-stashed so diagnostics or a re-registration can see it.
        let stash = st.stash.entry(self.scope).or_default();
        for event in self.rx.try_iter() {
            if let ScopeEvent::Packet(pkt) = event {
                stash.push(pkt);
            }
        }
        if stash.is_empty() {
            st.stash.remove(&self.scope);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owned-communicator run on both backends (scoped tests must move
    /// the `Comm` into a mux), results only — the shared harness in
    /// [`crate::testing`] also asserts snapshot equality across
    /// backends, per-scope breakdowns included.
    fn run_owned_both<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(Comm) -> R + Sync,
    {
        crate::testing::run_both_owned_with_stats(p, f).0
    }

    #[test]
    fn control_comm_continues_seamlessly() {
        let out = run_owned_both(4, |mut comm| {
            // Pre-mux traffic: a collective and an in-flight user message.
            let pre = comm.allreduce(1u64, |a, b| a + b);
            if comm.rank() == 0 {
                comm.send(2, Tag::user(9), &77u64);
            }
            let mux = comm.into_mux();
            let mut ctl = mux.control();
            // Post-mux: the straggler arrives through the control scope,
            // and collectives keep working (fresh tag slots).
            let extra = if ctl.rank() == 2 {
                ctl.recv::<u64>(0, Tag::user(9))
            } else {
                0
            };
            let post = ctl.allreduce(extra, |a, b| a + b);
            ctl.barrier();
            drop(ctl);
            mux.shutdown();
            (pre, post)
        });
        assert!(out.iter().all(|&(pre, post)| pre == 4 && post == 77));
    }

    #[test]
    fn interleaved_scoped_jobs_do_not_cross_talk() {
        let out = run_owned_both(4, |comm| {
            let rank = comm.rank();
            let mux = comm.into_mux();
            let mut ctl = mux.control();
            // Two concurrent "jobs" per PE, each on its own scope,
            // hammering collectives in different orders and volumes.
            let a = mux.scoped(1, "job-a");
            let b = mux.scoped(2, "job-b");
            let ha = std::thread::spawn(move || {
                let mut comm = a;
                let mut acc = 0u64;
                for i in 0..20 {
                    acc = acc.wrapping_add(comm.allreduce(i + comm.rank() as u64, |x, y| x + y));
                }
                comm.barrier();
                acc
            });
            let hb = std::thread::spawn(move || {
                let mut comm = b;
                let mut acc = 0u64;
                for i in 0..20 {
                    let v = comm.allgather(100 * i + comm.rank() as u64);
                    acc = acc.wrapping_add(v.into_iter().sum::<u64>());
                    // Scan is rank-dependent; fold it back through an
                    // allreduce so every PE accumulates the same value.
                    let s = comm.scan(1u64, |x, y| x + y);
                    acc = acc.wrapping_add(comm.allreduce(s, |x, y| x + y));
                }
                acc
            });
            let ra = ha.join().expect("job a");
            let rb = hb.join().expect("job b");
            ctl.barrier();
            drop(ctl);
            mux.shutdown();
            let _ = rank;
            (ra, rb)
        });
        // Every PE agrees on both jobs' results (SPMD invariant), and
        // the results match the closed-form expectations.
        assert!(out.windows(2).all(|w| w[0] == w[1]));
        let expect_a: u64 = (0..20u64).map(|i| 4 * i + 6).sum();
        assert_eq!(out[0].0, expect_a);
    }

    #[test]
    fn early_packets_for_unregistered_scope_are_stashed() {
        let out = run_owned_both(2, |comm| {
            let rank = comm.rank();
            let mux = comm.into_mux();
            let mut ctl = mux.control();
            if rank == 0 {
                // Register scope 5 and send immediately.
                let mut job = mux.scoped(5, "early");
                job.send(1, Tag::user(1), &4242u64);
                // Tell rank 1 (on the control scope) that the scoped
                // message is long gone into its transport.
                ctl.send(1, Tag::user(0), &());
                let got = 0u64;
                ctl.barrier();
                drop(job);
                drop(ctl);
                mux.shutdown();
                got
            } else {
                // Only register the scope after the packet has arrived.
                let () = ctl.recv(0, Tag::user(0));
                std::thread::sleep(std::time::Duration::from_millis(20));
                let mut job = mux.scoped(5, "early");
                let got = job.recv::<u64>(0, Tag::user(1));
                ctl.barrier();
                drop(job);
                drop(ctl);
                mux.shutdown();
                got
            }
        });
        assert_eq!(out[1], 4242);
    }

    #[test]
    fn scope_reuse_after_barrier() {
        let out = run_owned_both(3, |comm| {
            let mux = comm.into_mux();
            let mut ctl = mux.control();
            let mut total = 0u64;
            for round in 0..3u64 {
                let mut job = mux.scoped(1, &format!("round-{round}"));
                total += job.allreduce(round + job.rank() as u64, |a, b| a + b);
                drop(job);
                // The global quiescence point that licenses scope reuse.
                ctl.barrier();
            }
            drop(ctl);
            mux.shutdown();
            total
        });
        assert!(out.windows(2).all(|w| w[0] == w[1]));
        // round r contributes 3r + (0+1+2).
        assert_eq!(out[0], (0..3u64).map(|r| 3 * r + 3).sum::<u64>());
    }

    /// A slot's next job runs in a new scope while the previous job's
    /// communicator may still be live on a slower PE: traffic for the new
    /// scope, sent before and after the old scope's, reaches only the new
    /// communicator — stashed until it registers — and the old one sees
    /// only its own.
    #[test]
    fn next_generation_traffic_skips_the_live_previous_scope() {
        let out = run_owned_both(2, |comm| {
            let rank = comm.rank();
            let mux = comm.into_mux();
            let mut ctl = mux.control();
            let mut old = mux.scoped(1, "gen-0");
            let got = if rank == 0 {
                // Already on to the next generation: same tag, both scopes.
                let mut new = mux.scoped(3, "gen-1");
                new.send(1, Tag::user(1), &42u64);
                old.send(1, Tag::user(1), &7u64);
                new.send(1, Tag::user(1), &43u64);
                (0, 0, 0)
            } else {
                // Still in the previous generation: its receive must not
                // see the new scope's packet that arrived first.
                let first_old = old.recv::<u64>(0, Tag::user(1));
                let mut new = mux.scoped(3, "gen-1");
                let a = new.recv::<u64>(0, Tag::user(1));
                let b = new.recv::<u64>(0, Tag::user(1));
                (first_old, a, b)
            };
            drop(old);
            ctl.barrier();
            drop(ctl);
            mux.shutdown();
            got
        });
        assert_eq!(out[1], (7, 42, 43));
    }

    #[test]
    fn per_scope_stats_attribute_traffic() {
        let comms = crate::router::Router::build(2).into_comms();
        let stats: Vec<Arc<CommStats>> = comms.iter().map(|c| c.stats()).cloned().collect();
        let root = Arc::clone(&stats[0]);
        std::thread::scope(|scope| {
            for comm in comms {
                scope.spawn(move || {
                    let mux = comm.into_mux();
                    let mut ctl = mux.control();
                    let mut job = mux.scoped(1, "the-job");
                    // 8 payload bytes in the job scope, none in control.
                    if job.rank() == 0 {
                        job.send(1, Tag::user(0), &7u64);
                    } else {
                        let _: u64 = job.recv(0, Tag::user(0));
                    }
                    ctl.barrier();
                    drop(job);
                    drop(ctl);
                    mux.shutdown();
                });
            }
        });
        let snap = root.snapshot();
        let job = snap.scope("the-job").expect("job scope recorded");
        assert_eq!(job.total_bytes(), 8);
        assert_eq!(job.total_messages(), 1);
        // Totals include the job's bytes and the control barrier's
        // messages (whose `()` payloads are zero bytes).
        assert_eq!(snap.total_bytes(), 8);
        assert!(snap.total_messages() > job.total_messages());
    }

    #[test]
    fn single_pe_mux_works() {
        let out = run_owned_both(1, |comm| {
            let mux = comm.into_mux();
            let mut ctl = mux.control();
            let mut job = mux.scoped(1, "solo");
            job.send(0, Tag::user(3), &5u32);
            let v: u32 = job.recv(0, Tag::user(3));
            let r = job.allreduce(v as u64, |a, b| a + b);
            ctl.barrier();
            drop(job);
            drop(ctl);
            mux.shutdown();
            r
        });
        assert_eq!(out, vec![5]);
    }

    #[test]
    #[should_panic(expected = "exceeds the scoped tag space")]
    fn oversized_scoped_tag_rejected() {
        let mut comms = crate::router::Router::build(2).into_comms();
        let peer = comms.pop().unwrap();
        let mux = comms.pop().unwrap().into_mux();
        let mut job = mux.scoped(1, "bad-tag");
        // Drop the peer before panicking: the unwind drops the mux
        // (joining its pump), which needs the peer's send side gone.
        drop(peer);
        job.send_raw(1, Tag(1 << SCOPE_SHIFT), Vec::new());
    }

    #[test]
    #[should_panic(expected = "already has a live communicator")]
    fn duplicate_scope_registration_rejected() {
        let mut comms = crate::router::Router::build(1).into_comms();
        let mux = comms.pop().unwrap().into_mux();
        let _a = mux.scoped(1, "a");
        let _b = mux.scoped(1, "b");
    }

    #[test]
    #[should_panic(expected = "may only be called once")]
    fn control_taken_once() {
        let mut comms = crate::router::Router::build(1).into_comms();
        let mux = comms.pop().unwrap().into_mux();
        let _a = mux.control();
        let _b = mux.control();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scope_zero_reserved() {
        let mut comms = crate::router::Router::build(1).into_comms();
        let mux = comms.pop().unwrap().into_mux();
        let _ = mux.scoped(0, "zero");
    }
}
