//! Per-PE communicator: tagged point-to-point messaging with selective
//! receive, modeled after MPI two-sided semantics.
//!
//! A [`Comm`] is owned by exactly one PE thread (or process, on the TCP
//! backend). Messages are byte buffers (encoded through [`crate::wire`])
//! tagged with `(source, Tag)`; `recv` performs *selective* receive —
//! out-of-order arrivals are stashed in a pending queue until a matching
//! `recv` is posted, and deliveries within one `(source, tag)` pair are
//! FIFO. The physical data path is pluggable: any
//! [`crate::transport::Transport`] backend works, and because all
//! [`CommStats`] accounting happens here (on payload bytes, above the
//! transport), measured communication volume is identical across
//! backends. Sends never block on either built-in backend (unbounded
//! queues / kernel socket buffers drained by dedicated reader threads),
//! so the tree collectives in [`crate::collectives`] cannot deadlock.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::error::NetError;
use crate::stats::{CommStats, PeStatsSnapshot};
use crate::transport::{Packet, Transport};
use crate::wire::{self, Wire};

/// Message tag. User code may use any value below [`Tag::COLLECTIVE_BASE`];
/// the collectives reserve the range above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

impl Tag {
    /// First tag value reserved for internal collective traffic.
    pub const COLLECTIVE_BASE: u64 = 1 << 48;

    /// A user tag; panics if the value intrudes on the reserved range.
    pub fn user(value: u64) -> Self {
        assert!(
            value < Self::COLLECTIVE_BASE,
            "user tags must be below 2^48 (got {value})"
        );
        Tag(value)
    }
}

/// Communicator handle for one PE.
///
/// Obtained from [`crate::run`] (or [`crate::router::Router::build`]) for
/// in-process runs, or from [`crate::bootstrap`] for multi-process TCP
/// runs; the closure passed to `run` receives a `&mut Comm` per spawned
/// PE thread.
pub struct Comm {
    rank: usize,
    size: usize,
    transport: Box<dyn Transport>,
    pending: VecDeque<Packet>,
    stats: Arc<CommStats>,
    /// Monotone counter for collective invocations: SPMD programs invoke
    /// collectives in the same order on every PE, so equal sequence numbers
    /// identify the same logical collective across PEs.
    pub(crate) coll_seq: u64,
}

impl Comm {
    /// Wrap a transport endpoint into a full communicator.
    ///
    /// `stats` must track `transport.size()` PEs. For in-process runs all
    /// communicators share one registry; in multi-process runs each
    /// process holds its own (only its rank's counters move — use
    /// [`Comm::gather_stats`] to assemble the global view).
    pub fn over(transport: Box<dyn Transport>, stats: Arc<CommStats>) -> Self {
        assert_eq!(
            stats.num_pes(),
            transport.size(),
            "stats registry must cover every PE"
        );
        Self {
            rank: transport.rank(),
            size: transport.size(),
            transport,
            pending: VecDeque::new(),
            stats,
            coll_seq: 0,
        }
    }

    /// Rebuild a communicator around `transport` carrying over state from
    /// a predecessor: its stashed out-of-order packets and its collective
    /// sequence counter. Used by [`crate::scope::CommMux`] so the control
    /// communicator continues the wrapped communicator's tag stream
    /// seamlessly (SPMD programs may multiplex mid-run).
    pub(crate) fn over_resumed(
        transport: Box<dyn Transport>,
        stats: Arc<CommStats>,
        pending: VecDeque<Packet>,
        coll_seq: u64,
    ) -> Self {
        let mut comm = Self::over(transport, stats);
        comm.pending = pending;
        comm.coll_seq = coll_seq;
        comm
    }

    /// Tear this communicator apart: `(transport, stats, pending stash,
    /// collective sequence counter)`. The inverse of
    /// [`Comm::over_resumed`], used to wrap a live communicator into a
    /// [`crate::scope::CommMux`].
    pub(crate) fn into_parts(self) -> (Box<dyn Transport>, Arc<CommStats>, VecDeque<Packet>, u64) {
        (self.transport, self.stats, self.pending, self.coll_seq)
    }

    /// Consume this communicator into a scoped-communicator multiplexer:
    /// the entry point of the [`crate::scope`] subsystem. All PEs of an
    /// SPMD program must call this at the same point of the collective
    /// sequence.
    pub fn into_mux(self) -> crate::scope::CommMux {
        crate::scope::CommMux::new(self)
    }

    /// Rank of this PE, in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of PEs in the run.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The shared statistics registry for this run.
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    /// This PE's own counters, child scopes included: the row
    /// [`Comm::gather_stats`] sends for it. In a multi-process run they
    /// are the only counters this process sees move.
    pub fn own_stats(&self) -> PeStatsSnapshot {
        self.stats.snapshot().per_pe()[self.rank]
    }

    /// Send an already-encoded payload to `dest` with `tag`.
    ///
    /// Sends are counted against this PE's `bytes_sent`/`msgs_sent` and one
    /// latency round. Sending to self is allowed (delivered through the
    /// pending queue, not counted as network traffic).
    ///
    /// # Panics
    /// Panics if the transport reports the peer gone — an SPMD program
    /// whose partner died is unrecoverable, mirroring MPI semantics.
    pub fn send_raw(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) {
        assert!(
            dest < self.size,
            "dest {dest} out of range 0..{}",
            self.size
        );
        if dest == self.rank {
            self.pending.push_back(Packet {
                src: dest,
                tag,
                payload,
            });
            return;
        }
        let pe = self.stats.pe(self.rank);
        pe.record_send(payload.len());
        pe.record_rounds(1);
        if let Err(err) = self.transport.send(dest, tag, payload) {
            panic!("PE {}: send to PE {dest} failed: {err}", self.rank);
        }
    }

    /// Encode `value` and send it to `dest` with `tag`.
    pub fn send<T: Wire>(&mut self, dest: usize, tag: Tag, value: &T) {
        self.send_raw(dest, tag, wire::encode(value));
    }

    /// Receive the raw payload of the next message matching `(src, tag)`.
    /// Blocks until such a message arrives; non-matching arrivals are queued.
    pub fn recv_raw(&mut self, src: usize, tag: Tag) -> Vec<u8> {
        assert!(src < self.size, "src {src} out of range 0..{}", self.size);
        // Check the stash first.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|p| p.src == src && p.tag == tag)
        {
            let pkt = self.pending.remove(pos).expect("position valid");
            if src != self.rank {
                self.stats.pe(self.rank).record_recv(pkt.payload.len());
            }
            return pkt.payload;
        }
        if self.transport.is_closed(src) {
            // The peer's sending side is gone and nothing matching is
            // stashed: this message can never arrive.
            panic!(
                "PE {}: waiting on PE {src} (tag {:?}): {}",
                self.rank,
                tag,
                NetError::Disconnected { peer: src }
            );
        }
        loop {
            match self.transport.recv() {
                Ok(pkt) => {
                    if pkt.src == src && pkt.tag == tag {
                        self.stats.pe(self.rank).record_recv(pkt.payload.len());
                        return pkt.payload;
                    }
                    self.pending.push_back(pkt);
                }
                // Another peer finishing early is normal in SPMD programs
                // whose ranks do different amounts of work.
                Err(NetError::Disconnected { peer }) if peer != src => continue,
                Err(err) => panic!(
                    "PE {}: waiting on PE {src} (tag {:?}): {err}",
                    self.rank, tag
                ),
            }
        }
    }

    /// Receive and decode a message matching `(src, tag)`.
    ///
    /// # Panics
    /// Panics if the payload does not decode as `T` — a type mismatch
    /// between sender and receiver is a programming error in SPMD code.
    pub fn recv<T: Wire>(&mut self, src: usize, tag: Tag) -> T {
        let payload = self.recv_raw(src, tag);
        wire::decode(&payload).unwrap_or_else(|| {
            panic!(
                "PE {}: message from PE {src} (tag {:?}) failed to decode as {}: {}",
                self.rank,
                tag,
                std::any::type_name::<T>(),
                NetError::Decode {
                    from: src,
                    tag: tag.0
                }
            )
        })
    }

    /// Like [`Comm::recv_raw`], but a dead peer is an `Err`, not a
    /// panic. This is the receive for *supervision* traffic — e.g. the
    /// health plane's PE-0 heartbeat collectors — where a vanished
    /// peer is exactly the signal being watched for, not a fatal
    /// protocol violation.
    pub fn recv_raw_or_disconnect(&mut self, src: usize, tag: Tag) -> Result<Vec<u8>, NetError> {
        assert!(src < self.size, "src {src} out of range 0..{}", self.size);
        if let Some(pos) = self
            .pending
            .iter()
            .position(|p| p.src == src && p.tag == tag)
        {
            let pkt = self.pending.remove(pos).expect("position valid");
            if src != self.rank {
                self.stats.pe(self.rank).record_recv(pkt.payload.len());
            }
            return Ok(pkt.payload);
        }
        if self.transport.is_closed(src) {
            return Err(NetError::Disconnected { peer: src });
        }
        loop {
            match self.transport.recv() {
                Ok(pkt) => {
                    if pkt.src == src && pkt.tag == tag {
                        self.stats.pe(self.rank).record_recv(pkt.payload.len());
                        return Ok(pkt.payload);
                    }
                    self.pending.push_back(pkt);
                }
                Err(NetError::Disconnected { peer }) if peer != src => continue,
                Err(err) => return Err(err),
            }
        }
    }

    /// Decoding wrapper over [`Comm::recv_raw_or_disconnect`]; a
    /// malformed payload is reported as [`NetError::Decode`].
    pub fn recv_or_disconnect<T: Wire>(&mut self, src: usize, tag: Tag) -> Result<T, NetError> {
        let payload = self.recv_raw_or_disconnect(src, tag)?;
        wire::decode(&payload).ok_or(NetError::Decode {
            from: src,
            tag: tag.0,
        })
    }

    /// Receive the next `tag` message from **any** peer, reporting dead
    /// peers as errors instead of panicking. This is the collector side
    /// of a many-to-one supervision stream (the health plane's PE-0
    /// heartbeat collector): blocking on one specific source would let
    /// a single stalled peer starve everyone else's messages, and a
    /// `Disconnected` peer is precisely the signal being watched for.
    /// On the scoped transport each peer's closure is reported once;
    /// keep calling to drain the remaining peers.
    pub fn recv_any_or_disconnect<T: Wire>(&mut self, tag: Tag) -> Result<(usize, T), NetError> {
        let pkt = match self.pending.iter().position(|p| p.tag == tag) {
            Some(pos) => self.pending.remove(pos).expect("position valid"),
            None => loop {
                match self.transport.recv() {
                    Ok(pkt) if pkt.tag == tag => break pkt,
                    Ok(pkt) => self.pending.push_back(pkt),
                    Err(err) => return Err(err),
                }
            },
        };
        if pkt.src != self.rank {
            self.stats.pe(self.rank).record_recv(pkt.payload.len());
        }
        let src = pkt.src;
        wire::decode(&pkt.payload)
            .map(|v| (src, v))
            .ok_or(NetError::Decode {
                from: src,
                tag: tag.0,
            })
    }

    /// Combined send+receive with a partner (full-duplex exchange, one
    /// round on the critical path — the model of §2 of the paper).
    pub fn exchange<T: Wire>(&mut self, partner: usize, tag: Tag, value: &T) -> T {
        self.send(partner, tag, value);
        self.recv(partner, tag)
    }

    /// Allocate a fresh tag block for the next collective invocation.
    pub(crate) fn next_coll_tag(&mut self, op: u64) -> Tag {
        let seq = self.coll_seq;
        self.coll_seq += 1;
        Tag(Tag::COLLECTIVE_BASE + seq * 64 + op)
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use crate::testing::run_both;

    #[test]
    fn ping_pong() {
        let out = run_both(2, |comm| {
            let tag = Tag::user(1);
            if comm.rank() == 0 {
                comm.send(1, tag, &42u64);
                comm.recv::<u64>(1, tag)
            } else {
                let v: u64 = comm.recv(0, tag);
                comm.send(0, tag, &(v + 1));
                v
            }
        });
        assert_eq!(out, vec![43, 42]);
    }

    #[test]
    fn selective_receive_out_of_order() {
        let out = run_both(2, |comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                comm.send(1, Tag::user(2), &222u64);
                comm.send(1, Tag::user(1), &111u64);
                0
            } else {
                let first: u64 = comm.recv(0, Tag::user(1));
                let second: u64 = comm.recv(0, Tag::user(2));
                assert_eq!((first, second), (111, 222));
                first + second
            }
        });
        assert_eq!(out[1], 333);
    }

    /// Regression test: out-of-order arrivals across tags *and* sources
    /// are stashed and must come back in per-(source, tag) FIFO order —
    /// on both backends. Each sender emits interleaved sequences on two
    /// tags; the receiver drains them in a scrambled order relative to
    /// arrival and checks every (source, tag) stream individually.
    #[test]
    fn selective_receive_fifo_per_source_and_tag() {
        const MSGS: u64 = 8;
        let out = run_both(4, |comm| {
            let receiver = 3;
            if comm.rank() == receiver {
                let mut streams = Vec::new();
                // Drain in an order unrelated to arrival: by tag, then by
                // descending source, interleaving the sequence reads.
                for tag in [Tag::user(2), Tag::user(1)] {
                    for src in (0..receiver).rev() {
                        let seq: Vec<u64> = (0..MSGS).map(|_| comm.recv::<u64>(src, tag)).collect();
                        streams.push(seq);
                    }
                }
                // Every (source, tag) stream must be exactly 0..MSGS in
                // order: FIFO within the pair, no cross-talk between
                // pairs.
                let expected: Vec<u64> = (0..MSGS).collect();
                assert!(
                    streams.iter().all(|s| *s == expected),
                    "per-(source, tag) FIFO violated: {streams:?}"
                );
                streams.len() as u64
            } else {
                for i in 0..MSGS {
                    // Interleave the two tag streams so arrivals at the
                    // receiver are thoroughly out of order relative to
                    // the drain order above.
                    comm.send(receiver, Tag::user(1), &i);
                    comm.send(receiver, Tag::user(2), &i);
                }
                0
            }
        });
        assert_eq!(out[3], 6); // 3 sources × 2 tags
    }

    #[test]
    fn self_send_not_counted_as_traffic() {
        let stats_holder = std::sync::Mutex::new(None);
        run(1, |comm| {
            comm.send(0, Tag::user(9), &7u32);
            let v: u32 = comm.recv(0, Tag::user(9));
            assert_eq!(v, 7);
            *stats_holder.lock().unwrap() = Some(comm.stats().snapshot());
        });
        let snap = stats_holder.into_inner().unwrap().unwrap();
        assert_eq!(snap.total_bytes(), 0);
        assert_eq!(snap.total_messages(), 0);
    }

    #[test]
    fn byte_accounting_exact() {
        let stats_holder = std::sync::Mutex::new(None);
        run(2, |comm| {
            let tag = Tag::user(0);
            if comm.rank() == 0 {
                comm.send(1, tag, &vec![1u64, 2, 3]); // 8 (len) + 24 payload
            } else {
                let _: Vec<u64> = comm.recv(0, tag);
                *stats_holder.lock().unwrap() = Some(comm.stats().snapshot());
            }
        });
        let snap = stats_holder.into_inner().unwrap().unwrap();
        assert_eq!(snap.per_pe()[0].bytes_sent, 32);
        assert_eq!(snap.per_pe()[1].bytes_recv, 32);
        assert_eq!(snap.total_messages(), 1);
    }

    #[test]
    fn recv_or_disconnect_reports_dead_peer() {
        let out = run_both(2, |comm| {
            let tag = Tag::user(7);
            if comm.rank() == 0 {
                let first: Result<u64, _> = comm.recv_or_disconnect(1, tag);
                assert_eq!(first.ok(), Some(99));
                // Peer 1 exits after its one send; the next receive
                // surfaces the death as an error, not a panic. The TCP
                // backend reports the peer (`Disconnected`); the local
                // backend can only see the whole domain go (`TornDown`).
                let second: Result<u64, _> = comm.recv_or_disconnect(1, tag);
                assert!(
                    matches!(
                        second,
                        Err(NetError::Disconnected { peer: 1 }) | Err(NetError::TornDown)
                    ),
                    "{second:?}"
                );
                1
            } else {
                comm.send(0, tag, &99u64);
                0
            }
        });
        assert_eq!(out[0], 1);
    }

    #[test]
    fn exchange_swaps_values() {
        let out = run_both(2, |comm| {
            let partner = 1 - comm.rank();
            comm.exchange(partner, Tag::user(5), &(comm.rank() as u64))
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "user tags must be below")]
    fn reserved_tag_rejected() {
        let _ = Tag::user(Tag::COLLECTIVE_BASE);
    }

    #[test]
    fn many_pes_ring() {
        let p = 8;
        let out = run_both(p, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, Tag::user(3), &(comm.rank() as u64));
            comm.recv::<u64>(prev, Tag::user(3))
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(*got as usize, (rank + p - 1) % p);
        }
    }

    #[test]
    #[should_panic(expected = "stats registry must cover every PE")]
    fn mismatched_stats_rejected() {
        let transports = crate::transport::local::LocalTransport::world(2);
        let _ = Comm::over(
            Box::new(transports.into_iter().next().unwrap()),
            CommStats::new(3),
        );
    }
}
