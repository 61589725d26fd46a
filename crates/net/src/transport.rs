//! Pluggable transport layer: how tagged packets physically move
//! between PEs.
//!
//! [`crate::Comm`] implements MPI-style two-sided semantics (selective
//! receive, collectives, exact accounting) on top of a small [`Transport`]
//! trait that only knows how to move [`Packet`]s. Two backends ship with
//! the crate:
//!
//! * [`local`] — the original in-process backend: every PE is a thread
//!   and packets travel through unbounded `std::sync::mpsc` channels.
//!   Zero syscalls, deterministic, the default for tests and
//!   single-host runs.
//! * [`tcp`] — a real multi-process backend: every PE is an OS process
//!   and packets travel as length-prefixed frames over
//!   `std::net::TcpStream` meshes (one socket per peer pair, one reader
//!   thread per socket feeding the selective-receive queue).
//!
//! The byte/message counters of [`crate::CommStats`] are recorded *above*
//! this trait (in `Comm`), on payload bytes only, so the measured
//! communication volume — the paper's optimization target — is identical
//! across backends; TCP frame headers are bookkeeping, not payload.

pub mod local;
pub mod tcp;

use crate::comm::Tag;
use crate::error::Result;

/// One tagged message in flight.
#[derive(Debug)]
pub struct Packet {
    /// Rank of the sending PE.
    pub src: usize,
    /// Message tag (user or collective range).
    pub tag: Tag,
    /// Encoded payload bytes ([`crate::wire`] format).
    pub payload: Vec<u8>,
}

/// A backend that can move packets between the PEs of one run.
///
/// Implementations are owned by exactly one PE (one per `Comm`). All
/// methods return [`crate::NetError`] instead of panicking: everything
/// arriving from a transport is untrusted input (on the TCP backend it
/// crosses a process boundary), and the policy decision of whether an
/// error is fatal belongs to the layer above.
pub trait Transport: Send {
    /// Rank of the owning PE, in `0..size`.
    fn rank(&self) -> usize;

    /// Number of PEs in the communication domain.
    fn size(&self) -> usize;

    /// Deliver `payload` to `dest` under `tag`. `dest` is a valid rank
    /// other than `self.rank()` (self-sends short-circuit in `Comm` and
    /// never reach the transport).
    fn send(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<()>;

    /// Block until the next packet (any source, any tag) arrives.
    ///
    /// Errors are events, not necessarily fatal: `Disconnected { peer }`
    /// reports that one peer has closed its sending side (delivered once
    /// per peer); the caller may keep receiving from other peers.
    fn recv(&mut self) -> Result<Packet>;

    /// Whether `peer` has closed its sending side — no further packet
    /// from it can ever arrive.
    fn is_closed(&self, peer: usize) -> bool;

    /// Graceful teardown: flush and close this PE's sending sides, then
    /// wait for peers to do the same. Idempotent. Called automatically
    /// when the owning `Comm` is dropped.
    ///
    /// Because every PE keeps *receiving* until all peers have closed,
    /// teardown is barrier-safe: no in-flight message is cut off by an
    /// early `close()` on the receiving end.
    fn shutdown(&mut self) -> Result<()>;

    /// Detach this transport's **sending side** as an independently
    /// usable handle, leaving only the receiving side (`recv`,
    /// `is_closed`) with the transport. After detaching, `send` on the
    /// transport itself fails; a second detach fails too.
    ///
    /// This is the primitive behind [`crate::scope::CommMux`]: one pump
    /// thread owns the receive side while any number of scoped
    /// communicators share the detached sender (behind a mutex).
    /// Teardown inverts accordingly — the *sender* half-closes
    /// ([`TransportSender::close`]) and the receive side drains until
    /// every peer has done the same.
    fn split_sender(&mut self) -> Result<Box<dyn TransportSender>>;
}

/// The detached sending side of a [`Transport`]
/// (see [`Transport::split_sender`]).
pub trait TransportSender: Send {
    /// Deliver `payload` to `dest` under `tag`. Same contract as
    /// [`Transport::send`].
    fn send(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<()>;

    /// Half-close every sending side (the peer observes end-of-stream
    /// after all in-flight data). Idempotent; subsequent `send`s fail.
    fn close(&mut self);
}

/// Selector for the built-in backends usable within a single OS process.
///
/// Multi-process TCP worlds are not constructed through this enum — each
/// process builds its own communicator via [`crate::bootstrap`] (usually
/// under the `ccheck-launch` launcher).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Threads + `std::sync::mpsc` channels (the default).
    Local,
    /// Real TCP sockets over `127.0.0.1`, PEs still running as threads
    /// of this process. Exercises the full framing/reader-thread path;
    /// used to validate that accounting is backend-independent.
    TcpLoopback,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_debug_prints_fields() {
        let p = Packet {
            src: 3,
            tag: Tag(9),
            payload: vec![1, 2],
        };
        let s = format!("{p:?}");
        assert!(s.contains("src: 3"));
        assert!(s.contains("Tag(9)"));
    }

    #[test]
    fn backend_is_copy_eq() {
        let b = Backend::Local;
        let c = b;
        assert_eq!(b, c);
        assert_ne!(Backend::Local, Backend::TcpLoopback);
    }
}
