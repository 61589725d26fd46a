//! Multi-process backend: length-prefixed frames over TCP socket meshes.
//!
//! Every pair of PEs shares one full-duplex `TcpStream`; each PE runs one
//! **reader thread per socket** that decodes frames and feeds them into a
//! single event channel — the same unbounded-queue shape as the local
//! backend, so [`crate::Comm`]'s selective receive works unmodified.
//!
//! ## Frame format
//!
//! Frames reuse the [`crate::wire`] codec (the codec the payloads
//! themselves use, keeping the byte layout predictable end to end):
//!
//! ```text
//! header  := wire::encode(&(src: u64, tag: u64, len: u64))   // 24 bytes LE
//! frame   := header ++ payload (len bytes)
//! ```
//!
//! Everything read from a socket is **untrusted input** from another
//! process: malformed, truncated, or oversized frames surface as
//! [`NetError::Frame`] values naming the peer rank — never panics — and
//! are covered by negative tests below.
//!
//! ## Teardown
//!
//! [`Transport::shutdown`] half-closes every socket (`Shutdown::Write`)
//! and then joins the reader threads, which exit when the *peer's* write
//! side closes. TCP delivers all written bytes before the FIN, so no
//! in-flight message is lost: teardown behaves like a barrier.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::comm::Tag;
use crate::error::{NetError, Result};
use crate::transport::{Packet, Transport, TransportSender};
use crate::wire::{self, Wire};

/// Encoded size of a frame header: `(src, tag, len)` as three `u64`s.
pub const FRAME_HEADER_LEN: usize = 24;

/// Upper bound on a single frame's payload (1 GiB). A header claiming
/// more is rejected as malformed before any allocation happens.
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 30;

/// How long mesh construction waits for peers before giving up.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// The passive side's accept poll: first and longest wait between looks
/// at the listener (doubling in between, reset by every accepted peer).
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_micros(100);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(5);

/// Serialize one frame (header + payload) into a single buffer so the
/// socket sees one write per message.
pub(crate) fn frame_bytes(src: usize, tag: Tag, payload: &[u8]) -> Vec<u8> {
    let header = (src as u64, tag.0, payload.len() as u64);
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    header.write(&mut buf);
    buf.extend_from_slice(payload);
    buf
}

/// Read one frame from `reader`, attributing malformed input to `peer`.
///
/// Returns `Ok(None)` on clean end-of-stream (the peer shut down its
/// write side between frames). Every other shortfall — truncation inside
/// a header or payload, a header naming the wrong source rank, an
/// oversized length — is a [`NetError::Frame`] with peer context.
pub fn read_frame<R: Read>(reader: &mut R, peer: usize) -> Result<Option<Packet>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0usize;
    while filled < FRAME_HEADER_LEN {
        let n = match reader.read(&mut header[filled..]) {
            Ok(n) => n,
            // A signal mid-read (EINTR) is not a transport fault; retry
            // like `read_exact` does.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(NetError::io(
                    format!("reading frame header from PE {peer}"),
                    &e,
                ))
            }
        };
        if n == 0 {
            return if filled == 0 {
                Ok(None) // clean EOF on a frame boundary
            } else {
                Err(NetError::frame(
                    peer,
                    format!("truncated frame header ({filled} of {FRAME_HEADER_LEN} bytes)"),
                ))
            };
        }
        filled += n;
    }
    let (src, tag, len) = wire::decode::<(u64, u64, u64)>(&header)
        .ok_or_else(|| NetError::frame(peer, "undecodable frame header"))?;
    if src != peer as u64 {
        return Err(NetError::frame(
            peer,
            format!("frame header claims source rank {src}"),
        ));
    }
    if len > MAX_FRAME_PAYLOAD {
        return Err(NetError::frame(
            peer,
            format!("oversized frame: {len} bytes exceeds the {MAX_FRAME_PAYLOAD} byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            NetError::frame(
                peer,
                format!("truncated frame payload (expected {len} bytes)"),
            )
        } else {
            NetError::io(format!("reading frame payload from PE {peer}"), &e)
        }
    })?;
    Ok(Some(Packet {
        src: src as usize,
        tag: Tag(tag),
        payload,
    }))
}

/// What a reader thread pushes into the shared event queue.
enum Event {
    Packet(Packet),
    /// Peer closed its write side cleanly; no more packets from it.
    Closed {
        peer: usize,
    },
    /// Unrecoverable transport fault on this peer's connection.
    Fatal(NetError),
}

fn spawn_reader(stream: TcpStream, peer: usize, events: Sender<Event>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("ccheck-net-rx-{peer}"))
        .spawn(move || {
            let mut stream = stream;
            loop {
                match read_frame(&mut stream, peer) {
                    Ok(Some(pkt)) => {
                        if events.send(Event::Packet(pkt)).is_err() {
                            return; // owning transport dropped mid-run
                        }
                    }
                    Ok(None) => {
                        let _ = events.send(Event::Closed { peer });
                        return;
                    }
                    Err(err) => {
                        let _ = events.send(Event::Fatal(err));
                        return;
                    }
                }
            }
        })
        .expect("spawn reader thread")
}

/// TCP-socket-mesh transport for one PE.
pub struct TcpTransport {
    rank: usize,
    size: usize,
    /// Write halves, indexed by peer rank (`None` at our own rank).
    writers: Vec<Option<TcpStream>>,
    events: Receiver<Event>,
    closed: Vec<bool>,
    readers: Vec<JoinHandle<()>>,
    down: bool,
    detached: bool,
}

/// The detached sending side of a [`TcpTransport`]: the write halves of
/// the socket mesh, moved out of the transport. Closing half-closes
/// every socket (`Shutdown::Write`), which the peers' reader threads
/// observe as clean end-of-stream after all in-flight frames.
struct TcpSender {
    rank: usize,
    writers: Vec<Option<TcpStream>>,
}

impl TransportSender for TcpSender {
    fn send(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<()> {
        let frame = frame_bytes(self.rank, tag, &payload);
        let writer = self.writers[dest]
            .as_mut()
            .ok_or(NetError::Disconnected { peer: dest })?;
        writer.write_all(&frame).map_err(|e| {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                NetError::Disconnected { peer: dest }
            } else {
                NetError::io(format!("sending frame to PE {dest}"), &e)
            }
        })
    }

    fn close(&mut self) {
        for writer in &mut self.writers {
            if let Some(writer) = writer.take() {
                let _ = writer.shutdown(Shutdown::Write);
            }
        }
    }
}

impl TcpTransport {
    /// Wire up this rank's corner of a fully-connected mesh.
    ///
    /// `listener` must already be bound to `peer_addrs[rank]`. The scheme
    /// is deterministic: rank `i` *connects* to every rank `j < i`
    /// (announcing itself with an 8-byte hello) and *accepts* from every
    /// rank `j > i`. Connection attempts retry until `CONNECT_TIMEOUT`
    /// so process startup order does not matter; use
    /// [`Self::connect_mesh_with_timeout`] for a caller-chosen bound
    /// (the bootstrap path passes the launcher-configured timeout).
    pub fn connect_mesh(
        rank: usize,
        size: usize,
        listener: TcpListener,
        peer_addrs: &[SocketAddr],
    ) -> Result<TcpTransport> {
        Self::connect_mesh_with_timeout(rank, size, listener, peer_addrs, CONNECT_TIMEOUT)
    }

    /// [`Self::connect_mesh`] with an explicit bound on how long to wait
    /// for peers.
    pub fn connect_mesh_with_timeout(
        rank: usize,
        size: usize,
        listener: TcpListener,
        peer_addrs: &[SocketAddr],
        timeout: Duration,
    ) -> Result<TcpTransport> {
        assert!(size > 0, "need at least one PE");
        assert!(rank < size, "rank {rank} out of range 0..{size}");
        assert_eq!(peer_addrs.len(), size, "one address per rank required");

        let deadline = Instant::now() + timeout;
        let mut sockets: Vec<Option<TcpStream>> = Vec::new();
        sockets.resize_with(size, || None);

        // Active side: connect to all lower ranks and say hello.
        for (peer, addr) in peer_addrs.iter().enumerate().take(rank) {
            let mut stream = connect_with_retry(*addr, deadline)?;
            stream
                .write_all(&wire::encode(&(rank as u64)))
                .map_err(|e| NetError::io(format!("sending hello to PE {peer}"), &e))?;
            configure(&stream)?;
            sockets[peer] = Some(stream);
        }
        // Passive side: accept one connection per higher rank, identified
        // by its hello (arrival order is arbitrary). Accepting and the
        // hello read are both deadline-bounded so a peer that died after
        // rendezvous (or a stray silent client) cannot wedge the mesh.
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::io("making mesh listener nonblocking", &e))?;
        let mut accepted = 0usize;
        // Peers usually connect within microseconds of each other (one
        // launcher starts them all), so the poll starts short and backs
        // off: a prompt peer costs ~0.1 ms, a late one at most 5 ms.
        let mut backoff = ACCEPT_BACKOFF_MIN;
        while accepted < size - rank - 1 {
            if Instant::now() >= deadline {
                return Err(NetError::bootstrap(format!(
                    "rank {rank}: timed out waiting for higher-rank peers \
                     ({accepted} of {} connected)",
                    size - rank - 1
                )));
            }
            let (mut stream, remote) = match listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    continue;
                }
                Err(e) => return Err(NetError::io(format!("accepting peer on rank {rank}"), &e)),
            };
            stream
                .set_nonblocking(false)
                .map_err(|e| NetError::io("configuring accepted socket", &e))?;
            let remaining = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(10));
            stream
                .set_read_timeout(Some(remaining))
                .map_err(|e| NetError::io("setting hello timeout", &e))?;
            let mut hello = [0u8; 8];
            stream
                .read_exact(&mut hello)
                .map_err(|e| NetError::io(format!("reading hello from {remote}"), &e))?;
            // Reader threads must block indefinitely once the mesh is up.
            stream
                .set_read_timeout(None)
                .map_err(|e| NetError::io("clearing hello timeout", &e))?;
            let peer = wire::decode::<u64>(&hello)
                .ok_or_else(|| NetError::bootstrap(format!("undecodable hello from {remote}")))?
                as usize;
            if peer <= rank || peer >= size {
                return Err(NetError::bootstrap(format!(
                    "unexpected hello rank {peer} on rank {rank} (world size {size})"
                )));
            }
            if sockets[peer].is_some() {
                return Err(NetError::bootstrap(format!(
                    "duplicate connection from rank {peer}"
                )));
            }
            configure(&stream)?;
            sockets[peer] = Some(stream);
            accepted += 1;
            backoff = ACCEPT_BACKOFF_MIN;
        }

        // One reader thread per socket, all feeding one event queue. The
        // transport keeps no Sender of its own, so an empty queue with
        // all readers gone is observable as disconnection.
        let (tx, events) = channel::<Event>();
        let mut writers: Vec<Option<TcpStream>> = Vec::new();
        writers.resize_with(size, || None);
        let mut readers = Vec::new();
        for (peer, socket) in sockets.into_iter().enumerate() {
            let Some(socket) = socket else { continue };
            let read_half = socket
                .try_clone()
                .map_err(|e| NetError::io(format!("cloning socket of PE {peer}"), &e))?;
            readers.push(spawn_reader(read_half, peer, tx.clone()));
            writers[peer] = Some(socket);
        }
        drop(tx);

        Ok(TcpTransport {
            rank,
            size,
            writers,
            events,
            closed: vec![false; size],
            readers,
            down: false,
            detached: false,
        })
    }

    /// Build a complete in-process TCP world on `127.0.0.1` — `p`
    /// transports over real sockets, rank order. Used by tests and the
    /// [`crate::transport::Backend::TcpLoopback`] runner to exercise the
    /// full socket path without spawning processes.
    pub fn loopback_world(p: usize) -> Result<Vec<TcpTransport>> {
        assert!(p > 0, "need at least one PE");
        let mut listeners = Vec::with_capacity(p);
        let mut addrs = Vec::with_capacity(p);
        for rank in 0..p {
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| NetError::io(format!("binding listener for rank {rank}"), &e))?;
            addrs.push(
                listener
                    .local_addr()
                    .map_err(|e| NetError::io("reading listener address", &e))?,
            );
            listeners.push(listener);
        }
        // Mesh construction blocks on peers, so each rank wires up on its
        // own thread.
        let mut handles = Vec::with_capacity(p);
        for (rank, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ccheck-net-mesh-{rank}"))
                    .spawn(move || TcpTransport::connect_mesh(rank, p, listener, &addrs))
                    .expect("spawn mesh thread"),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("mesh thread panicked"))
            .collect()
    }
}

fn configure(stream: &TcpStream) -> Result<()> {
    // Collectives exchange many latency-bound small frames; Nagle's
    // algorithm would serialize them at ~40ms each.
    stream
        .set_nodelay(true)
        .map_err(|e| NetError::io("setting TCP_NODELAY", &e))
}

fn connect_with_retry(addr: SocketAddr, deadline: Instant) -> Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() < deadline => {
                // Peer's listener may not be up yet (process startup
                // order is unconstrained); back off briefly and retry.
                let _ = e;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                return Err(NetError::io(
                    format!("connecting to peer at {addr} (timed out)"),
                    &e,
                ))
            }
        }
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<()> {
        if self.detached {
            return Err(NetError::bootstrap(
                "send side detached via split_sender; send through the handle",
            ));
        }
        let frame = frame_bytes(self.rank, tag, &payload);
        let writer = self.writers[dest]
            .as_mut()
            .ok_or(NetError::Disconnected { peer: dest })?;
        writer.write_all(&frame).map_err(|e| {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                NetError::Disconnected { peer: dest }
            } else {
                NetError::io(format!("sending frame to PE {dest}"), &e)
            }
        })
    }

    fn recv(&mut self) -> Result<Packet> {
        match self.events.recv() {
            Ok(Event::Packet(pkt)) => Ok(pkt),
            Ok(Event::Closed { peer }) => {
                self.closed[peer] = true;
                Err(NetError::Disconnected { peer })
            }
            Ok(Event::Fatal(err)) => Err(err),
            Err(_) => Err(NetError::TornDown),
        }
    }

    fn is_closed(&self, peer: usize) -> bool {
        self.closed[peer]
    }

    fn shutdown(&mut self) -> Result<()> {
        if self.down {
            return Ok(());
        }
        self.down = true;
        for writer in self.writers.iter().flatten() {
            // Half-close: our FIN travels behind all written data; the
            // read side stays open so late messages from slower peers
            // still drain into the queue.
            let _ = writer.shutdown(Shutdown::Write);
        }
        for reader in self.readers.drain(..) {
            // Readers exit on the *peer's* FIN, i.e. once every peer has
            // reached its own shutdown — an implicit teardown barrier.
            let _ = reader.join();
        }
        Ok(())
    }

    fn split_sender(&mut self) -> Result<Box<dyn TransportSender>> {
        if self.detached {
            return Err(NetError::bootstrap("send side already detached"));
        }
        self.detached = true;
        Ok(Box::new(TcpSender {
            rank: self.rank,
            writers: std::mem::take(&mut self.writers),
        }))
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_through_reader() {
        let buf = frame_bytes(2, Tag(77), &[1, 2, 3]);
        assert_eq!(buf.len(), FRAME_HEADER_LEN + 3);
        let mut cursor = &buf[..];
        let pkt = read_frame(&mut cursor, 2).unwrap().unwrap();
        assert_eq!((pkt.src, pkt.tag, pkt.payload), (2, Tag(77), vec![1, 2, 3]));
        // And a clean EOF right after a complete frame:
        assert!(read_frame(&mut cursor, 2).unwrap().is_none());
    }

    #[test]
    fn empty_payload_frame_roundtrips() {
        let buf = frame_bytes(0, Tag(0), &[]);
        let pkt = read_frame(&mut &buf[..], 0).unwrap().unwrap();
        assert!(pkt.payload.is_empty());
    }

    #[test]
    fn truncated_header_is_frame_error() {
        let buf = frame_bytes(1, Tag(5), &[9]);
        let err = read_frame(&mut &buf[..FRAME_HEADER_LEN - 4], 1).unwrap_err();
        match err {
            NetError::Frame { peer, reason } => {
                assert_eq!(peer, 1);
                assert!(reason.contains("truncated frame header"), "{reason}");
            }
            other => panic!("expected Frame error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_frame_error() {
        let buf = frame_bytes(4, Tag(5), &[1, 2, 3, 4]);
        let err = read_frame(&mut &buf[..buf.len() - 2], 4).unwrap_err();
        match err {
            NetError::Frame { peer, reason } => {
                assert_eq!(peer, 4);
                assert!(reason.contains("truncated frame payload"), "{reason}");
            }
            other => panic!("expected Frame error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // Header claims 2^60 payload bytes; must fail fast, not OOM.
        let mut buf = wire::encode(&(3u64, 0u64, 1u64 << 60));
        buf.extend_from_slice(&[0; 16]);
        let err = read_frame(&mut &buf[..], 3).unwrap_err();
        match err {
            NetError::Frame { peer, reason } => {
                assert_eq!(peer, 3);
                assert!(reason.contains("oversized"), "{reason}");
            }
            other => panic!("expected Frame error, got {other:?}"),
        }
    }

    #[test]
    fn source_rank_spoofing_rejected() {
        // Connection belongs to peer 1 but the header claims rank 2.
        let buf = frame_bytes(2, Tag(0), &[]);
        let err = read_frame(&mut &buf[..], 1).unwrap_err();
        match err {
            NetError::Frame { peer, reason } => {
                assert_eq!(peer, 1);
                assert!(reason.contains("claims source rank 2"), "{reason}");
            }
            other => panic!("expected Frame error, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none_not_error() {
        assert!(read_frame(&mut &[][..], 0).unwrap().is_none());
    }

    #[test]
    fn loopback_world_sends_and_receives() {
        let mut world = TcpTransport::loopback_world(3).unwrap();
        let mut t2 = world.pop().unwrap();
        let mut t1 = world.pop().unwrap();
        let mut t0 = world.pop().unwrap();
        t0.send(2, Tag(7), vec![1, 2, 3]).unwrap();
        t1.send(2, Tag(8), vec![4]).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            let pkt = t2.recv().unwrap();
            got.push((pkt.src, pkt.tag.0, pkt.payload));
        }
        got.sort();
        assert_eq!(got, vec![(0, 7, vec![1, 2, 3]), (1, 8, vec![4])]);
        // Teardown in arbitrary order must not deadlock: shutdown joins
        // readers only after every side half-closes.
        let teardown: Vec<_> = [t2, t0, t1]
            .into_iter()
            .map(|mut t| {
                std::thread::spawn(move || {
                    t.shutdown().unwrap();
                })
            })
            .collect();
        for h in teardown {
            h.join().unwrap();
        }
    }

    #[test]
    fn peer_close_reported_once_then_tracked() {
        let mut world = TcpTransport::loopback_world(2).unwrap();
        let t1 = world.pop().unwrap();
        let mut t0 = world.pop().unwrap();
        // Rank 1 goes away entirely (drop runs shutdown on a thread so
        // the join inside doesn't need rank 0's cooperation... it does:
        // shutdown joins readers which wait for rank 0's FIN, so drop it
        // concurrently).
        let closer = std::thread::spawn(move || drop(t1));
        match t0.recv() {
            Err(NetError::Disconnected { peer }) => assert_eq!(peer, 1),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        assert!(t0.is_closed(1));
        assert!(!t0.is_closed(0));
        t0.shutdown().unwrap();
        closer.join().unwrap();
    }

    #[test]
    fn garbage_on_the_wire_surfaces_as_fatal_error() {
        // Hand-build a 2-rank world, then write a corrupt frame directly
        // onto the raw socket: the reader thread must turn it into a
        // NetError::Frame event, never a panic.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let listener2 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr2 = listener2.local_addr().unwrap();
        let addrs = vec![addr, addr2];
        let addrs2 = addrs.clone();
        let h = std::thread::spawn(move || {
            // Rank 1 side, raw: accept nothing, connect to rank 0.
            let mut stream = TcpStream::connect(addrs2[0]).unwrap();
            stream.write_all(&wire::encode(&1u64)).unwrap(); // hello
                                                             // A frame header claiming an oversized payload.
            stream
                .write_all(&wire::encode(&(1u64, 0u64, u64::MAX)))
                .unwrap();
            stream
        });
        let mut t0 = TcpTransport::connect_mesh(0, 2, listener, &addrs).unwrap();
        let raw = h.join().unwrap();
        match t0.recv() {
            Err(NetError::Frame { peer, reason }) => {
                assert_eq!(peer, 1);
                assert!(reason.contains("oversized"), "{reason}");
            }
            other => panic!("expected Frame error, got {other:?}"),
        }
        drop(raw);
        // Readers are gone after the fatal error; further receives report
        // closure/teardown rather than hanging. (The faulty peer's reader
        // exited without a Closed event, so the queue just drains empty.)
        match t0.recv() {
            Err(NetError::TornDown) | Err(NetError::Disconnected { .. }) => {}
            other => panic!("expected teardown, got {other:?}"),
        }
        t0.shutdown().unwrap();
    }

    #[test]
    fn single_pe_world_is_trivial() {
        let mut world = TcpTransport::loopback_world(1).unwrap();
        let mut t = world.pop().unwrap();
        assert_eq!((t.rank(), t.size()), (0, 1));
        t.shutdown().unwrap();
    }
}
