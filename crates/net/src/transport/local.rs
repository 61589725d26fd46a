//! In-process backend: one unbounded `std::sync::mpsc` channel per PE.
//!
//! This is the seed runtime's original data path, now behind the
//! [`Transport`] trait: each transport holds a sender into every *peer's*
//! mailbox (`None` at its own rank — self-sends short-circuit in `Comm`)
//! and owns its own receiver. Sends never block (channels are unbounded),
//! so the tree collectives cannot deadlock; once every peer transport is
//! dropped the receiver disconnects, which surfaces as
//! [`NetError::TornDown`].

use std::sync::mpsc::{channel, Receiver, Sender};

use crate::comm::Tag;
use crate::error::{NetError, Result};
use crate::transport::{Packet, Transport, TransportSender};

/// Channel-backed transport for one PE of an in-process run.
pub struct LocalTransport {
    rank: usize,
    size: usize,
    senders: Vec<Option<Sender<Packet>>>,
    receiver: Receiver<Packet>,
    detached: bool,
}

impl LocalTransport {
    /// Create the transports of a `p`-PE in-process world, rank order.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn world(p: usize) -> Vec<LocalTransport> {
        assert!(p > 0, "need at least one PE");
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel::<Packet>();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| LocalTransport {
                rank,
                size: p,
                senders: senders
                    .iter()
                    .enumerate()
                    .map(|(peer, tx)| (peer != rank).then(|| tx.clone()))
                    .collect(),
                receiver,
                detached: false,
            })
            .collect()
    }
}

/// The detached sending side of a [`LocalTransport`]: the per-peer
/// channel senders, moved out of the transport. Closing drops them,
/// which (once every PE does the same) disconnects the peers' receivers.
struct LocalSender {
    rank: usize,
    senders: Vec<Option<Sender<Packet>>>,
}

impl TransportSender for LocalSender {
    fn send(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) -> Result<()> {
        let sender = self.senders[dest]
            .as_ref()
            .ok_or(NetError::Disconnected { peer: dest })?;
        sender
            .send(Packet {
                src: self.rank,
                tag,
                payload,
            })
            .map_err(|_| NetError::Disconnected { peer: dest })
    }

    fn close(&mut self) {
        for sender in &mut self.senders {
            *sender = None;
        }
    }
}

impl Transport for LocalTransport {
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
        let sender = self.senders[dest]
            .as_ref()
            .expect("self-sends are handled in Comm, never by the transport");
        sender
            .send(Packet {
                src: self.rank,
                tag,
                payload,
            })
            .map_err(|_| NetError::Disconnected { peer: dest })
    }

    fn recv(&mut self) -> Result<Packet> {
        // A channel error means every sender handle is gone, i.e. all
        // other PEs (which share the `Arc`) have been torn down.
        self.receiver.recv().map_err(|_| NetError::TornDown)
    }

    fn is_closed(&self, _peer: usize) -> bool {
        // Channel senders live in a shared Arc: individual peers cannot
        // close, the domain only goes down as a whole (-> `TornDown`).
        false
    }

    fn shutdown(&mut self) -> Result<()> {
        // Nothing to flush: unbounded channels deliver synchronously and
        // the Arc'd senders drop with the transport.
        Ok(())
    }

    fn split_sender(&mut self) -> Result<Box<dyn TransportSender>> {
        if self.detached {
            return Err(NetError::bootstrap("send side already detached"));
        }
        self.detached = true;
        Ok(Box::new(LocalSender {
            rank: self.rank,
            senders: std::mem::take(&mut self.senders),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_rank_ordered_transports() {
        let world = LocalTransport::world(3);
        assert_eq!(world.len(), 3);
        for (i, t) in world.iter().enumerate() {
            assert_eq!(t.rank(), i);
            assert_eq!(t.size(), 3);
            assert!(!t.is_closed(0));
        }
    }

    #[test]
    fn send_recv_crosses_transports() {
        let mut world = LocalTransport::world(2);
        let mut t1 = world.pop().unwrap();
        let mut t0 = world.pop().unwrap();
        t0.send(1, Tag(5), vec![9, 9]).unwrap();
        let pkt = t1.recv().unwrap();
        assert_eq!((pkt.src, pkt.tag, pkt.payload), (0, Tag(5), vec![9, 9]));
        t0.shutdown().unwrap();
        t1.shutdown().unwrap();
    }

    #[test]
    fn recv_after_teardown_errors() {
        let mut world = LocalTransport::world(2);
        let mut t1 = world.pop().unwrap();
        drop(world); // drops rank 0's transport and with it the senders Arc
        assert_eq!(t1.recv().unwrap_err(), NetError::TornDown);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_world_rejected() {
        let _ = LocalTransport::world(0);
    }
}
