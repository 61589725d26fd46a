//! Collective communication operations.
//!
//! All collectives are built from point-to-point messages using the
//! classical algorithms (binomial trees, dissemination, Hillis–Steele
//! scan), so the byte/message/round counters observe the true costs:
//! broadcast, reduce, allreduce, gather, scan run in `O(β·k + α·log p)`;
//! allgather and all-to-all in `O(β·k·p + α·log p)` / `O(β·k + α·p)`,
//! matching `T_coll` of §2 of the paper.
//!
//! Every collective is an SPMD call: **all** PEs of the run must invoke the
//! same collective in the same order (enforced probabilistically through
//! per-`Comm` sequence-numbered tags; a mismatch typically manifests as a
//! decode panic naming both ends).

use crate::comm::Comm;
use crate::wire::Wire;

/// Op codes distinguishing concurrent collectives within one sequence slot.
mod op {
    pub const BARRIER: u64 = 0;
    pub const BROADCAST: u64 = 1;
    pub const REDUCE: u64 = 2;
    pub const GATHER: u64 = 3;
    pub const SCAN: u64 = 4;
    pub const ALLTOALL: u64 = 5;
    pub const SHIFT: u64 = 6;
    pub const ALLTOALL_HC: u64 = 7;
    pub const ALLTOALL_CHUNKED: u64 = 8;
}

/// The largest batch [`Comm::all_to_all_chunked`] hands `on_recv` of the
/// items a PE routes to itself.
const OWN_BATCH: usize = 4096;

/// `⌈log₂ p⌉` for `p ≥ 1` — round count of tree collectives.
#[inline]
pub fn ceil_log2(p: usize) -> u32 {
    debug_assert!(p >= 1);
    usize::BITS - (p - 1).leading_zeros()
}

impl Comm {
    /// Dissemination barrier: `⌈log₂ p⌉` rounds, O(1) bytes per round.
    pub fn barrier(&mut self) {
        let tag = self.next_coll_tag(op::BARRIER);
        let p = self.size();
        let r = self.rank();
        let mut k = 1usize;
        while k < p {
            let to = (r + k) % p;
            let from = (r + p - k % p) % p;
            self.send(to, tag, &());
            let () = self.recv(from, tag);
            k <<= 1;
        }
    }

    /// Binomial-tree broadcast from `root`. Every PE returns the value.
    ///
    /// Non-roots pass their (ignored) local `value`; use
    /// [`Comm::broadcast_from`] for the common "root computes it" pattern.
    pub fn broadcast<T: Wire + Clone>(&mut self, root: usize, value: T) -> T {
        assert!(root < self.size());
        let tag = self.next_coll_tag(op::BROADCAST);
        let p = self.size();
        let vr = (self.rank() + p - root) % p; // virtual rank: root ↦ 0
        let mut data = value;

        // Receive from parent (the highest set bit of vr).
        let mut mask = 1usize;
        while mask < p {
            if vr & mask != 0 {
                let src = (vr - mask + root) % p;
                data = self.recv(src, tag);
                break;
            }
            mask <<= 1;
        }
        // Forward to children.
        mask >>= 1;
        while mask > 0 {
            if vr + mask < p {
                let dest = (vr + mask + root) % p;
                self.send(dest, tag, &data);
            }
            mask >>= 1;
        }
        data
    }

    /// Broadcast where only the root's closure runs to produce the value.
    pub fn broadcast_from<T, F>(&mut self, root: usize, make: F) -> T
    where
        T: Wire + Clone + Default,
        F: FnOnce() -> T,
    {
        let value = if self.rank() == root {
            make()
        } else {
            T::default()
        };
        self.broadcast(root, value)
    }

    /// Binomial-tree reduction to `root` with associative, commutative `op`.
    /// Returns `Some(result)` at the root and `None` elsewhere.
    pub fn reduce<T, F>(&mut self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        assert!(root < self.size());
        let tag = self.next_coll_tag(op::REDUCE);
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < p {
            if vr & mask == 0 {
                let partner = vr | mask;
                if partner < p {
                    let src = (partner + root) % p;
                    let other: T = self.recv(src, tag);
                    acc = op(acc, other);
                }
            } else {
                let dest = (vr - mask + root) % p;
                self.send(dest, tag, &acc);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// All-reduction: reduce to PE 0 followed by a broadcast
    /// (`O(β·k + α·log p)`, 2·⌈log p⌉ rounds). All PEs return the result.
    pub fn allreduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Wire + Clone + Default,
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce(0, value, op);
        self.broadcast(0, reduced.unwrap_or_default())
    }

    /// Logical-AND all-reduction of a verdict bit; the idiom every checker
    /// uses so all PEs learn whether any PE rejected.
    pub fn all_agree(&mut self, local_ok: bool) -> bool {
        self.allreduce(local_ok, |a, b| a && b)
    }

    /// Binomial-tree gather to `root`: returns `Some(values)` (rank order,
    /// length p) at the root and `None` elsewhere.
    pub fn gather<T: Wire>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        let tag = self.next_coll_tag(op::GATHER);
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        // Accumulate (original_rank, value) pairs up the binomial tree.
        let mut acc: Vec<(u64, T)> = vec![(self.rank() as u64, value)];
        let mut mask = 1usize;
        while mask < p {
            if vr & mask == 0 {
                let partner = vr | mask;
                if partner < p {
                    let src = (partner + root) % p;
                    let mut other: Vec<(u64, T)> = self.recv(src, tag);
                    acc.append(&mut other);
                }
            } else {
                let dest = (vr - mask + root) % p;
                self.send(dest, tag, &acc);
                return None;
            }
            mask <<= 1;
        }
        acc.sort_by_key(|(rank, _)| *rank);
        debug_assert_eq!(acc.len(), p);
        Some(acc.into_iter().map(|(_, v)| v).collect())
    }

    /// Gather followed by broadcast: every PE gets all values in rank order.
    pub fn allgather<T: Wire + Clone>(&mut self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.broadcast(0, gathered.unwrap_or_default())
    }

    /// Hillis–Steele inclusive scan over ranks with associative `op`:
    /// PE i returns `value₀ ⊕ value₁ ⊕ … ⊕ valueᵢ`. `⌈log p⌉` rounds.
    pub fn scan<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Wire + Clone,
        F: Fn(T, T) -> T,
    {
        let tag = self.next_coll_tag(op::SCAN);
        let p = self.size();
        let r = self.rank();
        // Invariant: after step j, `running` covers ranks
        // max(0, r−2^(j+1)+1) ..= r (a contiguous block), so plain
        // associativity suffices — `op` need not be commutative.
        let mut running = value;
        let mut d = 1usize;
        while d < p {
            if r + d < p {
                self.send(r + d, tag, &running);
            }
            if r >= d {
                let left: T = self.recv(r - d, tag);
                running = op(left, running);
            }
            d <<= 1;
        }
        running
    }

    /// Exclusive prefix sum of `u64` values plus the global total:
    /// returns `(Σ_{j<i} value_j, Σ_j value_j)`. The workhorse for global
    /// element indexing in the dataflow layer and the Zip checker.
    pub fn exclusive_prefix_sum(&mut self, value: u64) -> (u64, u64) {
        let ([exclusive], [total]) = self.exclusive_prefix_sums([value]);
        (exclusive, total)
    }

    /// [`Comm::exclusive_prefix_sum`] over `K` independent counters in
    /// the rounds of one: returns `(exclusive prefixes, totals)`. An
    /// array has no length prefix on the wire, so the messages are the
    /// `K` scalar ones laid end to end.
    pub fn exclusive_prefix_sums<const K: usize>(
        &mut self,
        values: [u64; K],
    ) -> ([u64; K], [u64; K]) {
        let add = |a: [u64; K], b: [u64; K]| std::array::from_fn(|i| a[i] + b[i]);
        let inclusive = self.scan(values, add);
        let exclusive = std::array::from_fn(|i| inclusive[i] - values[i]);
        // Totals = inclusive sums at the last PE.
        let totals = self.broadcast(self.size() - 1, inclusive);
        (exclusive, totals)
    }

    /// Personalized all-to-all: `outgoing[j]` is delivered to PE j, and the
    /// return value's entry `j` is what PE j sent here. Direct delivery:
    /// `p−1` messages per PE (`O(β·k + α·p)`).
    pub fn all_to_all<T: Wire>(&mut self, outgoing: Vec<T>) -> Vec<T> {
        assert_eq!(
            outgoing.len(),
            self.size(),
            "all_to_all requires exactly one entry per PE"
        );
        let tag = self.next_coll_tag(op::ALLTOALL);
        let p = self.size();
        let r = self.rank();
        let mut outgoing: Vec<Option<T>> = outgoing.into_iter().map(Some).collect();
        let mut incoming: Vec<Option<T>> = Vec::new();
        incoming.resize_with(p, || None);
        // Keep own slice locally.
        incoming[r] = outgoing[r].take();
        // Send in a schedule that staggers targets to avoid hot spots.
        for offset in 1..p {
            let dest = (r + offset) % p;
            let item = outgoing[dest].take().expect("each dest used once");
            self.send(dest, tag, &item);
        }
        for offset in 1..p {
            let src = (r + p - offset) % p;
            incoming[src] = Some(self.recv(src, tag));
        }
        incoming
            .into_iter()
            .map(|v| v.expect("all received"))
            .collect()
    }

    /// Personalized all-to-all via hypercube (store-and-forward) indirect
    /// delivery: `log₂ p` rounds of pairwise exchanges instead of `p−1`
    /// direct messages — the `O(β·k·log p + α·log p)` alternative of §2,
    /// preferable when per-PE payloads are small and latency dominates.
    ///
    /// Requires `p` to be a power of two (the classic hypercube
    /// restriction; [`Comm::all_to_all`] covers general `p`).
    pub fn all_to_all_hypercube<T: Wire>(&mut self, outgoing: Vec<T>) -> Vec<T> {
        let p = self.size();
        assert!(
            p.is_power_of_two(),
            "hypercube all-to-all requires power-of-two p"
        );
        assert_eq!(outgoing.len(), p, "one entry per PE required");
        let tag = self.next_coll_tag(op::ALLTOALL_HC);
        let r = self.rank();
        // In-flight payloads as (source, destination, value); each round
        // forwards across one hypercube dimension every payload whose
        // destination differs from this PE's rank in that bit.
        let mut buffer: Vec<(u64, u64, T)> = outgoing
            .into_iter()
            .enumerate()
            .map(|(dest, v)| (r as u64, dest as u64, v))
            .collect();
        let mut dim = 1usize;
        while dim < p {
            let partner = r ^ dim;
            let (ship, keep): (Vec<_>, Vec<_>) = buffer
                .into_iter()
                .partition(|&(_, dest, _)| (dest as usize) & dim != r & dim);
            self.send(partner, tag, &ship);
            buffer = keep;
            let received: Vec<(u64, u64, T)> = self.recv(partner, tag);
            buffer.extend(received);
            dim <<= 1;
        }
        debug_assert!(buffer.iter().all(|&(_, dest, _)| dest as usize == r));
        buffer.sort_by_key(|&(src, _, _)| src);
        debug_assert_eq!(buffer.len(), p);
        buffer.into_iter().map(|(_, _, v)| v).collect()
    }

    /// Streaming personalized all-to-all over an item stream: route each
    /// item of `items` to PE `dest_of(&item)`, buffering at most `chunk`
    /// items per destination; a full buffer is flushed as one message,
    /// so no "one giant `Vec` per destination" is ever materialized.
    /// Received chunks are handed to `on_recv(src, chunk)` as they are
    /// drained, letting the caller fold them away (into a sketch, a
    /// hash table, …) without collecting first.
    ///
    /// Sender-side memory is O(chunk · p) regardless of the stream
    /// length. On the receive side, arriving chunks are folded through
    /// `on_recv` rather than collected — but note that both built-in
    /// transports enqueue incoming packets independently of application
    /// receives, so a PE's transient footprint additionally includes
    /// whatever peers send it before its drain phase: O(bytes received)
    /// in the worst case. The bounded end-to-end pipelines built on this
    /// primitive therefore shrink data *before* exchanging (pre-reduced
    /// tables, constant-size sketches); a chunked exchange of raw n-sized
    /// data still receives O(n/p) like its slice-based counterpart.
    /// Items routed to this PE's own rank short-circuit through
    /// `on_recv` without touching the network (matching
    /// [`Comm::all_to_all`], whose own slice is not counted as traffic),
    /// in batches of at most `min(chunk, 4096)`: they need no bigger
    /// buffer, however large `chunk` is.
    ///
    /// Chunks from one source arrive at `on_recv` in sending order;
    /// interleaving *between* sources is unspecified. The message
    /// pattern (and therefore the byte accounting) is deterministic for
    /// a fixed `(items, chunk, p)`, identical on every transport. A
    /// peer's stream is its full `chunk`-item batches followed by one
    /// shorter batch, which ends the stream: with `k_j` items routed to
    /// peer `j`, that is `⌊k_j / chunk⌋ + 1` messages, the last one
    /// empty only when `k_j` is an exact multiple of `chunk`. At a
    /// `chunk` no smaller than any `k_j` (`usize::MAX`, say) every peer
    /// gets exactly one message holding all of its items: bytes,
    /// messages and rounds are those of [`Comm::all_to_all`] over the
    /// per-destination `Vec`s.
    ///
    /// This is a collective: every PE must call it in the same slot of
    /// the collective sequence (streams may of course differ), and with
    /// the **same `chunk`** — a receiver recognizes the end of a stream
    /// by a batch shorter than its own `chunk`.
    ///
    /// # Panics
    /// Panics if `chunk == 0` or `dest_of` returns an out-of-range rank.
    pub fn all_to_all_chunked<T, I, D, F>(&mut self, items: I, chunk: usize, dest_of: D, on_recv: F)
    where
        T: Wire,
        I: IntoIterator<Item = T>,
        D: Fn(&T) -> usize,
        F: FnMut(usize, Vec<T>),
    {
        assert!(chunk > 0, "chunk size must be positive");
        let tag = self.next_coll_tag(op::ALLTOALL_CHUNKED);
        let p = self.size();
        let r = self.rank();
        let mut on_recv = on_recv;
        let mut buffers: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        // Phase 1: route, flushing any buffer that reaches `chunk` items,
        // or this PE's own buffer at `OWN_BATCH`: its items never touch
        // the network, so they need no bigger buffer whatever `chunk` is.
        // Sends never block on the built-in backends, so all flushes can
        // precede the drain phase without deadlock.
        let own_batch = chunk.min(OWN_BATCH);
        for item in items {
            let dest = dest_of(&item);
            assert!(dest < p, "dest_of returned {dest}, but p = {p}");
            let buf = &mut buffers[dest];
            buf.push(item);
            if dest == r && buf.len() == own_batch {
                on_recv(r, std::mem::take(buf));
            } else if buf.len() == chunk {
                let full = std::mem::take(buf);
                self.send(dest, tag, &full);
            }
        }
        // Phase 2: every remainder is shorter than `chunk`, so sending
        // it (empty or not) ends that peer's stream.
        for (dest, rest) in buffers.into_iter().enumerate() {
            if dest != r {
                self.send(dest, tag, &rest);
            } else if !rest.is_empty() {
                on_recv(r, rest);
            }
        }
        // Phase 3: drain every peer's stream to its short batch. The
        // selective-receive queue preserves per-(source, tag) FIFO
        // order, so chunks arrive in sending order per source.
        for offset in 1..p {
            let src = (r + p - offset) % p;
            loop {
                let batch: Vec<T> = self.recv(src, tag);
                let last = batch.len() < chunk;
                if !batch.is_empty() {
                    on_recv(src, batch);
                }
                if last {
                    break;
                }
            }
        }
    }

    /// Cyclic shift: send `value` to `(rank+offset) mod p`, receive from
    /// `(rank−offset) mod p`. With `offset == 1` this is the neighbor
    /// exchange used by the sort checker's boundary test.
    pub fn shift<T: Wire>(&mut self, offset: isize, value: &T) -> T {
        let tag = self.next_coll_tag(op::SHIFT);
        let p = self.size() as isize;
        let r = self.rank() as isize;
        let dest = ((r + offset).rem_euclid(p)) as usize;
        let src = ((r - offset).rem_euclid(p)) as usize;
        self.send(dest, tag, value);
        self.recv(src, tag)
    }

    /// Gather every PE's *own* communication counters to rank 0 and
    /// assemble the global [`crate::StatsSnapshot`]: `Some(snapshot)` at
    /// rank 0, `None` elsewhere.
    ///
    /// On the in-process backends all PEs share one registry and a plain
    /// [`crate::CommStats::snapshot`] already sees everything; in
    /// multi-process TCP runs each process only populates its own rank's
    /// counters, and this collective is how the experiment binaries
    /// rebuild the full per-PE table before printing. The snapshot is
    /// taken *before* the gather's own traffic is counted.
    pub fn gather_stats(&mut self) -> Option<crate::stats::StatsSnapshot> {
        let mine = self.own_stats();
        let row = (
            mine.bytes_sent,
            mine.bytes_recv,
            mine.msgs_sent,
            mine.msgs_recv,
            mine.rounds,
        );
        self.gather(0, row).map(|rows| {
            crate::stats::StatsSnapshot::from_rows(
                rows.into_iter()
                    .map(|(bytes_sent, bytes_recv, msgs_sent, msgs_recv, rounds)| {
                        crate::stats::PeStatsSnapshot {
                            bytes_sent,
                            bytes_recv,
                            msgs_sent,
                            msgs_recv,
                            rounds,
                        }
                    })
                    .collect(),
            )
        })
    }

    /// Gather every PE's `ccheck-obs` metrics snapshot to rank 0 and
    /// merge them into one world view: `Some((world, per_pe))` at rank
    /// 0, `None` elsewhere. Histograms merge bucket-wise — the same
    /// mergeability trick as the paper's sketches — and snapshots from
    /// the same OS process are counted once (in-process backends share
    /// one registry across all PE threads).
    pub fn gather_metrics(
        &mut self,
    ) -> Option<(
        ccheck_obs::MetricsSnapshot,
        Vec<ccheck_obs::MetricsSnapshot>,
    )> {
        let mine = ccheck_obs::registry().snapshot().encode();
        self.gather(0, mine).map(|rows| {
            let per_pe: Vec<ccheck_obs::MetricsSnapshot> = rows
                .iter()
                .map(|bytes| {
                    ccheck_obs::MetricsSnapshot::decode(bytes)
                        .expect("gathered metrics snapshot decodes")
                })
                .collect();
            (ccheck_obs::metrics::merge_distinct(per_pe.iter()), per_pe)
        })
    }

    /// Gather every PE's trace ring contents to rank 0: `Some(traces)`
    /// at rank 0 (deduped by source process, sorted by rank), `None`
    /// elsewhere. Drain this at the end of a run and feed it to
    /// [`ccheck_obs::export::chrome_trace_json`].
    pub fn gather_trace(&mut self) -> Option<Vec<ccheck_obs::TraceSnapshot>> {
        let mine = ccheck_obs::trace_snapshot().encode();
        self.gather(0, mine).map(|rows| {
            let mut seen = std::collections::BTreeSet::new();
            rows.iter()
                .filter_map(|bytes| {
                    ccheck_obs::TraceSnapshot::decode(bytes).filter(|t| seen.insert(t.source))
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // The whole collectives suite runs on every backend: results and
    // exact byte/message accounting must match between the in-process
    // channels and the real TCP socket path.
    use crate::testing::{run_both as run, run_both_with_stats as run_with_stats};

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
    }

    #[test]
    fn barrier_completes_all_sizes() {
        for p in [1, 2, 3, 4, 5, 8, 13] {
            run(p, |comm| {
                comm.barrier();
                comm.barrier();
            });
        }
    }

    #[test]
    fn broadcast_all_roots_all_sizes() {
        for p in [1, 2, 3, 4, 7, 8] {
            for root in 0..p {
                let out = run(p, |comm| {
                    let v = if comm.rank() == root { 4242u64 } else { 0 };
                    comm.broadcast(root, v)
                });
                assert!(out.iter().all(|&v| v == 4242), "p={p} root={root}");
            }
        }
    }

    #[test]
    fn broadcast_vectors() {
        let out = run(4, |comm| {
            let v = if comm.rank() == 2 {
                vec![1u32, 2, 3]
            } else {
                vec![]
            };
            comm.broadcast(2, v)
        });
        assert!(out.iter().all(|v| v == &vec![1, 2, 3]));
    }

    #[test]
    fn reduce_sum_all_roots() {
        for p in [1, 2, 3, 5, 8] {
            for root in 0..p {
                let out = run(p, |comm| {
                    comm.reduce(root, comm.rank() as u64 + 1, |a, b| a + b)
                });
                let expected: u64 = (1..=p as u64).sum();
                for (rank, r) in out.iter().enumerate() {
                    if rank == root {
                        assert_eq!(*r, Some(expected));
                    } else {
                        assert_eq!(*r, None);
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = run(6, |comm| {
            let v = comm.rank() as u64;
            let mn = comm.allreduce(v, |a, b| a.min(b));
            let mx = comm.allreduce(v, |a, b| a.max(b));
            (mn, mx)
        });
        assert!(out.iter().all(|&(mn, mx)| mn == 0 && mx == 5));
    }

    #[test]
    fn all_agree_detects_single_dissent() {
        for p in [2, 3, 4, 7] {
            for dissent in 0..p {
                let out = run(p, |comm| comm.all_agree(comm.rank() != dissent));
                assert!(out.iter().all(|&v| !v), "p={p} dissent={dissent}");
            }
            let out = run(p, |comm| {
                let _ = comm;
                true
            });
            assert!(out.iter().all(|&v| v));
        }
    }

    #[test]
    fn gather_rank_order() {
        for p in [1, 2, 3, 4, 6, 9] {
            let out = run(p, |comm| comm.gather(0, comm.rank() as u64 * 3));
            let expected: Vec<u64> = (0..p as u64).map(|r| r * 3).collect();
            assert_eq!(out[0], Some(expected));
            for r in out.iter().skip(1) {
                assert_eq!(*r, None);
            }
        }
    }

    #[test]
    fn allgather_everyone_has_everything() {
        let out = run(5, |comm| comm.allgather(comm.rank() as u32));
        for got in &out {
            assert_eq!(*got, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn scan_inclusive_sums() {
        for p in [1, 2, 3, 4, 5, 8, 11] {
            let out = run(p, |comm| comm.scan(comm.rank() as u64 + 1, |a, b| a + b));
            for (rank, got) in out.iter().enumerate() {
                let expected: u64 = (1..=rank as u64 + 1).sum();
                assert_eq!(*got, expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn scan_non_commutative_string_concat() {
        // String concatenation is associative but not commutative; scan
        // must preserve rank order.
        let out = run(4, |comm| {
            comm.scan(comm.rank().to_string(), |a, b| format!("{a}{b}"))
        });
        assert_eq!(out, vec!["0", "01", "012", "0123"]);
    }

    #[test]
    fn exclusive_prefix_sum_with_total() {
        let out = run(4, |comm| {
            comm.exclusive_prefix_sum(10 * (comm.rank() as u64 + 1))
        });
        // values: 10, 20, 30, 40 → prefixes 0, 10, 30, 60; total 100
        assert_eq!(out, vec![(0, 100), (10, 100), (30, 100), (60, 100)]);
    }

    #[test]
    fn prefix_sums_of_a_triple_match_three_scalar_calls() {
        for p in [1, 2, 3, 5] {
            let values = |rank: usize| [rank as u64 + 1, 10 * rank as u64, 7];
            let (scalar, scalar_stats) = run_with_stats(p, |comm| {
                values(comm.rank()).map(|v| comm.exclusive_prefix_sum(v))
            });
            let (triple, triple_stats) =
                run_with_stats(p, |comm| comm.exclusive_prefix_sums(values(comm.rank())));
            for (s, (prefixes, totals)) in scalar.iter().zip(&triple) {
                assert_eq!(s.map(|(prefix, _)| prefix), *prefixes, "p={p}");
                assert_eq!(s.map(|(_, total)| total), *totals, "p={p}");
            }
            // Same bytes, a third of the messages and rounds.
            assert_eq!(triple_stats.total_bytes(), scalar_stats.total_bytes());
            assert_eq!(
                3 * triple_stats.total_messages(),
                scalar_stats.total_messages()
            );
            assert_eq!(3 * triple_stats.max_rounds(), scalar_stats.max_rounds());
        }
    }

    #[test]
    fn all_to_all_personalized() {
        let p = 4;
        let out = run(p, |comm| {
            let r = comm.rank() as u64;
            // PE r sends value 100*r + j to PE j.
            let outgoing: Vec<u64> = (0..p as u64).map(|j| 100 * r + j).collect();
            comm.all_to_all(outgoing)
        });
        for (j, incoming) in out.iter().enumerate() {
            for (r, v) in incoming.iter().enumerate() {
                assert_eq!(*v, 100 * r as u64 + j as u64);
            }
        }
    }

    #[test]
    fn all_to_all_vectors() {
        let p = 3;
        let out = run(p, |comm| {
            let r = comm.rank();
            let outgoing: Vec<Vec<u64>> = (0..p).map(|j| vec![r as u64; j + 1]).collect();
            comm.all_to_all(outgoing)
        });
        for (j, incoming) in out.iter().enumerate() {
            for (r, v) in incoming.iter().enumerate() {
                assert_eq!(v, &vec![r as u64; j + 1]);
            }
        }
    }

    #[test]
    fn shift_ring() {
        let out = run(5, |comm| comm.shift(1, &(comm.rank() as u64)));
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
        let out = run(5, |comm| comm.shift(-1, &(comm.rank() as u64)));
        assert_eq!(out, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn broadcast_volume_is_logarithmic_per_pe() {
        // With p = 8 and an 800-byte payload, a binomial broadcast moves the
        // payload 7 times total, but no PE sends more than 3 copies.
        let (_, snap) = run_with_stats(8, |comm| {
            let v = if comm.rank() == 0 {
                vec![0u8; 792]
            } else {
                vec![]
            };
            comm.broadcast(0, v)
        });
        let payload = 800; // 792 bytes + 8-byte length prefix
        assert_eq!(snap.total_bytes(), 7 * payload);
        assert!(snap.bottleneck_volume() <= 3 * payload);
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        use crate::comm::Tag;
        let out = run(3, |comm| {
            let s1 = comm.allreduce(1u64, |a, b| a + b);
            if comm.rank() == 0 {
                comm.send(1, Tag::user(77), &9u64);
            }
            let s2 = comm.allreduce(2u64, |a, b| a + b);
            let extra = if comm.rank() == 1 {
                comm.recv::<u64>(0, Tag::user(77))
            } else {
                0
            };
            s1 + s2 + extra
        });
        assert_eq!(out, vec![9, 18, 9]);
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let out = run(4, |comm| {
            let mut total = 0u64;
            for i in 0..50 {
                total = total.wrapping_add(comm.allreduce(i + comm.rank() as u64, |a, b| a + b));
            }
            total
        });
        assert!(out.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn hypercube_all_to_all_matches_direct() {
        for p in [1usize, 2, 4, 8, 16] {
            let direct = run(p, |comm| {
                let r = comm.rank() as u64;
                let outgoing: Vec<u64> = (0..p as u64).map(|j| 1000 * r + j).collect();
                comm.all_to_all(outgoing)
            });
            let hypercube = run(p, |comm| {
                let r = comm.rank() as u64;
                let outgoing: Vec<u64> = (0..p as u64).map(|j| 1000 * r + j).collect();
                comm.all_to_all_hypercube(outgoing)
            });
            assert_eq!(direct, hypercube, "p={p}");
        }
    }

    #[test]
    fn hypercube_all_to_all_vectors() {
        let p = 8;
        let out = run(p, |comm| {
            let r = comm.rank();
            let outgoing: Vec<Vec<u64>> = (0..p).map(|j| vec![r as u64; j + 1]).collect();
            comm.all_to_all_hypercube(outgoing)
        });
        for (j, incoming) in out.iter().enumerate() {
            for (r, v) in incoming.iter().enumerate() {
                assert_eq!(v, &vec![r as u64; j + 1], "j={j} r={r}");
            }
        }
    }

    #[test]
    fn hypercube_message_count_is_logarithmic() {
        // Direct delivery: p·(p−1) messages; hypercube: p·log₂p.
        let p = 16;
        let (_, direct) = run_with_stats(p, |comm| comm.all_to_all(vec![0u8; comm.size()]));
        let (_, hc) = run_with_stats(p, |comm| comm.all_to_all_hypercube(vec![0u8; comm.size()]));
        assert_eq!(direct.total_messages(), (p * (p - 1)) as u64);
        assert_eq!(hc.total_messages(), (p * p.ilog2() as usize) as u64);
        // The latency trade-off of §2: fewer messages, more volume.
        assert!(hc.total_messages() < direct.total_messages());
        assert!(hc.total_bytes() > direct.total_bytes());
    }

    #[test]
    fn chunked_all_to_all_delivers_everything_in_order() {
        for p in [1usize, 2, 3, 5] {
            for chunk in [1usize, 3, 16, 1000] {
                let out = run(p, move |comm| {
                    let r = comm.rank() as u64;
                    // 40 items per PE, round-robin destinations, values
                    // encode (src, seq) for order checking.
                    let items = (0..40u64).map(move |i| (i % p as u64, r * 1000 + i));
                    let mut received: Vec<Vec<u64>> = vec![Vec::new(); p];
                    comm.all_to_all_chunked(
                        items,
                        chunk,
                        |&(dest, _)| dest as usize,
                        |src, batch| received[src].extend(batch.iter().map(|&(_, v)| v)),
                    );
                    received
                });
                for (dest, received) in out.iter().enumerate() {
                    for (src, stream) in received.iter().enumerate() {
                        let expected: Vec<u64> = (0..40u64)
                            .filter(|i| i % p as u64 == dest as u64)
                            .map(|i| src as u64 * 1000 + i)
                            .collect();
                        assert_eq!(stream, &expected, "p={p} chunk={chunk} {src}->{dest}");
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_all_to_all_matches_direct_multiset() {
        // Same routing as redistribute-style usage: arbitrary dest fn.
        let p = 4;
        let out = run(p, |comm| {
            let r = comm.rank() as u64;
            let items: Vec<u64> = (0..100).map(|i| r * 100 + i).collect();
            let mut via_chunked: Vec<u64> = Vec::new();
            comm.all_to_all_chunked(
                items.iter().copied(),
                7,
                |&x| (x % 4) as usize,
                |_, batch| via_chunked.extend(batch),
            );
            let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); 4];
            for &x in &items {
                outgoing[(x % 4) as usize].push(x);
            }
            let mut via_direct: Vec<u64> =
                comm.all_to_all(outgoing).into_iter().flatten().collect();
            via_chunked.sort_unstable();
            via_direct.sort_unstable();
            (via_chunked, via_direct)
        });
        for (chunked, direct) in out {
            assert_eq!(chunked, direct);
        }
    }

    #[test]
    fn chunked_all_to_all_send_buffers_bounded() {
        // Byte accounting: every data message carries ≤ chunk items, so
        // the largest single message is bounded by the chunk size, not
        // by the stream length.
        let (_, snap) = run_with_stats(2, |comm| {
            let r = comm.rank();
            // Only PE 0 has data; PE 1 contributes an empty stream.
            let items = 0..if r == 0 { 1000u64 } else { 0 };
            let mut n = 0usize;
            comm.all_to_all_chunked(items, 10, |_| 1 - r, |_, b| n += b.len());
            n
        });
        // PE0 → PE1: 1000 items in 100 chunks of 10 (88 bytes each:
        // 8-byte len prefix + 80 payload) + 8-byte terminator; PE1 → PE0
        // just its terminator.
        assert_eq!(snap.per_pe()[0].bytes_sent, 100 * 88 + 8);
        assert_eq!(snap.per_pe()[0].msgs_sent, 101);
        assert_eq!(snap.per_pe()[1].bytes_sent, 8);
    }

    #[test]
    fn chunked_all_to_all_short_batch_ends_the_stream() {
        // 1005 = 100 full chunks + a 5-item batch, which ends the stream:
        // 101 messages and no empty terminator.
        let (_, snap) = run_with_stats(2, |comm| {
            let r = comm.rank();
            let items = 0..if r == 0 { 1005u64 } else { 0 };
            let mut n = 0usize;
            comm.all_to_all_chunked(items, 10, |_| 1 - r, |_, b| n += b.len());
            n
        });
        assert_eq!(snap.per_pe()[0].bytes_sent, 100 * 88 + (8 + 5 * 8));
        assert_eq!(snap.per_pe()[0].msgs_sent, 101);
        assert_eq!(snap.per_pe()[1].bytes_sent, 8);
        assert_eq!(snap.per_pe()[1].msgs_sent, 1);
    }

    #[test]
    fn chunked_all_to_all_hands_own_items_over_in_bounded_batches() {
        run(2, |comm| {
            let r = comm.rank();
            let (mut own, mut largest) = (Vec::new(), 0);
            comm.all_to_all_chunked(
                0..10_000u64,
                usize::MAX,
                |_| r,
                |src, batch| {
                    assert_eq!(src, r);
                    largest = largest.max(batch.len());
                    own.extend(batch);
                },
            );
            assert_eq!(own, (0..10_000).collect::<Vec<_>>());
            assert_eq!(largest, OWN_BATCH);
        });
    }

    #[test]
    fn chunked_all_to_all_at_unbounded_chunk_costs_what_all_to_all_does() {
        // Uneven per-peer counts, some peers getting nothing; any chunk
        // at or above the largest per-peer count sends one message per
        // peer, byte for byte the message `all_to_all` sends.
        let items_of = |r: usize, p: usize| -> Vec<(u64, u64)> {
            (0..(7 * r + 3) as u64)
                .map(|i| ((i * i + r as u64) % (p as u64 + 1), i))
                .filter(|&(dest, _)| dest < p as u64)
                .collect()
        };
        for p in [1usize, 2, 3, 5] {
            let (direct, direct_stats) = run_with_stats(p, |comm| {
                let (r, p) = (comm.rank(), comm.size());
                let mut outgoing: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
                for item in items_of(r, p) {
                    outgoing[item.0 as usize].push(item);
                }
                comm.all_to_all(outgoing)
            });
            let max_count = 7 * p + 3;
            for chunk in [max_count, max_count + 1, usize::MAX] {
                let (chunked, chunked_stats) = run_with_stats(p, |comm| {
                    let (r, p) = (comm.rank(), comm.size());
                    let mut received: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
                    comm.all_to_all_chunked(
                        items_of(r, p),
                        chunk,
                        |&(dest, _)| dest as usize,
                        |src, batch| received[src].extend(batch),
                    );
                    received
                });
                assert_eq!(chunked, direct, "p={p} chunk={chunk}");
                assert_eq!(
                    chunked_stats.per_pe(),
                    direct_stats.per_pe(),
                    "p={p} chunk={chunk}: bytes, msgs and rounds"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn chunked_all_to_all_rejects_zero_chunk() {
        let mut comms = crate::router::Router::build(1).into_comms();
        comms[0].all_to_all_chunked(std::iter::empty::<u64>(), 0, |_| 0, |_, _| {});
    }

    #[test]
    fn gather_stats_assembles_global_table() {
        let out = run(4, |comm| {
            // Some asymmetric traffic first.
            if comm.rank() == 0 {
                comm.send(1, crate::comm::Tag::user(1), &vec![0u8; 92]);
            } else if comm.rank() == 1 {
                let _: Vec<u8> = comm.recv(0, crate::comm::Tag::user(1));
            }
            comm.barrier();
            let snap = comm.gather_stats();
            assert_eq!(snap.is_some(), comm.rank() == 0);
            snap.map(|s| {
                (
                    s.per_pe()[0].bytes_sent,
                    s.per_pe()[1].bytes_recv,
                    s.per_pe().len(),
                )
            })
        });
        // 92 payload bytes + 8-byte Vec length prefix.
        assert_eq!(out[0], Some((100, 100, 4)));
        assert!(out[1..].iter().all(|o| o.is_none()));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn hypercube_rejects_non_power_of_two() {
        // The assert fires before any communication, so a bare
        // communicator suffices (no peer threads needed).
        let mut comms = crate::router::Router::build(3).into_comms();
        let _ = comms[0].all_to_all_hypercube(vec![0u8; 3]);
    }
}
