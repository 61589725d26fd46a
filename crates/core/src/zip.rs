//! Zip checking (§6.4, Theorem 11).
//!
//! Zip must preserve the *order* of both sequences, so a multiset
//! fingerprint is not enough: the checker needs a hash that is sensitive
//! to positions yet computable on distributed data regardless of the
//! split. Following the paper, we use the inner product of the sequence
//! with a pseudo-random sequence `R = ⟨h′(1), h′(2), …⟩`: since `h′`
//! is evaluated on *global* indices, each PE computes its partial sum
//! locally ("computed on the fly and without communication") after one
//! prefix-sum over the three lengths establishes its global offsets; one
//! reduce of every iteration's fingerprint differences and a one-byte
//! broadcast give the verdict ([`crate::lanes`]).
//!
//! The fingerprint lives in 𝔽_{2⁶¹−1}: `F(S) = Σᵢ h′(i)·h(xᵢ) mod p`,
//! combined across PEs by field addition. Two sequences agreeing on the
//! fingerprint of every iteration differ with probability ≤ `(1/H)^its`.
//!
//! The check accepts iff `F(s1) − F(z.first) = 0` and `F(s2) −
//! F(z.second) = 0` in every iteration — the paper's equalities, written
//! as differences. `F` is linear, so each PE sends only its share of the
//! two differences (61 bits each, `⌈122·its/8⌉` bytes), and an index whose input and output
//! sit **on the same PE with equal values** contributes a zero term that
//! needs no hashing: [`ZipChecker::check_stream`] compares such indices
//! block by block and hashes only where they differ or are not
//! co-located. A correct zip whose output shares an input's distribution,
//! as `ccheck_dataflow::zip`'s does, costs one comparison per index on
//! that lane.
//!
//! The per-element definition is [`Sketch::update`]; streams are folded
//! by the block kernel behind [`Sketch::update_iter`] (see
//! [`crate::sketch`]): per block of 256 and per iteration, one
//! [`Hasher::hash_run`] over the positions, one [`Hasher::hash_batch`]
//! over the values and one [`Mersenne61::dot`].

use ccheck_hashing::field::Mersenne61;
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_net::Comm;

use crate::lanes::{verdict, Lanes, Op};
use crate::sketch::{for_each_block, Sketch, BLOCK};

/// Configuration of the Zip checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipCheckConfig {
    /// Hash family for element values.
    pub hasher: HasherKind,
    /// Independent repetitions.
    pub iterations: usize,
}

impl Default for ZipCheckConfig {
    fn default() -> Self {
        Self {
            hasher: HasherKind::Tab64,
            iterations: 2,
        }
    }
}

/// A seeded Zip checker. Owns every hash instance its sketches use:
/// they are seeded once here, and sketches borrow them.
#[derive(Debug, Clone)]
pub struct ZipChecker {
    cfg: ZipCheckConfig,
    /// `lanes[lane][iter]`: the `(value hasher, position hasher)` pair of
    /// one fingerprint instance. Lane 0 covers the first components (vs
    /// `s1`), lane 1 the second (vs `s2`).
    lanes: [Vec<(Hasher, Hasher)>; 2],
}

impl ZipChecker {
    /// Create a checker; all PEs must pass the same `(config, seed)`.
    pub fn new(cfg: ZipCheckConfig, seed: u64) -> Self {
        assert!(cfg.iterations >= 1);
        // Instance index `2·iter + lane` matches the historical
        // per-slice implementation bit for bit.
        let lane = |lane: usize| {
            (0..cfg.iterations)
                .map(|iter| {
                    let instance = (2 * iter + lane) as u64;
                    let h_val = Hasher::new(cfg.hasher, seed ^ instance << 32 ^ 0x7A69);
                    let h_pos = Hasher::new(cfg.hasher, seed ^ instance << 32 ^ 0x7069_7073);
                    (h_val, h_pos)
                })
                .collect()
        };
        Self {
            cfg,
            lanes: [lane(0), lane(1)],
        }
    }

    /// A fresh streaming sketch fingerprinting one component lane
    /// (`lane` 0 or 1) of a sequence whose next element has **global**
    /// index `start`. See [`crate::sketch::Sketch`]; merging requires the
    /// other sketch to continue exactly where this one stopped, because
    /// the fingerprint is position-sensitive.
    pub fn sketch(&self, lane: usize, start: u64) -> ZipSketch<'_> {
        assert!(lane < 2, "zip sequences have two component lanes");
        ZipSketch {
            checker: self,
            hashers: &self.lanes[lane],
            accs: vec![0; self.cfg.iterations],
            start,
            next: start,
        }
    }

    /// A pair sketch covering both lanes of an already-zipped stream of
    /// `(first, second)` pairs starting at global index `start`.
    pub fn sketch_pairs(&self, start: u64) -> ZipPairSketch<'_> {
        ZipPairSketch {
            first: self.sketch(0, start),
            second: self.sketch(1, start),
        }
    }

    /// Distributed Zip check: `zipped` must pair `s1[i]` with `s2[i]`
    /// for every global index `i`, preserving both orders. The three
    /// sequences may have three different distributions. Every PE
    /// returns the same verdict.
    pub fn check(&self, comm: &mut Comm, s1: &[u64], s2: &[u64], zipped: &[(u64, u64)]) -> bool {
        self.check_stream(
            comm,
            (s1.len() as u64, s1.iter().copied()),
            (s2.len() as u64, s2.iter().copied()),
            (zipped.len() as u64, zipped.iter().copied()),
        )
    }

    /// Streaming form of [`ZipChecker::check`]: each sequence arrives as
    /// `(local_len, stream)` — the length is needed *before* the stream
    /// is consumed because the position-sensitive hash must know this
    /// PE's global offset, which is exactly why a slice-free API must
    /// declare it. Memory is O(iterations) per PE.
    ///
    /// Each PE walks its three local index ranges once, in lockstep by
    /// global index, cut into at most five segments at their ends. Where
    /// a lane's input and output component are both on this PE, a block
    /// of up to 256 is compared first: an equal block cancels in the
    /// difference and is skipped unhashed, an unequal one is folded on
    /// both sides. Where only one side is here, it is folded. The fast
    /// path therefore needs input and output co-located and equal — true
    /// at every index of a correct zip that adopts an input's
    /// distribution.
    ///
    /// **One prefix sum and one verdict**, whatever `iterations` is: the
    /// prefix sum over the three lengths (24 bytes a message), then
    /// [`ZipChecker::lanes`] through [`verdict`]: one reduce of the
    /// `2·iterations` 61-bit differences (`⌈122·iterations/8⌉` bytes up) and a
    /// one-byte broadcast. Unequal global lengths reject after the
    /// prefix sum, before any stream is consumed.
    ///
    /// # Panics
    /// Panics if a stream yields a different number of elements than
    /// declared — that is a corrupt SPMD program, not checkable data.
    pub fn check_stream<I, J, Z>(
        &self,
        comm: &mut Comm,
        s1: (u64, I),
        s2: (u64, J),
        zipped: (u64, Z),
    ) -> bool
    where
        I: IntoIterator<Item = u64>,
        J: IntoIterator<Item = u64>,
        Z: IntoIterator<Item = (u64, u64)>,
    {
        let (starts, [n1, n2, nz]) = comm.exclusive_prefix_sums([s1.0, s2.0, zipped.0]);
        n1 == n2 && n1 == nz && verdict(comm, self.lanes(starts, s1, s2, zipped))
    }

    /// This PE's share of every iteration's `[F(s1) − F(z.first), F(s2) −
    /// F(z.second)]`, from one lockstep walk over the three local ranges
    /// starting at the global indices `starts` (see
    /// [`ZipChecker::check_stream`]): one [`Op::AddMod`] row in
    /// 𝔽_{2⁶¹−1}. At p = 1 (`starts` all 0, equal lengths) its
    /// [`Lanes::accepts`] is the local check.
    ///
    /// # Panics
    /// Panics if a stream yields a different number of elements than
    /// declared.
    pub fn lanes<I, J, Z>(
        &self,
        [s1_start, s2_start, z_start]: [u64; 3],
        (n1, s1): (u64, I),
        (n2, s2): (u64, J),
        (nz, zipped): (u64, Z),
    ) -> Lanes
    where
        I: IntoIterator<Item = u64>,
        J: IntoIterator<Item = u64>,
        Z: IntoIterator<Item = (u64, u64)>,
    {
        const S1: &str = "s1 stream shorter/longer than declared";
        const S2: &str = "s2 stream shorter/longer than declared";
        const ZIPPED: &str = "zipped stream shorter/longer than declared";
        let ranges = [
            (s1_start, s1_start + n1),
            (s2_start, s2_start + n2),
            (z_start, z_start + nz),
        ];
        let mut lanes = [
            LaneDifference {
                input: self.sketch(0, s1_start),
                output: self.sketch(0, z_start),
            },
            LaneDifference {
                input: self.sketch(1, s2_start),
                output: self.sketch(1, z_start),
            },
        ];
        let (mut s1, mut s2, mut zipped) = (s1.into_iter(), s2.into_iter(), zipped.into_iter());
        let mut scratch = [[0; BLOCK]; 2];
        let (mut a, mut b) = ([0; BLOCK], [0; BLOCK]);
        let (mut firsts, mut seconds) = ([0; BLOCK], [0; BLOCK]);
        let mut cuts: Vec<u64> = ranges
            .iter()
            .flat_map(|&(start, end)| [start, end])
            .collect();
        cuts.sort_unstable();
        for segment in cuts.windows(2) {
            let (lo, hi) = (segment[0], segment[1]);
            let [has1, has2, hasz] = ranges.map(|(start, end)| start <= lo && hi <= end);
            if !(has1 || has2 || hasz) {
                continue;
            }
            let mut at = lo;
            while at < hi {
                let len = (hi - at).min(BLOCK as u64) as usize;
                if has1 {
                    fill(&mut s1, &mut a[..len], S1);
                }
                if has2 {
                    fill(&mut s2, &mut b[..len], S2);
                }
                if hasz {
                    for (first, second) in firsts[..len].iter_mut().zip(&mut seconds[..len]) {
                        (*first, *second) = zipped.next().expect(ZIPPED);
                    }
                }
                let (zf, zs) = (&firsts[..len], &seconds[..len]);
                lanes[0].fold(has1.then_some(&a[..len]), hasz.then_some(zf), &mut scratch);
                lanes[1].fold(has2.then_some(&b[..len]), hasz.then_some(zs), &mut scratch);
                at += len as u64;
            }
        }
        assert!(s1.next().is_none(), "{S1}");
        assert!(s2.next().is_none(), "{S2}");
        assert!(zipped.next().is_none(), "{ZIPPED}");
        let differences = (0..self.cfg.iterations)
            .flat_map(|i| lanes.each_ref().map(|lane| lane.difference(i)))
            .collect();
        let row = (Op::AddMod(Mersenne61::P), 2 * self.cfg.iterations);
        Lanes::new(differences, vec![row])
    }
}

/// Fill `block` from `items`, panicking with `mismatch` if they run out.
fn fill(items: &mut impl Iterator<Item = u64>, block: &mut [u64], mismatch: &str) {
    for slot in block {
        *slot = items.next().expect(mismatch);
    }
}

/// One component lane of [`ZipChecker::check_stream`]'s walk: the input
/// sequence's sketch and the matching output component's, each with its
/// own global-index cursor.
struct LaneDifference<'a> {
    input: ZipSketch<'a>,
    output: ZipSketch<'a>,
}

impl LaneDifference<'_> {
    /// Fold one block that sits at the next global indices of every side
    /// given; `None` is a side this PE holds no part of there. Both sides
    /// present and equal: their terms cancel, so both cursors advance and
    /// nothing is hashed.
    fn fold(
        &mut self,
        input: Option<&[u64]>,
        output: Option<&[u64]>,
        scratch: &mut [[u64; BLOCK]; 2],
    ) {
        if let (Some(x), Some(y)) = (input, output) {
            if x == y {
                self.input.next += x.len() as u64;
                self.output.next += y.len() as u64;
                return;
            }
        }
        if let Some(x) = input {
            self.input.fold_block(x, scratch);
        }
        if let Some(y) = output {
            self.output.fold_block(y, scratch);
        }
    }

    /// `F(input) − F(output)` of iteration `iter`, over what was folded.
    fn difference(&self, iter: usize) -> u64 {
        Mersenne61::sub(self.input.accs[iter], self.output.accs[iter])
    }
}

/// Streaming sketch of one component lane of the Zip checker: the
/// inner-product fingerprint `Σ h′(i)·h(xᵢ)` in 𝔽_{2⁶¹−1}, advanced
/// element-at-a-time with an internal global-index cursor. Obtained
/// from [`ZipChecker::sketch`].
pub struct ZipSketch<'a> {
    checker: &'a ZipChecker,
    /// One `(value hasher, position hasher)` pair per iteration, owned
    /// by the checker.
    hashers: &'a [(Hasher, Hasher)],
    accs: Vec<u64>,
    start: u64,
    next: u64,
}

impl ZipSketch<'_> {
    /// Number of elements folded in so far.
    pub fn count(&self) -> u64 {
        self.next - self.start
    }

    /// The global index the next [`Sketch::update`] will fingerprint.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Fold one block of values (at most [`BLOCK`]) sitting at the next
    /// `values.len()` global indices, iteration-major: each iteration
    /// hashes the whole block with its own two hashers, takes the inner
    /// product and touches its accumulator once.
    fn fold_block(&mut self, values: &[u64], scratch: &mut [[u64; BLOCK]; 2]) {
        let [pos_hashes, val_hashes] = scratch;
        let (pos_hashes, val_hashes) = (
            &mut pos_hashes[..values.len()],
            &mut val_hashes[..values.len()],
        );
        for ((h_val, h_pos), acc) in self.hashers.iter().zip(&mut self.accs) {
            h_pos.hash_run(self.next, pos_hashes);
            h_val.hash_batch(values, val_hashes);
            *acc = Mersenne61::add(*acc, Mersenne61::dot(pos_hashes, val_hashes));
        }
        self.next += values.len() as u64;
    }
}

impl Sketch for ZipSketch<'_> {
    type Item = u64;
    /// `(start index, element count, per-iteration fingerprints)`.
    type Digest = (u64, u64, Vec<u64>);

    fn update(&mut self, item: u64) {
        for ((h_val, h_pos), acc) in self.hashers.iter().zip(&mut self.accs) {
            let pos_hash = Mersenne61::from_u64(h_pos.hash(self.next));
            let val_hash = Mersenne61::from_u64(h_val.hash(item));
            *acc = Mersenne61::add(*acc, Mersenne61::mul(pos_hash, val_hash));
        }
        self.next += 1;
    }

    fn update_iter<I: IntoIterator<Item = u64>>(&mut self, items: I) {
        let mut scratch = [[0; BLOCK]; 2];
        for_each_block(items, |block| self.fold_block(block, &mut scratch));
    }

    /// Absorb the sketch of the **immediately following** index range:
    /// position-sensitivity makes merging of non-adjacent chunks
    /// meaningless, so adjacency is enforced.
    ///
    /// # Panics
    /// Panics if `other` does not start at this sketch's next index or
    /// belongs to a different checker instance.
    fn merge(&mut self, other: Self) {
        assert!(
            std::ptr::eq(self.checker, other.checker),
            "cannot merge sketches of different checker instances"
        );
        assert_eq!(
            other.start, self.next,
            "zip sketches merge only over adjacent index ranges"
        );
        for (acc, &badd) in self.accs.iter_mut().zip(&other.accs) {
            *acc = Mersenne61::add(*acc, badd);
        }
        self.next = other.next;
    }

    fn finalize(self) -> (u64, u64, Vec<u64>) {
        (self.start, self.next - self.start, self.accs)
    }
}

/// Both lanes of an already-zipped `(first, second)` stream, advanced in
/// lockstep. Obtained from [`ZipChecker::sketch_pairs`].
pub struct ZipPairSketch<'a> {
    first: ZipSketch<'a>,
    second: ZipSketch<'a>,
}

impl Sketch for ZipPairSketch<'_> {
    type Item = (u64, u64);
    /// The two lanes' digests.
    type Digest = ((u64, u64, Vec<u64>), (u64, u64, Vec<u64>));

    fn update(&mut self, (a, b): (u64, u64)) {
        self.first.update(a);
        self.second.update(b);
    }

    fn update_iter<I: IntoIterator<Item = (u64, u64)>>(&mut self, items: I) {
        let mut scratch = [[0; BLOCK]; 2];
        let (mut firsts, mut seconds) = ([0; BLOCK], [0; BLOCK]);
        for_each_block(items, |block| {
            for (i, &(a, b)) in block.iter().enumerate() {
                (firsts[i], seconds[i]) = (a, b);
            }
            self.first.fold_block(&firsts[..block.len()], &mut scratch);
            self.second
                .fold_block(&seconds[..block.len()], &mut scratch);
        });
    }

    fn merge(&mut self, other: Self) {
        self.first.merge(other.first);
        self.second.merge(other.second);
    }

    fn finalize(self) -> Self::Digest {
        (self.first.finalize(), self.second.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::run;

    fn chunk(v: &[u64], rank: usize, p: usize) -> Vec<u64> {
        let base = v.len() / p;
        let extra = v.len() % p;
        let start = rank * base + rank.min(extra);
        let len = base + usize::from(rank < extra);
        v[start..start + len].to_vec()
    }

    /// Distribute zipped pairs with a *different* (skewed) distribution
    /// than the inputs, preserving the global rank-concatenation order:
    /// PE 0 takes a double share, the last PE the remainder.
    fn chunk_pairs(v: &[(u64, u64)], rank: usize, p: usize) -> Vec<(u64, u64)> {
        let (n, base) = (v.len(), v.len() / (p + 1));
        let bound = |r: usize| match r {
            0 => 0,
            _ if r == p => n,
            _ => ((r + 1) * base).min(n),
        };
        v[bound(rank)..bound(rank + 1)].to_vec()
    }

    #[test]
    fn accepts_correct_zip() {
        let n = 400usize;
        let s1: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
        let s2: Vec<u64> = (0..n as u64).map(|i| 10_000 + i).collect();
        let zipped: Vec<(u64, u64)> = s1.iter().copied().zip(s2.iter().copied()).collect();
        for p in [1, 2, 4] {
            let verdicts = run(p, |comm| {
                let checker = ZipChecker::new(ZipCheckConfig::default(), 11);
                checker.check(
                    comm,
                    &chunk(&s1, comm.rank(), p),
                    &chunk(&s2, comm.rank(), p),
                    &chunk_pairs(&zipped, comm.rank(), p),
                )
            });
            assert!(verdicts.iter().all(|&v| v), "p={p}");
        }
    }

    #[test]
    fn rejects_swapped_adjacent_pairs() {
        // Same multiset, wrong order — the case a permutation check
        // cannot catch but Zip's position-sensitive hash must.
        let n = 100usize;
        let s1: Vec<u64> = (0..n as u64).collect();
        let s2: Vec<u64> = (0..n as u64).map(|i| 1000 + i).collect();
        let mut zipped: Vec<(u64, u64)> = s1.iter().copied().zip(s2.iter().copied()).collect();
        zipped.swap(10, 11);
        let verdicts = run(2, |comm| {
            let checker = ZipChecker::new(ZipCheckConfig::default(), 3);
            checker.check(
                comm,
                &chunk(&s1, comm.rank(), 2),
                &chunk(&s2, comm.rank(), 2),
                &chunk_pairs(&zipped, comm.rank(), 2),
            )
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_misaligned_pairing() {
        // Pair s1[i] with s2[i+1]: both component multisets survive in
        // order individually... s2 column shifts — fingerprint of second
        // component must differ.
        let n = 50usize;
        let s1: Vec<u64> = (0..n as u64).collect();
        let s2: Vec<u64> = (0..n as u64).map(|i| 1000 + i).collect();
        let zipped: Vec<(u64, u64)> = (0..n).map(|i| (s1[i], s2[(i + 1) % n])).collect();
        let verdicts = run(2, |comm| {
            let checker = ZipChecker::new(ZipCheckConfig::default(), 5);
            checker.check(
                comm,
                &chunk(&s1, comm.rank(), 2),
                &chunk(&s2, comm.rank(), 2),
                &chunk_pairs(&zipped, comm.rank(), 2),
            )
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn rejects_length_mismatch() {
        let verdicts = run(2, |comm| {
            let rank = comm.rank() as u64;
            let s1: Vec<u64> = (0..50).map(|i| rank * 50 + i).collect();
            let s2: Vec<u64> = (0..50).map(|i| rank * 50 + i).collect();
            // Zipped output lost an element on PE 1.
            let zipped: Vec<(u64, u64)> = (0..if rank == 0 { 50 } else { 49 })
                .map(|i| {
                    let g = rank * 50 + i;
                    (g, g)
                })
                .collect();
            let checker = ZipChecker::new(ZipCheckConfig::default(), 1);
            checker.check(comm, &s1, &s2, &zipped)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn sketch_chunking_invariance() {
        // Adjacent chunk sketches merge to the one-shot digest.
        let checker = ZipChecker::new(ZipCheckConfig::default(), 77);
        let data: Vec<u64> = (0..200u64).map(|i| i * 31 + 5).collect();
        let mut one_shot = checker.sketch(0, 40);
        one_shot.update_iter(data.iter().copied());
        let expected = one_shot.finalize();
        for chunk in [1usize, 3, 50, 199, 200, 999] {
            let mut acc = checker.sketch(0, 40);
            for batch in data.chunks(chunk) {
                let mut s = checker.sketch(0, acc.next_index());
                s.update_iter(batch.iter().copied());
                acc.merge(s);
            }
            assert_eq!(acc.finalize(), expected, "chunk={chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "adjacent index ranges")]
    fn sketch_rejects_non_adjacent_merge() {
        let checker = ZipChecker::new(ZipCheckConfig::default(), 1);
        let mut a = checker.sketch(0, 0);
        a.update(9);
        let b = checker.sketch(0, 5); // gap: indices 1..5 missing
        a.merge(b);
    }

    #[test]
    fn streaming_check_matches_slice_path() {
        let n = 120usize;
        let s1: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
        let s2: Vec<u64> = (0..n as u64).map(|i| 7_000 + i).collect();
        let zipped: Vec<(u64, u64)> = s1.iter().copied().zip(s2.iter().copied()).collect();
        for corrupt in [false, true] {
            let verdicts = run(3, |comm| {
                let mut z = chunk_pairs(&zipped, comm.rank(), 3);
                if corrupt && comm.rank() == 0 && !z.is_empty() {
                    z[0].1 ^= 1;
                }
                let a = chunk(&s1, comm.rank(), 3);
                let b = chunk(&s2, comm.rank(), 3);
                let checker = ZipChecker::new(ZipCheckConfig::default(), 11);
                let slice = checker.check(comm, &a, &b, &z);
                let stream = checker.check_stream(
                    comm,
                    (a.len() as u64, a.iter().copied()),
                    (b.len() as u64, b.iter().copied()),
                    (z.len() as u64, z.iter().copied()),
                );
                (slice, stream)
            });
            assert!(
                verdicts.iter().all(|&(s, t)| s == t && s != corrupt),
                "corrupt={corrupt}: {verdicts:?}"
            );
        }
    }

    #[test]
    fn every_lane_of_the_one_allreduce_is_compared() {
        // One changed component must be caught through its own lane pair
        // of the verdict's one reduction at 1, 4 and 16 iterations, and a
        // correct zip accepted.
        let n = 90usize;
        let s1: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
        let s2: Vec<u64> = (0..n as u64).map(|i| 7_000 + i).collect();
        let zipped: Vec<(u64, u64)> = s1.iter().copied().zip(s2.iter().copied()).collect();
        for iterations in [1, 4, 16] {
            let cfg = ZipCheckConfig {
                hasher: HasherKind::Tab64,
                iterations,
            };
            for p in [2, 3, 5] {
                for corrupt in [None, Some(0), Some(1)] {
                    let verdicts = run(p, |comm| {
                        let mut z = chunk_pairs(&zipped, comm.rank(), p);
                        if comm.rank() == p - 1 {
                            match corrupt {
                                Some(0) => z[0].0 ^= 1,
                                Some(_) => z[0].1 ^= 1,
                                None => {}
                            }
                        }
                        let a = chunk(&s1, comm.rank(), p);
                        let b = chunk(&s2, comm.rank(), p);
                        ZipChecker::new(cfg, 11).check(comm, &a, &b, &z)
                    });
                    assert!(
                        verdicts.iter().all(|&v| v == corrupt.is_none()),
                        "iterations={iterations} p={p} corrupt={corrupt:?}: {verdicts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn accepts_empty_sequences() {
        let verdicts = run(3, |comm| {
            let checker = ZipChecker::new(ZipCheckConfig::default(), 9);
            checker.check(comm, &[], &[], &[])
        });
        assert!(verdicts.iter().all(|&v| v));
    }
}
