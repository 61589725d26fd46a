//! The streaming sketch core every checker is built on.
//!
//! All of the paper's checkers share one structure: each PE folds its
//! local elements into a **constant-size commutative summary** (a
//! hash-sum table, a fingerprint, a field product) and only the summary
//! is communicated. That makes them *mergeable one-pass sketches* in the
//! sense of the annotated-data-streams literature (Chakrabarti et al.):
//! verification state is updatable element-at-a-time and mergeable
//! across arbitrary splits of the input.
//!
//! [`Sketch`] captures that contract. Every implementation guarantees
//! **chunking invariance**: for any partition of a multiset of items
//! into chunks, folding each chunk into a fresh sketch and merging the
//! sketches yields a [`Sketch::finalize`] digest bit-identical to
//! feeding all items into one sketch — and therefore to the digest the
//! slice-based `check_local`/`check_distributed` drivers compute. Input
//! size `n` never appears in the sketch's memory footprint, so checking
//! works out-of-core: stream the data through in chunks of any size.
//!
//! Implementations, and the [`crate::Lanes`] rows their checker's
//! `lanes(input, output)` makes of two digests for the one verdict:
//!
//! | Sketch | Checker | State | Lanes |
//! |---|---|---|---|
//! | [`crate::sum::SumSketch`] | [`crate::SumChecker`] | `its × d` bucket sums in ℤ/rᵢℤ | `its` rows of `d` differences mod rᵢ |
//! | [`crate::xorsum::XorSketch`] | [`crate::XorChecker`] | `its × d` bucket xors | one row of `its·d` xors |
//! | [`crate::permutation::PermSketch`] | [`crate::PermChecker`] | element count, per-iteration hash sum / poly product | count difference; `its` sum differences mod 2¹²⁸ or product pairs |
//! | [`crate::zip::ZipSketch`] | [`crate::ZipChecker`] | per-iteration inner-product fingerprint | `2·its` differences in 𝔽_{2⁶¹−1} (from the lockstep walk) |
//!
//! # Block folds
//!
//! [`Sketch::update`] *defines* each digest: one item, all iterations.
//! It is also the slowest way to compute it — every item drags every
//! iteration's hash tables (16 KiB each for Tab64) through the cache and
//! pays one dispatch and one modular reduction per hash. The digest,
//! however, is a property of the multiset (or, for zip, of the indexed
//! sequence), not of the order in which the fold touches memory. So
//! every sketch overrides [`Sketch::update_iter`] with a **block fold**:
//! buffer up to 256 items on the stack, then hash the whole block with
//! one hasher's tables hot in L1 ([`ccheck_hashing::Hasher::hash_batch`],
//! tabulation paying one lookup per significant byte of the block's
//! widest key and CRC-32C running on the `crc32` instruction where the
//! CPU has it; consecutive zip positions via
//! [`ccheck_hashing::Hasher::hash_run`], one table lookup per key), and
//! let sums accumulate unreduced.
//!
//! The sum, xor and hash-sum permutation sketches draw every iteration
//! from one [`ccheck_hashing::PartitionedHash`] (§7.1: one hash word,
//! sliced into many iterations' values), so their block folds go through
//! [`PartitionedHash::hash_block`]: each key is hashed once per *word*,
//! and the iterations a word serves read their slots from the same
//! batch. The sum and xor sketches share one **fused** bucket fold
//! (`fold_buckets`): a single pass over the block reads each key's
//! word once and updates the bucket of every iteration the word serves,
//! unrolled and with the bucket count a compile-time constant. Every sum
//! and xor path — `update`, `update_iter`, `condense`, the signed forms —
//! is that fold; `update` runs it over a one-item block.
//!
//! Addition in ℤ, in ℤ/rℤ and in 𝔽_{2⁶¹−1} is associative and
//! commutative, and xor is too, so the result is the same canonical
//! value bit for bit; `tests/golden_digests.rs` pins that against digests
//! recorded from the element-wise kernels, and property tests compare
//! the two paths on arbitrary inputs. The hash instances themselves are
//! built once, in the checker's constructor; sketches only borrow them.
//!
//! ```
//! use ccheck::sketch::Sketch;
//! use ccheck::{SumCheckConfig, SumChecker};
//! use ccheck_hashing::HasherKind;
//!
//! let checker = SumChecker::new(SumCheckConfig::new(4, 8, 5, HasherKind::Tab64), 42);
//!
//! // Stream the input through in two chunks instead of one slice...
//! let mut first = checker.sketch();
//! first.update((1, 10));
//! first.update((2, 5));
//! let mut second = checker.sketch();
//! second.update((1, 7));
//!
//! // ...merge, and the digest is identical to the one-shot fold.
//! let mut one_shot = checker.sketch();
//! one_shot.update_iter([(1u64, 10u64), (2, 5), (1, 7)]);
//! first.merge(second);
//! assert_eq!(first.finalize(), one_shot.finalize());
//! ```

use ccheck_hashing::{BucketMap, PartitionedHash};

/// A mergeable one-pass summary of a stream of items.
///
/// Implementations are created by their checker (e.g.
/// [`crate::SumChecker::sketch`]) so that every sketch of one checker
/// instance shares the same hash functions and moduli; merging sketches
/// from *different* checker instances is a programming error and
/// panics.
pub trait Sketch: Sized {
    /// Element type folded into the sketch.
    type Item;

    /// The finalized, canonical summary. Two digests compare equal iff
    /// the checker would accept the two streams as equivalent.
    type Digest: PartialEq + Clone + std::fmt::Debug;

    /// Fold one item into the sketch. O(its) time, no allocation.
    ///
    /// This is the definition of the digest: whatever faster path an
    /// implementation offers through [`Sketch::update_iter`] is tested
    /// against it.
    fn update(&mut self, item: Self::Item);

    /// Absorb another sketch of the same checker instance.
    ///
    /// Merging is commutative and associative, so any chunking of the
    /// input — across threads, PEs, or time — produces the same digest.
    fn merge(&mut self, other: Self);

    /// Reduce to the canonical digest (e.g. take residues mod rᵢ).
    fn finalize(self) -> Self::Digest;

    /// Fold every item of an iterator (the streaming `condense`) — the
    /// entry point every checker, executor and benchmark drives.
    ///
    /// Contract for overriding implementations (the block folds): the
    /// call may buffer items internally while it runs, but on return
    /// the sketch must be in exactly the state `update` called once per
    /// item, in order, would have left it in — same digest, same
    /// counters, nothing held back. Chunking invariance is unchanged:
    /// it makes no difference how a stream is cut into `update_iter`
    /// calls, `update` calls, or merged sub-sketches.
    fn update_iter<I: IntoIterator<Item = Self::Item>>(&mut self, items: I) {
        for item in items {
            self.update(item);
        }
    }
}

/// Items per block of a block fold (see the module docs): 2 KiB of
/// `u64` per scratch array, small next to one hasher's 16 KiB of tables.
/// Also the block size a [`Tee`] hands its observer.
pub const BLOCK: usize = 256;

/// The fused fold of the bucketed sketches (sum and xor): fold the pairs
/// `(keys[j], values[j])` into the `instances × d` `table` of `hash`,
/// every iteration at once, calling `add(bucket, value, i)` for the
/// bucket of iteration `i`. Each hash word is evaluated once per key
/// ([`PartitionedHash::hash_block`] into `words`, which must hold
/// `keys.len()` words); one pass over the block then reads each key's word
/// once and makes the update of every iteration that word serves while
/// it is in a register. For a power-of-two `d` up to 2¹⁶ the pass is
/// monomorphised over `d` ([`Pow2`]), so the slot shift, the mask and the
/// row bounds are constants; other bucket counts map slots through `map`
/// ([`Mapped`]). Each bucket sees its additions in the order element-wise
/// folding makes them.
pub(crate) fn fold_buckets<V: Copy>(
    hash: &PartitionedHash,
    map: BucketMap,
    table: &mut [u64],
    keys: &[u64],
    values: &[V],
    words: &mut [u64],
    add: impl Fn(&mut u64, V, usize),
) {
    assert_eq!(keys.len(), values.len(), "one value per key");
    debug_assert_eq!(hash.bits(), map.bits(), "slots as wide as the map reads");
    let d = table.len() / hash.instances();
    let mapped = Mapped {
        map,
        d,
        bits: hash.bits(),
    };
    hash.hash_block(keys, words, |instances, words| {
        let first = instances.start;
        let rows = &mut table[first * d..instances.end * d];
        let add = |bucket: &mut u64, value, k| add(bucket, value, first + k);
        macro_rules! pow2 {
            ($($d:literal)*) => {
                match (map, d) {
                    $((BucketMap::Pow2 { .. }, $d) => fold_word(Pow2::<$d>, rows, words, values, add),)*
                    _ => fold_word(mapped, rows, words, values, add),
                }
            };
        }
        pow2!(2 4 8 16 32 64 128 256 512 1024 2048 4096 8192 16384 32768 65536)
    });
}

/// The rows of a bucket table as [`fold_word`] sees them: `d` buckets a
/// row, and the bucket a row takes from the lowest `bits` bits of a hash
/// word's remaining slots.
trait Rows: Copy {
    fn d(self) -> usize;
    fn bits(self) -> u32;
    fn bucket(self, slots: u64) -> usize;
}

/// `D` buckets a row, a power of two: every shift, mask and row bound is
/// a constant.
#[derive(Clone, Copy)]
struct Pow2<const D: usize>;

impl<const D: usize> Rows for Pow2<D> {
    #[inline(always)]
    fn d(self) -> usize {
        D
    }
    #[inline(always)]
    fn bits(self) -> u32 {
        D.trailing_zeros()
    }
    #[inline(always)]
    fn bucket(self, slots: u64) -> usize {
        slots as usize & (D - 1)
    }
}

/// Any other bucket count, through the checker's [`BucketMap`].
#[derive(Clone, Copy)]
struct Mapped {
    map: BucketMap,
    d: usize,
    bits: u32,
}

impl Rows for Mapped {
    #[inline(always)]
    fn d(self) -> usize {
        self.d
    }
    #[inline(always)]
    fn bits(self) -> u32 {
        self.bits
    }
    #[inline(always)]
    fn bucket(self, slots: u64) -> usize {
        self.map.map(slots & (u64::MAX >> (64 - self.bits)))
    }
}

/// One word's pass of [`fold_buckets`]: the slots are the word's
/// consecutive `bits`-bit groups, lowest first, one per row. A word
/// serving one to four rows updates them in one unrolled step per key;
/// more rows go four at a time, then the last one to three together.
#[inline(always)]
fn fold_word<V: Copy, R: Rows>(
    r: R,
    rows: &mut [u64],
    words: &[u64],
    values: &[V],
    add: impl Fn(&mut u64, V, usize),
) {
    match rows.len() / r.d() {
        1 => fold_keys::<V, R, 1>(r, rows, words, values, add),
        2 => fold_keys::<V, R, 2>(r, rows, words, values, add),
        3 => fold_keys::<V, R, 3>(r, rows, words, values, add),
        4 => fold_keys::<V, R, 4>(r, rows, words, values, add),
        _ => fold_keys_by_quads(r, rows, words, values, add),
    }
}

// The loops below are kept out of line: as functions, their `rows` is a
// `&mut` parameter the compiler knows nothing else points into, and each
// loop gets the registers to itself, so the pointers stay in registers
// across the bucket stores instead of being reloaded for every key.

/// [`fold_word`] for exactly `G` rows.
#[inline(never)]
fn fold_keys<V: Copy, R: Rows, const G: usize>(
    r: R,
    rows: &mut [u64],
    words: &[u64],
    values: &[V],
    add: impl Fn(&mut u64, V, usize),
) {
    let rows = &mut rows[..G * r.d()];
    for (&word, &value) in words.iter().zip(values) {
        fold_rows::<V, R, G>(r, rows, word, value, 0, &add);
    }
}

/// [`fold_word`] for more than four rows.
#[inline(never)]
fn fold_keys_by_quads<V: Copy, R: Rows>(
    r: R,
    rows: &mut [u64],
    words: &[u64],
    values: &[V],
    add: impl Fn(&mut u64, V, usize),
) {
    let (d, n) = (r.d(), rows.len() / r.d());
    let (quads, rest) = rows.split_at_mut(n / 4 * 4 * d);
    for (&word, &value) in words.iter().zip(values) {
        let mut slots = word;
        for q in 0..n / 4 {
            let quad = &mut quads[q * 4 * d..][..4 * d];
            fold_rows::<V, R, 4>(r, quad, slots, value, 4 * q, &add);
            slots = slots.checked_shr(4 * r.bits()).unwrap_or(0);
        }
        let k = n / 4 * 4;
        match n % 4 {
            1 => fold_rows::<V, R, 1>(r, &mut rest[..d], slots, value, k, &add),
            2 => fold_rows::<V, R, 2>(r, &mut rest[..2 * d], slots, value, k, &add),
            3 => fold_rows::<V, R, 3>(r, &mut rest[..3 * d], slots, value, k, &add),
            _ => {}
        }
    }
}

/// The updates of one key in `G` consecutive rows, the first row `k`.
#[inline(always)]
fn fold_rows<V: Copy, R: Rows, const G: usize>(
    r: R,
    rows: &mut [u64],
    slots: u64,
    value: V,
    k: usize,
    add: impl Fn(&mut u64, V, usize),
) {
    for j in 0..G {
        let bucket = r.bucket(slots >> (j as u32 * r.bits()));
        add(&mut rows[j * r.d() + bucket], value, k + j);
    }
}

/// The buffering loop of the bucketed sketches: collect up to [`BLOCK`]
/// pairs as a key array and a value array on the stack, and call
/// `fold(keys, values, words)` on each full block, then on the final
/// partial one, with `words` scratch for one hash word per key. Never
/// calls `fold` with an empty block.
pub(crate) fn for_each_pair_block<V: Copy + Default>(
    pairs: impl IntoIterator<Item = (u64, V)>,
    mut fold: impl FnMut(&[u64], &[V], &mut [u64]),
) {
    let mut keys = [0; BLOCK];
    let mut values = [V::default(); BLOCK];
    let mut words = [0; BLOCK];
    let mut filled = 0;
    for (key, value) in pairs {
        keys[filled] = key;
        values[filled] = value;
        filled += 1;
        if filled == BLOCK {
            fold(&keys, &values, &mut words);
            filled = 0;
        }
    }
    if filled > 0 {
        fold(&keys[..filled], &values[..filled], &mut words);
    }
}

/// [`for_each_pair_block`] over a slice, cut into blocks in place: each
/// block's split into keys and values is one loop over a slice of known
/// length, which the compiler vectorizes, where the stream's loop must
/// test for a full block after every pair.
pub(crate) fn for_each_pair_chunk<V: Copy + Default>(
    pairs: &[(u64, V)],
    mut fold: impl FnMut(&[u64], &[V], &mut [u64]),
) {
    let mut keys = [0; BLOCK];
    let mut values = [V::default(); BLOCK];
    let mut words = [0; BLOCK];
    for chunk in pairs.chunks(BLOCK) {
        let (keys, values) = (&mut keys[..chunk.len()], &mut values[..chunk.len()]);
        for ((key, value), &(k, v)) in keys.iter_mut().zip(values.iter_mut()).zip(chunk) {
            *key = k;
            *value = v;
        }
        fold(keys, values, &mut words);
    }
}

/// The buffering loop of every block fold: collect up to [`BLOCK`] items
/// on the stack and hand each full block, then the final partial one, to
/// `fold`. Never calls `fold` with an empty block.
pub(crate) fn for_each_block<T: Copy + Default>(
    items: impl IntoIterator<Item = T>,
    mut fold: impl FnMut(&[T]),
) {
    let mut block = [T::default(); BLOCK];
    let mut filled = 0;
    for item in items {
        block[filled] = item;
        filled += 1;
        if filled == BLOCK {
            fold(&block);
            filled = 0;
        }
    }
    if filled > 0 {
        fold(&block[..filled]);
    }
}

/// Single-pass checking: an iterator adaptor that shows every item of a
/// stream to an observer on its way to the consumer.
///
/// A `Tee` pulls up to [`BLOCK`] items from the inner stream, hands that
/// block to `observe`, and then yields the items one by one. Passing
/// `&mut tee` to an operation that ingests an iterator (the chunked
/// dataflow ops) lets a checker fold the operation's input *in the
/// operation's own pass*: nothing is regenerated or copied for the
/// checker, and the observer sees block-sized slices, which is what the
/// block folds want (`|block| sketch.update_iter(block.iter().copied())`).
///
/// Every item reaches `observe` exactly once, in stream order, before
/// it is yielded; blocks are never empty. An operation may stop reading
/// early, so dropping the tee drains the rest of the stream through
/// `observe` ([`Tee::finish`] spells that drop out): an operation that
/// silently drops a suffix is checked against the whole input, not
/// against the prefix it read. The observer's borrows (the checker's
/// sketch) last until that drop, so the compiler rejects reading the
/// sketch before the drain.
///
/// ```
/// use ccheck::sketch::{Sketch, Tee};
/// use ccheck::{PermCheckConfig, PermChecker};
/// use ccheck_hashing::HasherKind;
///
/// let checker = PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 7);
/// let mut input = checker.sketch();
/// let mut tee = Tee::new(0..1000u64, |block| input.update_iter(block.iter().copied()));
/// // The "operation" reads half of its input...
/// let output: Vec<u64> = tee.by_ref().take(500).collect();
/// tee.finish();
/// // ...and the checker, having seen all of it, rejects the result.
/// let mut asserted = checker.sketch();
/// asserted.update_iter(output);
/// assert_ne!(input.finalize(), asserted.finalize());
/// ```
pub struct Tee<I, F>
where
    I: Iterator,
    I::Item: Copy + Default,
    F: FnMut(&[I::Item]),
{
    inner: std::iter::Fuse<I>,
    observe: F,
    block: [I::Item; BLOCK],
    /// Items in the current block, all already observed.
    filled: usize,
    /// Items of the current block already yielded.
    next: usize,
}

impl<I, F> Tee<I, F>
where
    I: Iterator,
    I::Item: Copy + Default,
    F: FnMut(&[I::Item]),
{
    /// Wrap `items`, showing each block of them to `observe`.
    pub fn new(items: impl IntoIterator<IntoIter = I>, observe: F) -> Self {
        Tee {
            inner: items.into_iter().fuse(),
            observe,
            block: [I::Item::default(); BLOCK],
            filled: 0,
            next: 0,
        }
    }

    /// Drop the tee, which hands whatever the consumer did not read to
    /// the observer.
    pub fn finish(self) {
        drop(self);
    }
}

impl<I, F> Drop for Tee<I, F>
where
    I: Iterator,
    I::Item: Copy + Default,
    F: FnMut(&[I::Item]),
{
    /// The rest of the current block was observed when it was pulled;
    /// the rest of the stream goes through `observe` in blocks. Skipped
    /// while unwinding: the job is failing anyway, and a lazy input may
    /// be long.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            for_each_block(&mut self.inner, &mut self.observe);
        }
    }
}

impl<I, F> Iterator for Tee<I, F>
where
    I: Iterator,
    I::Item: Copy + Default,
    F: FnMut(&[I::Item]),
{
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        if self.next == self.filled {
            self.next = 0;
            self.filled = 0;
            for (slot, item) in self.block.iter_mut().zip(self.inner.by_ref()) {
                *slot = item;
                self.filled += 1;
            }
            if self.filled == 0 {
                return None;
            }
            (self.observe)(&self.block[..self.filled]);
        }
        let item = self.block[self.next];
        self.next += 1;
        Some(item)
    }

    /// The inner stream's hint plus the items of the current block not
    /// yet yielded, so a consumer sizes its buffers as it would for the
    /// bare stream.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let held = self.filled - self.next;
        let (lo, hi) = self.inner.size_hint();
        (
            lo.saturating_add(held),
            hi.and_then(|hi| hi.checked_add(held)),
        )
    }
}

/// Fold `items` through a fresh sketch per `chunk`-sized batch, merging
/// as it goes — the reference driver for chunked execution, and the
/// harness the chunking-invariance tests exercise. Each chunk goes
/// through [`Sketch::update_iter`], so chunked execution runs the same
/// kernels as one-shot execution.
///
/// `make` is called once per chunk to obtain an empty sketch (all calls
/// must come from the same checker instance). With `chunk == usize::MAX`
/// this degenerates to a single one-shot fold; an empty stream yields
/// the empty sketch's digest.
///
/// # Panics
/// Panics if `chunk == 0`.
pub fn digest_chunked<S: Sketch, I>(make: impl Fn() -> S, items: I, chunk: usize) -> S::Digest
where
    I: IntoIterator<Item = S::Item>,
{
    assert!(chunk > 0, "chunk size must be positive");
    let mut items = items.into_iter().peekable();
    let mut acc = make();
    acc.update_iter(items.by_ref().take(chunk));
    while items.peek().is_some() {
        let mut next = make();
        next.update_iter(items.by_ref().take(chunk));
        acc.merge(next);
    }
    acc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy sketch (sum of items) to test the generic driver.
    struct Adder(u64);
    impl Sketch for Adder {
        type Item = u64;
        type Digest = u64;
        fn update(&mut self, item: u64) {
            self.0 = self.0.wrapping_add(item);
        }
        fn merge(&mut self, other: Self) {
            self.0 = self.0.wrapping_add(other.0);
        }
        fn finalize(self) -> u64 {
            self.0
        }
    }

    #[test]
    fn digest_chunked_matches_one_shot() {
        let items: Vec<u64> = (0..100).collect();
        let one_shot = digest_chunked(|| Adder(0), items.iter().copied(), usize::MAX);
        for chunk in [1, 2, 3, 7, 50, 99, 100, 1000] {
            assert_eq!(
                digest_chunked(|| Adder(0), items.iter().copied(), chunk),
                one_shot,
                "chunk={chunk}"
            );
        }
    }

    /// Records the length of every `update_iter` call it receives.
    struct ChunkLens(Vec<usize>);
    impl Sketch for ChunkLens {
        type Item = u64;
        type Digest = Vec<usize>;
        fn update(&mut self, _: u64) {
            unreachable!("digest_chunked must feed chunks, not items");
        }
        fn update_iter<I: IntoIterator<Item = u64>>(&mut self, items: I) {
            self.0.push(items.into_iter().count());
        }
        fn merge(&mut self, other: Self) {
            self.0.extend(other.0);
        }
        fn finalize(self) -> Vec<usize> {
            self.0
        }
    }

    #[test]
    fn digest_chunked_feeds_whole_chunks_through_update_iter() {
        let lens = |n: u64, chunk| digest_chunked(|| ChunkLens(Vec::new()), 0..n, chunk);
        assert_eq!(lens(10, 4), [4, 4, 2]);
        assert_eq!(lens(8, 4), [4, 4]);
        assert_eq!(lens(3, usize::MAX), [3]);
        assert_eq!(lens(0, 4), [0]);
    }

    #[test]
    fn for_each_block_cuts_at_the_block_size_and_skips_empty_blocks() {
        for n in [0usize, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
            let mut seen = Vec::new();
            for_each_block(0..n as u64, |block| {
                assert!(!block.is_empty() && block.len() <= BLOCK);
                seen.extend_from_slice(block);
            });
            assert_eq!(seen, (0..n as u64).collect::<Vec<_>>(), "n={n}");
        }
    }

    const TEE_LENGTHS: [usize; 6] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7];

    #[test]
    fn tee_observes_every_item_once_before_yielding_it() {
        for n in TEE_LENGTHS {
            for stop in 0..=n {
                let observed = std::cell::RefCell::new(Vec::new());
                let mut tee = Tee::new(0..n as u64, |block: &[u64]| {
                    assert!(!block.is_empty() && block.len() <= BLOCK, "n={n}");
                    observed.borrow_mut().extend_from_slice(block);
                });
                for (i, item) in tee.by_ref().take(stop).enumerate() {
                    assert_eq!(item, i as u64, "n={n} stop={stop}: yielded out of order");
                    assert_eq!(
                        observed.borrow().get(i),
                        Some(&item),
                        "n={n} stop={stop}: yielded before observed"
                    );
                }
                if stop == n {
                    assert_eq!(tee.next(), None, "n={n}");
                }
                tee.finish();
                assert_eq!(
                    *observed.borrow(),
                    (0..n as u64).collect::<Vec<_>>(),
                    "n={n} stop={stop}: finish must deliver the rest, once"
                );
            }
        }
    }

    #[test]
    fn tee_size_hint_counts_what_is_left() {
        for n in TEE_LENGTHS {
            let mut tee = Tee::new(0..n as u64, |_: &[u64]| {});
            for left in (0..=n).rev() {
                assert_eq!(tee.size_hint(), (left, Some(left)), "n={n}");
                assert_eq!(tee.next().is_some(), left > 0, "n={n}");
            }
        }
    }

    #[test]
    fn sketches_folded_through_a_tee_match_update_iter() {
        use crate::{PermCheckConfig, PermChecker, SumCheckConfig, SumChecker};
        use ccheck_hashing::HasherKind;

        let sum = SumChecker::new(SumCheckConfig::new(4, 16, 9, HasherKind::Tab64), 5);
        let perm = PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 5);
        for n in TEE_LENGTHS {
            let pairs: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 41, i * 7 + 1)).collect();
            for stop in [0, n / 2, n] {
                let mut teed = sum.sketch();
                let mut tee = Tee::new(pairs.iter().copied(), |block: &[(u64, u64)]| {
                    teed.update_iter(block.iter().copied())
                });
                tee.by_ref().take(stop).for_each(drop);
                tee.finish();
                let mut whole = sum.sketch();
                whole.update_iter(pairs.iter().copied());
                assert_eq!(teed.finalize(), whole.finalize(), "sum n={n} stop={stop}");

                let keys = pairs.iter().map(|&(k, v)| k ^ v);
                let mut teed = perm.sketch();
                let mut tee = Tee::new(keys.clone(), |block: &[u64]| {
                    teed.update_iter(block.iter().copied())
                });
                tee.by_ref().take(stop).for_each(drop);
                tee.finish();
                let mut whole = perm.sketch();
                whole.update_iter(keys);
                assert_eq!(teed.finalize(), whole.finalize(), "perm n={n} stop={stop}");
            }
        }
    }

    #[test]
    fn digest_chunked_empty_stream_is_empty_sketch_digest() {
        let empty = digest_chunked(|| Adder(0), std::iter::empty(), 4);
        assert_eq!(empty, Adder(0).finalize());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn digest_chunked_rejects_zero_chunk() {
        let _ = digest_chunked(|| Adder(0), [1u64], 0);
    }
}
