//! One verdict for every linear checker: the difference of two sketches
//! as [`Lanes`], and one reduction.
//!
//! The sum, xor, permutation and zip checkers fold each side of an
//! operation into a linear summary and accept iff the summaries of all
//! PEs' data agree (§4 Algorithm 1, §5, §6.4). Linear summaries subtract:
//! input minus output is zero exactly when the two agree, and the PEs'
//! differences add up to the difference of the totals. So each checker's
//! `lanes(input, output)` turns two finalized digests into [`Lanes`];
//! [`Lanes::accepts`] is the local check, and [`verdict`] reduces every
//! PE's lanes to PE 0, tests them there and broadcasts one byte.
//! [`settle`] is the same two collectives with a payload riding in every
//! message — how a job's executor ends a job in one collective, with
//! its receipt's totals beside the verdict.
//!
//! [`Lanes`] is a vector of words cut into rows, each combined across PEs
//! by its own [`Op`]. The row shape comes from the checker's config on
//! every PE, so only the words travel, packed: each word at its row's
//! width ([`Op::bits`]), the rows in order as one little-endian bit
//! stream with zero padding in the last byte only and no length prefix.
//! The sum check's table thus moves exactly
//! [`SumCheckConfig::table_bits`](crate::SumCheckConfig::table_bits),
//! rounded up to a byte, as §4 counts it.
//!
//! | Row | Combiner | Bits a word | Rows of |
//! |---|---|---|---|
//! | [`Op::AddMod`] | addition in ℤ/rℤ | bit length of `r − 1`: `m + 1` for a sum modulus in `(2ᵐ, 2ᵐ⁺¹]`, 61 for `2⁶¹ − 1` | sum, signed-sum and count tables (one row per iteration); zip's differences (`r = 2⁶¹ − 1`) |
//! | [`Op::Xor`] | xor | 64 | xor tables |
//! | [`Op::Add`] | addition mod 2⁶⁴ | 64 | element counts; vetoes |
//! | [`Op::Add128`] | addition mod 2¹²⁸ of `(low, high)` pairs | 2 × 64 a pair | exact hash sums |
//! | [`Op::MulMersenne61`] | `(input, output)` pairs, each half multiplied in 𝔽_{2⁶¹−1} | 61 | polynomial permutation fingerprints |
//! | [`Op::MulGf64`] | `(input, output)` pairs, each half multiplied in GF(2⁶⁴) | 64 | polynomial permutation fingerprints |
//!
//! Products do not subtract, so the polynomial rows keep both sides and
//! accept when the halves agree. A composite check (average, median,
//! float sum, GroupBy and join redistribution) concatenates its checks'
//! lanes behind a [`Lanes::veto`] carrying its local tests: still one
//! reduce and one broadcast.
//!
//! ```
//! use ccheck::sketch::digest_chunked;
//! use ccheck::{verdict, XorCheckConfig, XorChecker};
//! use ccheck_hashing::HasherKind;
//!
//! let checker = XorChecker::new(XorCheckConfig::new(4, 16, HasherKind::Tab64), 3);
//! let digest = |side: &[(u64, u64)]| {
//!     digest_chunked(|| checker.sketch(), side.iter().copied(), usize::MAX)
//! };
//! let (input, correct) = ([(1, 0b1010), (2, 0b0110), (1, 0b0011)], [(1, 0b1001), (2, 0b0110)]);
//! assert!(checker.lanes(digest(&input), digest(&correct)).accepts());
//! assert!(!checker.lanes(digest(&input), digest(&correct[1..])).accepts());
//! let verdicts = ccheck_net::run(2, |comm| {
//!     let (mine, asserted) = [(&input[..2], &correct[..]), (&input[2..], &[])][comm.rank()];
//!     verdict(comm, checker.lanes(digest(mine), digest(asserted)))
//! });
//! assert_eq!(verdicts, [true, true]);
//! ```

use ccheck_hashing::field::{addmod, Mersenne61};
use ccheck_hashing::gf64::gf_mul;
use ccheck_net::wire::{Run, Wire};
use ccheck_net::Comm;

/// How the words of one row combine across PEs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Addition in ℤ/rℤ of canonical residues (`< r`).
    AddMod(u64),
    /// Xor.
    Xor,
    /// Addition mod 2⁶⁴.
    Add,
    /// Addition mod 2¹²⁸ of `(low, high)` word pairs.
    Add128,
    /// `(input, output)` word pairs, each half multiplied in 𝔽_{2⁶¹−1}.
    MulMersenne61,
    /// `(input, output)` word pairs, each half multiplied in GF(2⁶⁴).
    MulGf64,
}

impl Op {
    /// The bits a word of this row takes on the wire: the bit length of
    /// `r − 1` for [`Op::AddMod`]`(r)`, 61 for [`Op::MulMersenne61`], 64
    /// for the others (so an [`Op::Add128`] pair takes 2 × 64). Every
    /// canonical word fits.
    pub fn bits(self) -> u32 {
        match self {
            Op::AddMod(r) => u64::BITS - r.saturating_sub(1).leading_zeros(),
            Op::MulMersenne61 => 61,
            Op::Xor | Op::Add | Op::Add128 | Op::MulGf64 => 64,
        }
    }

    /// Whether `word` is canonical for this row: a residue below `r`, a
    /// field element below `2⁶¹ − 1`, or any word.
    fn canonical(self, word: u64) -> bool {
        match self {
            Op::AddMod(r) => word < r,
            Op::MulMersenne61 => word < Mersenne61::P,
            Op::Xor | Op::Add | Op::Add128 | Op::MulGf64 => true,
        }
    }

    /// Combine the row `b` into the row `a`.
    fn merge(self, a: &mut [u64], b: &[u64]) {
        fn each(a: &mut [u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
            a.iter_mut().zip(b).for_each(|(x, &y)| *x = f(*x, y));
        }
        match self {
            Op::AddMod(r) => each(a, b, |x, y| addmod(x, y, r)),
            Op::Xor => each(a, b, |x, y| x ^ y),
            Op::Add => each(a, b, u64::wrapping_add),
            Op::Add128 => {
                for (x, y) in a.chunks_exact_mut(2).zip(b.chunks_exact(2)) {
                    let wide = |w: &[u64]| u128::from(w[0]) | u128::from(w[1]) << 64;
                    x.copy_from_slice(&split(wide(x).wrapping_add(wide(y))));
                }
            }
            Op::MulMersenne61 => each(a, b, Mersenne61::mul),
            Op::MulGf64 => each(a, b, gf_mul),
        }
    }

    /// Whether a row, summed over the PEs, accepts: the halves of every
    /// product pair agree, and every other word is zero.
    fn accepts(self, row: &[u64]) -> bool {
        match self {
            Op::MulMersenne61 | Op::MulGf64 => row.chunks(2).all(|pair| pair[0] == pair[1]),
            _ => row.iter().all(|&word| word == 0),
        }
    }
}

/// A `u128` as its `(low, high)` word pair.
pub(crate) fn split(x: u128) -> [u64; 2] {
    [x as u64, (x >> 64) as u64]
}

/// The difference of an input's and an output's linear sketch: words in
/// rows of `(op, word count)`. See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lanes {
    words: Vec<u64>,
    rows: Vec<(Op, usize)>,
}

impl Lanes {
    /// Lanes over `words`, cut into `rows` of `(op, word count)`.
    ///
    /// # Panics
    /// Panics if the rows do not cover `words` exactly, or if a word is
    /// not canonical for its row (an [`Op::AddMod`]`(r)` word `≥ r`, an
    /// [`Op::MulMersenne61`] word `≥ 2⁶¹ − 1`).
    pub fn new(words: Vec<u64>, rows: Vec<(Op, usize)>) -> Self {
        let covered: usize = rows.iter().map(|&(_, len)| len).sum();
        assert_eq!(covered, words.len(), "rows must cover the words");
        let mut rest = words.as_slice();
        for &(op, len) in &rows {
            let (row, tail) = rest.split_at(len);
            assert!(
                row.iter().all(|&w| op.canonical(w)),
                "{op:?} word out of range"
            );
            rest = tail;
        }
        Self { words, rows }
    }

    /// One [`Op::Add`] word, 1 if this PE's local tests `failed`. Summed
    /// over the PEs it is at most p, so it is 0 exactly when none failed.
    pub fn veto(failed: bool) -> Self {
        Self::new(vec![u64::from(failed)], vec![(Op::Add, 1)])
    }

    /// These rows followed by `other`'s.
    pub fn concat(mut self, other: Lanes) -> Self {
        self.words.extend(other.words);
        self.rows.extend(other.rows);
        self
    }

    /// Combine another PE's lanes into these, row by row.
    ///
    /// # Panics
    /// Panics if the two have different row shapes.
    pub fn merge(&mut self, other: &Lanes) {
        assert_eq!(self.rows, other.rows, "lane shapes differ");
        merge_words(&self.rows, &mut self.words, &other.words);
    }

    /// True when every additive row is zero and the halves of every pair
    /// row agree: on one PE's lanes the local check, on all PEs' merged
    /// lanes the distributed one.
    pub fn accepts(&self) -> bool {
        let mut rest = self.words.as_slice();
        self.rows.iter().all(|&(op, len)| {
            let (row, tail) = rest.split_at(len);
            rest = tail;
            op.accepts(row)
        })
    }
}

/// Combine the words `b` into `a`, both laid out in `rows`.
fn merge_words(rows: &[(Op, usize)], mut a: &mut [u64], mut b: &[u64]) {
    assert_eq!(a.len(), b.len(), "lane counts differ");
    for &(op, len) in rows {
        let (row_a, rest_a) = std::mem::take(&mut a).split_at_mut(len);
        let (row_b, rest_b) = b.split_at(len);
        op.merge(row_a, row_b);
        (a, b) = (rest_a, rest_b);
    }
}

/// The number of bytes [`pack`] writes for `rows`.
fn packed_len(rows: &[(Op, usize)]) -> usize {
    let bits: u64 = rows
        .iter()
        .map(|&(op, len)| u64::from(op.bits()) * len as u64)
        .sum();
    bits.div_ceil(8) as usize
}

/// `words`, laid out in `rows`, as one little-endian bit stream: each
/// word in its row's [`Op::bits`], zero padding in the last byte only.
/// Every word must be canonical for its row, as [`Lanes::new`] ensures.
fn pack(rows: &[(Op, usize)], words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(packed_len(rows));
    // `filled < 64` low bits of `acc` are pending; above them it is zero.
    let (mut acc, mut filled) = (0u128, 0u32);
    let mut rest = words;
    for &(op, len) in rows {
        let (row, tail) = rest.split_at(len);
        let width = op.bits();
        for &word in row {
            debug_assert!(op.canonical(word));
            acc |= u128::from(word) << filled;
            filled += width;
            if filled >= 64 {
                out.extend_from_slice(&(acc as u64).to_le_bytes());
                (acc, filled) = (acc >> 64, filled - 64);
            }
        }
        rest = tail;
    }
    out.extend_from_slice(&acc.to_le_bytes()[..filled.div_ceil(8) as usize]);
    out
}

/// The words [`pack`] wrote for `rows`, or `None` if `bytes` is no such
/// packing: of the wrong length, with a word that is not canonical for
/// its row, or with nonzero padding.
fn unpack(rows: &[(Op, usize)], bytes: &[u8]) -> Option<Vec<u64>> {
    if bytes.len() != packed_len(rows) {
        return None;
    }
    let mut words = Vec::with_capacity(rows.iter().map(|&(_, len)| len).sum());
    let mut input = bytes.chunks(8);
    // As in `pack`: `filled` low bits of `acc` are unread.
    let (mut acc, mut filled) = (0u128, 0u32);
    for &(op, len) in rows {
        let width = op.bits();
        let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
        for _ in 0..len {
            if filled < width {
                // The length check leaves a chunk for every word.
                let chunk = input.next()?;
                let mut le = [0; 8];
                le[..chunk.len()].copy_from_slice(chunk);
                acc |= u128::from(u64::from_le_bytes(le)) << filled;
                filled += 8 * chunk.len() as u32;
            }
            let word = acc as u64 & mask;
            (acc, filled) = (acc >> width, filled - width);
            if !op.canonical(word) {
                return None;
            }
            words.push(word);
        }
    }
    (acc == 0).then_some(words)
}

/// The distributed verdict of `lanes`, the same on every PE: one tree
/// reduce of the lanes to PE 0, [`Lanes::accepts`] there, and one
/// broadcast of the 1-byte verdict. The lanes travel packed, with no
/// prefix: `⌈Σ bits·words / 8⌉` bytes a hop ([`Op::bits`]). Each hop
/// unpacks both sides, merges them row by row and repacks.
///
/// Every PE must pass lanes of the same row shape. Lanes that arrive in
/// another shape (of another length, or with a word out of its row's
/// range) reject: the hop that finds them forwards one byte more than a
/// packing, which no PE unpacks, so PE 0 broadcasts `false`.
///
/// This is [`settle`] with nothing carried: its messages are exactly
/// the lanes up and the verdict byte down.
pub fn verdict(comm: &mut Comm, lanes: Lanes) -> bool {
    settle(comm, lanes, (), |(), ()| ()).0
}

/// [`verdict`] with a `carry` riding the same two collectives: each hop
/// of the reduce sends the carry ahead of the packed lanes and combines
/// the two carries with `combine` (lower ranks first, so `combine` need
/// be associative only), and PE 0 broadcasts `(accepted, combined
/// carry)`. Every PE returns both. A job's epilogue thus learns its
/// verdict and any per-PE totals (a digest, an output length, the comm
/// counters) in the messages of one verdict, each `carry.wire_size()`
/// bytes longer.
///
/// Lanes of another shape reject as in [`verdict`], and the carry is
/// combined and delivered all the same. The lanes are the message's
/// prefix-free tail, so the carry must encode its own length: any
/// [`Wire`] type but a [`Run`].
pub fn settle<T, F>(comm: &mut Comm, lanes: Lanes, carry: T, combine: F) -> (bool, T)
where
    T: Wire + Clone + Default,
    F: Fn(T, T) -> T,
{
    let Lanes { words, rows } = lanes;
    let reduced = comm.reduce(
        0,
        (carry, Run(pack(&rows, &words))),
        |(carry_a, Run(a)), (carry_b, Run(b))| {
            let lanes = match (unpack(&rows, &a), unpack(&rows, &b)) {
                (Some(mut a), Some(b)) => {
                    merge_words(&rows, &mut a, &b);
                    pack(&rows, &a)
                }
                _ => vec![0; packed_len(&rows) + 1],
            };
            (combine(carry_a, carry_b), Run(lanes))
        },
    );
    let settled = reduced.map(|(carry, Run(bytes))| {
        let accepted = unpack(&rows, &bytes).is_some_and(|words| Lanes { words, rows }.accepts());
        (accepted, carry)
    });
    comm.broadcast(0, settled.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::run_with_stats;
    use proptest::prelude::*;

    /// A row shape and its canonical words from raw test input: per row
    /// an op index, a shift giving an `AddMod` modulus of any width, the
    /// modulus' raw bits and raw words.
    type RawRows = Vec<(u8, u32, u64, Vec<u64>)>;

    fn shape(raw: &RawRows) -> (Vec<(Op, usize)>, Vec<u64>) {
        let (mut rows, mut words) = (Vec::new(), Vec::new());
        for (op, shift, bits, row) in raw {
            let op = match op {
                0 => Op::AddMod((bits >> shift).max(1)),
                1 => Op::Xor,
                2 => Op::Add,
                3 => Op::Add128,
                4 => Op::MulMersenne61,
                _ => Op::MulGf64,
            };
            // Pair rows hold whole pairs.
            let len = match op {
                Op::Add128 | Op::MulMersenne61 | Op::MulGf64 => row.len() & !1,
                _ => row.len(),
            };
            words.extend(row[..len].iter().map(|&w| match op {
                Op::AddMod(r) => w % r,
                Op::MulMersenne61 => w % Mersenne61::P,
                _ => w,
            }));
            rows.push((op, len));
        }
        (rows, words)
    }

    /// The words of `rows` on each of `p` PEs, such that their merge
    /// accepts: PEs below p − 1 hold variants of `words`, PE p − 1
    /// cancels their additive rows, and every product pair holds two
    /// equal nonzero halves.
    fn cancelling(rows: &[(Op, usize)], words: &[u64], p: usize) -> Vec<Vec<u64>> {
        let variant = |pe: usize| {
            let mut rest = words;
            let mut out = Vec::new();
            for &(op, len) in rows {
                let (row, tail) = rest.split_at(len);
                rest = tail;
                let mixed = row
                    .iter()
                    .map(|&w| w.rotate_left(7 * pe as u32) ^ pe as u64);
                out.extend(mixed.map(|w| match op {
                    Op::AddMod(r) => w % r,
                    Op::MulMersenne61 => 1 + w % (Mersenne61::P - 1),
                    Op::MulGf64 => w.max(1),
                    _ => w,
                }));
                if matches!(op, Op::MulMersenne61 | Op::MulGf64) {
                    let n = out.len();
                    for pair in out[n - len..].chunks_exact_mut(2) {
                        pair[1] = pair[0];
                    }
                }
            }
            Lanes::new(out, rows.to_vec())
        };
        let mut pes: Vec<Lanes> = (0..p).map(variant).collect();
        let mut others = Lanes::new(vec![0; words.len()], rows.to_vec());
        pes[..p - 1].iter().for_each(|pe| others.merge(pe));
        let last = &mut pes[p - 1].words;
        let mut at = 0;
        for &(op, len) in rows {
            let (theirs, mine) = (&others.words[at..at + len], &mut last[at..at + len]);
            match op {
                Op::AddMod(r) => mine
                    .iter_mut()
                    .zip(theirs)
                    .for_each(|(m, &t)| *m = (r - t) % r),
                Op::Xor => mine.copy_from_slice(theirs),
                Op::Add => mine
                    .iter_mut()
                    .zip(theirs)
                    .for_each(|(m, &t)| *m = t.wrapping_neg()),
                Op::Add128 => {
                    for (m, t) in mine.chunks_exact_mut(2).zip(theirs.chunks_exact(2)) {
                        let sum = u128::from(t[0]) | u128::from(t[1]) << 64;
                        m.copy_from_slice(&split(sum.wrapping_neg()));
                    }
                }
                Op::MulMersenne61 | Op::MulGf64 => {}
            }
            at += len;
        }
        pes.into_iter().map(|pe| pe.words).collect()
    }

    fn raw_rows() -> impl Strategy<Value = RawRows> {
        prop::collection::vec(
            (
                0u8..6,
                0u32..64,
                any::<u64>(),
                prop::collection::vec(any::<u64>(), 0..6),
            ),
            0..8,
        )
    }

    /// One row of every op and a veto, each accepting: zero differences
    /// and agreeing pairs.
    fn accepting() -> Lanes {
        let rows = vec![
            (Op::AddMod(13), 1),
            (Op::Xor, 1),
            (Op::Add, 1),
            (Op::Add128, 2),
        ];
        let pairs = vec![(Op::MulMersenne61, 2), (Op::MulGf64, 2)];
        let zeros = Lanes::new(vec![0; 5], rows);
        zeros
            .concat(Lanes::new(vec![7, 7, 9, 9], pairs))
            .concat(Lanes::veto(false))
    }

    #[test]
    fn accepts_reads_every_row_by_its_op() {
        assert!(accepting().accepts() && Lanes::default().accepts());
        for word in 0..accepting().words.len() {
            let mut lanes = accepting();
            lanes.words[word] ^= 1;
            assert!(!lanes.accepts(), "word {word}");
        }
    }

    #[test]
    fn merge_combines_each_row_by_its_op() {
        let shape = accepting().rows;
        let mut a = Lanes::new(
            vec![12, 2, u64::MAX, u64::MAX, 0, 3, 5, 2, 3, 0],
            shape.clone(),
        );
        a.merge(&Lanes::new(vec![3, 3, 2, 1, 7, 4, 6, 5, 6, 1], shape));
        let [lo, hi] = split(u128::from(u64::MAX) + (7 << 64 | 1));
        let (m61, gf) = (Mersenne61::mul, gf_mul);
        let merged = [2, 1, 1, lo, hi, m61(3, 4), m61(5, 6), gf(2, 5), gf(3, 6), 1];
        assert_eq!(a.words, merged);
    }

    #[test]
    #[should_panic(expected = "lane shapes differ")]
    fn merge_rejects_another_shape() {
        Lanes::veto(false).merge(&Lanes::new(vec![0], vec![(Op::Xor, 1)]));
    }

    #[test]
    fn verdict_sums_the_pes_and_sends_one_byte_down() {
        // Each PE's difference is nonzero (p > 1), their sum is zero, and
        // a veto on any one PE rejects everywhere.
        for p in [1, 2, 3, 5] {
            for vetoed in [None, Some(p - 1)] {
                let (verdicts, stats) = run_with_stats(p, |comm| {
                    let others = p as u64 - 1;
                    let words = [
                        vec![(13 - others % 13) % 13, others.wrapping_neg()],
                        vec![1, 1],
                    ];
                    let lanes = Lanes::new(
                        words[comm.rank().min(1)].clone(),
                        vec![(Op::AddMod(13), 1), (Op::Add, 1)],
                    );
                    verdict(comm, lanes.concat(Lanes::veto(vetoed == Some(comm.rank()))))
                });
                assert_eq!(verdicts, vec![vetoed.is_none(); p], "p={p} {vetoed:?}");
                // 4 + 64 + 64 bits packed in 17 bytes up, 1 byte down.
                let hops = p as u64 - 1;
                assert_eq!(
                    (stats.total_messages(), stats.total_bytes()),
                    (2 * hops, hops * 18)
                );
            }
        }
    }

    #[test]
    fn verdict_rejects_lanes_of_another_shape() {
        // One PE, the root or a leaf, passes one word more than the
        // others: a defined rejection on every PE, not a panic.
        for p in [2, 3, 5] {
            for odd in [0, p - 1] {
                let verdicts = ccheck_net::run(p, |comm| {
                    let len = if comm.rank() == odd { 3 } else { 2 };
                    verdict(comm, Lanes::new(vec![0; len], vec![(Op::Xor, len)]))
                });
                assert_eq!(verdicts, vec![false; p], "p={p} odd={odd}");
            }
        }
    }

    #[test]
    fn settle_of_another_shape_rejects_and_still_carries() {
        // As in `verdict_rejects_lanes_of_another_shape`, and each PE's
        // rank rides along: every PE gets `false` and all the ranks.
        for p in [1, 2, 3, 5] {
            for odd in [0, p - 1] {
                let settled = ccheck_net::run(p, |comm| {
                    let len = if comm.rank() == odd && p > 1 { 3 } else { 2 };
                    let lanes = Lanes::new(vec![0; len], vec![(Op::Xor, len)]);
                    settle(comm, lanes, vec![comm.rank() as u64], |mut a, b| {
                        a.extend(b);
                        a
                    })
                });
                let ranks: Vec<u64> = (0..p as u64).collect();
                assert_eq!(settled, vec![(p == 1, ranks); p], "p={p} odd={odd}");
            }
        }
    }

    #[test]
    fn settle_adds_the_carry_to_every_message() {
        // A 16-byte carry makes each hop of the reduce 16 bytes longer
        // and each hop of the broadcast too; the message count stays.
        for p in [1, 2, 3, 5] {
            let (settled, stats) = run_with_stats(p, |comm| {
                let lanes = Lanes::new(vec![0, 0], vec![(Op::AddMod(13), 1), (Op::Add, 1)]);
                settle(comm, lanes, (1u64, comm.rank() as u64), |a, b| {
                    (a.0 + b.0, a.1.max(b.1))
                })
            });
            assert_eq!(settled, vec![(true, (p as u64, p as u64 - 1)); p]);
            let hops = p as u64 - 1;
            assert_eq!(
                (stats.total_messages(), stats.total_bytes()),
                (2 * hops, hops * (9 + 16 + 1 + 16)),
                "p={p}"
            );
        }
    }

    #[test]
    fn widths_follow_the_modulus() {
        let widths = [
            (Op::AddMod(1), 0),
            (Op::AddMod(2), 1),
            (Op::AddMod(512), 9),
            (Op::AddMod(513), 10),
            (Op::AddMod(1 << 10), 10),
            (Op::AddMod(Mersenne61::P), 61),
            (Op::AddMod(u64::MAX), 64),
            (Op::MulMersenne61, 61),
            (Op::Xor, 64),
            (Op::Add128, 64),
        ];
        for (op, bits) in widths {
            assert_eq!(op.bits(), bits, "{op:?}");
        }
        // 3 × 5 bits, then a 64-bit word: 79 bits in 10 bytes, the last
        // byte's top bit zero padding.
        let rows = [(Op::AddMod(31), 3), (Op::Xor, 1)];
        let packed = pack(&rows, &[1, 2, 30, u64::MAX]);
        assert_eq!(packed.len(), 10);
        assert_eq!(packed[0], 1 | 2 << 5, "words low bits first");
        assert_eq!(unpack(&rows, &packed), Some(vec![1, 2, 30, u64::MAX]));
        let mut padded = packed.clone();
        padded[9] |= 0x80;
        assert_eq!(unpack(&rows, &padded), None, "nonzero padding");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The packed verdict is the unpacked one: it accepts exactly
        /// when the PEs' lanes, merged word by word, accept. Cancelling
        /// lanes accept; one changed word on one PE rejects, unless its
        /// row is ℤ/1ℤ, where every word is 0.
        #[test]
        fn prop_verdict_is_the_merged_lanes_verdict(raw in raw_rows(), p in 1usize..5, change: u64) {
            let (rows, words) = shape(&raw);
            let mut pes = cancelling(&rows, &words, p);
            let mut changed = false;
            if change & 1 == 1 && !words.is_empty() {
                let (pe, word) = ((change >> 1) as usize % p, (change >> 8) as usize % words.len());
                let mut at = 0;
                let &(op, _) = rows
                    .iter()
                    .find(|&&(_, len)| {
                        at += len;
                        at > word
                    })
                    .unwrap();
                let w = &mut pes[pe][word];
                *w = match op {
                    Op::AddMod(r) => (*w + 1) % r,
                    Op::Xor | Op::Add | Op::Add128 => w.wrapping_add(1),
                    Op::MulMersenne61 | Op::MulGf64 => if *w == 1 { 2 } else { 1 },
                };
                changed = op != Op::AddMod(1);
            }
            let mut merged = Lanes::new(pes[0].clone(), rows.clone());
            for pe in &pes[1..] {
                merged.merge(&Lanes::new(pe.clone(), rows.clone()));
            }
            prop_assert_eq!(merged.accepts(), !changed);
            let verdicts = ccheck_net::run(p, |comm| {
                verdict(comm, Lanes::new(pes[comm.rank()].clone(), rows.clone()))
            });
            prop_assert_eq!(verdicts, vec![!changed; p]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `settle` is `verdict` plus the carry: on every PE its verdict
        /// is the one `verdict` gives the same lanes, and its carry is
        /// the PEs' carries folded in rank order (concatenation, which
        /// does not commute, shows the order).
        #[test]
        fn prop_settle_is_verdict_plus_the_rank_order_fold(
            raw in raw_rows(),
            p in 1usize..=5,
            change: u64,
            carries in prop::collection::vec(any::<u64>(), 5),
        ) {
            let (rows, words) = shape(&raw);
            let mut pes = cancelling(&rows, &words, p);
            if change & 1 == 1 && !words.is_empty() {
                // Any canonical word: the verdict may go either way.
                let (pe, word) = ((change >> 1) as usize % p, (change >> 8) as usize % words.len());
                pes[pe][word] = 0;
            }
            let results = ccheck_net::run(p, |comm| {
                let rank = comm.rank();
                let lanes = || Lanes::new(pes[rank].clone(), rows.clone());
                let alone = verdict(comm, lanes());
                let carry = vec![carries[rank]];
                let settled = settle(comm, lanes(), carry, |mut a, b| {
                    a.extend(b);
                    a
                });
                (alone, settled)
            });
            for (alone, (accepted, carry)) in results {
                prop_assert_eq!(accepted, alone);
                prop_assert_eq!(&carry[..], &carries[..p]);
            }
        }
    }

    proptest! {
        /// `unpack` returns the words `pack` was given, from exactly
        /// `packed_len` bytes, for any row shape of canonical words.
        #[test]
        fn prop_unpack_inverts_pack(raw in raw_rows()) {
            let (rows, words) = shape(&raw);
            let packed = pack(&rows, &words);
            prop_assert_eq!(packed.len(), packed_len(&rows));
            prop_assert_eq!(unpack(&rows, &packed), Some(words));
        }

        /// Arbitrary bytes, of any length or of the packing's, never
        /// panic `unpack`, and what it accepts is a packing: it repacks
        /// to the same bytes.
        #[test]
        fn prop_unpack_garbage_never_panics(raw in raw_rows(), bytes: Vec<u8>, fill: u8) {
            let (rows, _) = shape(&raw);
            let mut exact = bytes.clone();
            exact.resize(packed_len(&rows), fill);
            for bytes in [bytes, exact] {
                if let Some(words) = unpack(&rows, &bytes) {
                    prop_assert_eq!(pack(&rows, &words), bytes);
                }
            }
        }

        /// A packing one byte short or long, or carrying an `AddMod(r)`
        /// word `≥ r` in its `r − 1` bits, is rejected.
        #[test]
        fn prop_unpack_rejects_wrong_length_and_out_of_range_words(
            raw in raw_rows(),
            shift in 0u32..62,
            bits: u64,
            excess: u64,
        ) {
            let (mut rows, mut words) = shape(&raw);
            let mut packed = pack(&rows, &words);
            packed.push(0);
            prop_assert_eq!(unpack(&rows, &packed), None);
            packed.truncate(packed.len().saturating_sub(2));
            if packed_len(&rows) > 0 {
                prop_assert_eq!(unpack(&rows, &packed), None);
            }
            // Below a power of two, `r..2^width` are words of the row's
            // width that are out of range: pack one under a modulus that
            // holds it, then read it back under `r`.
            let r = (bits >> shift).max(3);
            if !r.is_power_of_two() {
                let width = Op::AddMod(r).bits();
                let top = 1u128 << width;
                let bad = (u128::from(r) + u128::from(excess) % (top - u128::from(r))) as u64;
                let carrier = if width == 64 { Op::Add } else { Op::AddMod(1 << width) };
                prop_assert_eq!(carrier.bits(), width);
                rows.push((carrier, 1));
                words.push(bad);
                let packed = pack(&rows, &words);
                rows.last_mut().unwrap().0 = Op::AddMod(r);
                prop_assert_eq!(unpack(&rows, &packed), None);
            }
        }
    }
}
