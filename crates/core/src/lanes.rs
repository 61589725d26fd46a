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
//!
//! [`Lanes`] is a vector of words cut into rows, each combined across PEs
//! by its own [`Op`]. The row shape comes from the checker's config on
//! every PE, so only the words travel: a prefix-free [`Run<u64>`].
//!
//! | Row | Combiner | Rows of |
//! |---|---|---|
//! | [`Op::AddMod`] | addition in ℤ/rℤ | sum, signed-sum and count tables (one row per iteration); zip's differences (`r = 2⁶¹ − 1`) |
//! | [`Op::Xor`] | xor | xor tables |
//! | [`Op::Add`] | addition mod 2⁶⁴ | element counts; vetoes |
//! | [`Op::Add128`] | addition mod 2¹²⁸ of `(low, high)` pairs | exact hash sums |
//! | [`Op::MulMersenne61`], [`Op::MulGf64`] | `(input, output)` pairs, each half multiplied | polynomial permutation fingerprints |
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
use ccheck_net::wire::Run;
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
    /// Panics if the rows do not cover `words` exactly.
    pub fn new(words: Vec<u64>, rows: Vec<(Op, usize)>) -> Self {
        let covered: usize = rows.iter().map(|&(_, len)| len).sum();
        assert_eq!(covered, words.len(), "rows must cover the words");
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

/// The distributed verdict of `lanes`, the same on every PE: one tree
/// reduce of the words to PE 0 (`8` bytes a word), [`Lanes::accepts`]
/// there, and one broadcast of the 1-byte verdict. Every PE must pass
/// lanes of the same row shape.
pub fn verdict(comm: &mut Comm, lanes: Lanes) -> bool {
    let Lanes { words, rows } = lanes;
    let reduced = comm.reduce(0, Run(words), |Run(mut a), Run(b)| {
        merge_words(&rows, &mut a, &b);
        Run(a)
    });
    let accepted = reduced.is_some_and(|Run(words)| Lanes { words, rows }.accepts());
    comm.broadcast(0, accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::run_with_stats;

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
                let hops = p as u64 - 1;
                assert_eq!(
                    (stats.total_messages(), stats.total_bytes()),
                    (2 * hops, hops * 25)
                );
            }
        }
    }
}
