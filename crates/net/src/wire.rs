//! Binary codec used for every message on the simulated network.
//!
//! All traffic is encoded into byte buffers before it is handed to the
//! router, so the per-PE byte counters in [`crate::stats`] observe the exact
//! communication volume — the quantity the paper optimizes for. The
//! encoding is little-endian and self-delimiting for variable-length types.
//!
//! The codec is deliberately hand-rolled (rather than pulling in `serde`):
//! the framing must be predictable down to the byte for the communication
//! volume measurements to be meaningful.

/// Types that can be serialized onto the wire.
///
/// Implementations must roundtrip: `T::read(&mut encode(v)) == Some(v)`.
/// This invariant is property-tested in this module's test suite.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `buf`.
    fn write(&self, buf: &mut Vec<u8>);
    /// Decode a value from the front of `input`, advancing it past the
    /// consumed bytes. Returns `None` on malformed/truncated input.
    fn read(input: &mut &[u8]) -> Option<Self>;
    /// Exact number of bytes `write` will append. Used to pre-size buffers.
    fn wire_size(&self) -> usize;
}

/// Encode a value into a fresh, exactly-sized buffer.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value.wire_size());
    value.write(&mut buf);
    debug_assert_eq!(buf.len(), value.wire_size());
    buf
}

/// Decode a value from a buffer, requiring that the buffer is consumed
/// entirely.
pub fn decode<T: Wire>(mut input: &[u8]) -> Option<T> {
    let v = T::read(&mut input)?;
    if input.is_empty() {
        Some(v)
    } else {
        None
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn write(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read(input: &mut &[u8]) -> Option<Self> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
            #[inline]
            fn wire_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Wire for usize {
    #[inline]
    fn write(&self, buf: &mut Vec<u8>) {
        (*self as u64).write(buf);
    }
    #[inline]
    fn read(input: &mut &[u8]) -> Option<Self> {
        u64::read(input).map(|v| v as usize)
    }
    #[inline]
    fn wire_size(&self) -> usize {
        8
    }
}

impl Wire for bool {
    #[inline]
    fn write(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn read(input: &mut &[u8]) -> Option<Self> {
        match u8::read(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    #[inline]
    fn wire_size(&self) -> usize {
        1
    }
}

impl Wire for f64 {
    #[inline]
    fn write(&self, buf: &mut Vec<u8>) {
        self.to_bits().write(buf);
    }
    #[inline]
    fn read(input: &mut &[u8]) -> Option<Self> {
        u64::read(input).map(f64::from_bits)
    }
    #[inline]
    fn wire_size(&self) -> usize {
        8
    }
}

impl Wire for () {
    #[inline]
    fn write(&self, _buf: &mut Vec<u8>) {}
    #[inline]
    fn read(_input: &mut &[u8]) -> Option<Self> {
        Some(())
    }
    #[inline]
    fn wire_size(&self) -> usize {
        0
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[inline]
            fn write(&self, buf: &mut Vec<u8>) {
                $(self.$idx.write(buf);)+
            }
            #[inline]
            fn read(input: &mut &[u8]) -> Option<Self> {
                Some(($($name::read(input)?,)+))
            }
            #[inline]
            fn wire_size(&self) -> usize {
                0 $(+ self.$idx.wire_size())+
            }
        }
    };
}

impl_wire_tuple!(A: 0);
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl<T: Wire> Wire for Option<T> {
    fn write(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.write(buf);
            }
        }
    }
    fn read(input: &mut &[u8]) -> Option<Self> {
        match u8::read(input)? {
            0 => Some(None),
            1 => Some(Some(T::read(input)?)),
            _ => None,
        }
    }
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_size)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).write(buf);
        for item in self {
            item.write(buf);
        }
    }
    fn read(input: &mut &[u8]) -> Option<Self> {
        let len = u64::read(input)? as usize;
        // Guard against adversarial lengths: a T encodes to >= 0 bytes, but
        // the remaining input bounds the plausible element count when the
        // element size is nonzero.
        let mut out = Vec::with_capacity(len.min(input.len().max(16)));
        for _ in 0..len {
            out.push(T::read(input)?);
        }
        Some(out)
    }
    fn wire_size(&self) -> usize {
        8 + self.iter().map(Wire::wire_size).sum::<usize>()
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn write(&self, buf: &mut Vec<u8>) {
        for item in self {
            item.write(buf);
        }
    }
    fn read(input: &mut &[u8]) -> Option<Self> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::read(input)?);
        }
        items.try_into().ok()
    }
    fn wire_size(&self) -> usize {
        self.iter().map(Wire::wire_size).sum()
    }
}

/// A run of fixed-width words (`u64`, `u128`, …) that fills **the rest of
/// its message**: the words are written back to back with no length
/// prefix, and `read` consumes the input to its end. Both ends know the
/// word count from their shared configuration, so a prefix would be eight
/// bytes per message that say nothing; the checkers use it to send all
/// their per-iteration accumulators as the lanes of one collective.
///
/// Only meaningful as the **last** field of a message — anything written
/// after it would be swallowed by `read`. A trailing partial word decodes
/// to `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run<T>(pub Vec<T>);

impl<T> Default for Run<T> {
    fn default() -> Self {
        Run(Vec::new())
    }
}

impl<T> Run<T> {
    /// Element-wise `op` over two runs of the same length — the combiner
    /// shape of an allreduce over independent lanes.
    ///
    /// # Panics
    /// Panics if the lengths differ (the PEs disagree on the lane count).
    pub fn zip_with(self, other: Self, op: impl Fn(T, T) -> T) -> Self {
        assert_eq!(self.0.len(), other.0.len(), "lane counts differ");
        Run(self
            .0
            .into_iter()
            .zip(other.0)
            .map(|(a, b)| op(a, b))
            .collect())
    }
}

impl<T: Wire> Wire for Run<T> {
    fn write(&self, buf: &mut Vec<u8>) {
        for word in &self.0 {
            word.write(buf);
        }
    }
    fn read(input: &mut &[u8]) -> Option<Self> {
        let mut words = Vec::new();
        while !input.is_empty() {
            let before = input.len();
            words.push(T::read(input)?);
            // A zero-width word would never drain the input.
            if input.len() == before {
                return None;
            }
        }
        Some(Run(words))
    }
    fn wire_size(&self) -> usize {
        self.0.iter().map(Wire::wire_size).sum()
    }
}

impl Wire for String {
    fn write(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).write(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn read(input: &mut &[u8]) -> Option<Self> {
        let len = u64::read(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
    fn wire_size(&self) -> usize {
        8 + self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let buf = encode(&v);
        assert_eq!(buf.len(), v.wire_size());
        let back: T = decode(&buf).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn roundtrip_primitives() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(i8::MIN);
        roundtrip(i16::MIN);
        roundtrip(i32::MIN);
        roundtrip(i64::MIN);
        roundtrip(i128::MIN);
        roundtrip(-1i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(());
    }

    #[test]
    fn roundtrip_compounds() {
        roundtrip((1u32, 2u64));
        roundtrip((1u8, 2u16, 3u32, 4u64, 5i64));
        roundtrip(Some(42u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip([7u32; 4]);
        roundtrip("hello wörld".to_string());
        roundtrip(String::new());
        roundtrip(vec![(1u64, -2i64), (3, -4)]);
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn truncated_input_rejected() {
        let buf = encode(&0xDEADBEEFu32);
        assert_eq!(decode::<u32>(&buf[..3]), None);
        let buf = encode(&vec![1u64, 2, 3]);
        assert_eq!(decode::<Vec<u64>>(&buf[..buf.len() - 1]), None);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = encode(&7u32);
        buf.push(0);
        assert_eq!(decode::<u32>(&buf), None);
    }

    #[test]
    fn invalid_bool_rejected() {
        assert_eq!(decode::<bool>(&[2]), None);
    }

    #[test]
    fn invalid_option_tag_rejected() {
        assert_eq!(decode::<Option<u8>>(&[7, 0]), None);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        (2u64).write(&mut buf);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode::<String>(&buf), None);
    }

    #[test]
    fn adversarial_vec_length_does_not_allocate() {
        // Claims 2^60 elements but supplies none: must fail, not OOM.
        let mut buf = Vec::new();
        (1u64 << 60).write(&mut buf);
        assert_eq!(decode::<Vec<u64>>(&buf), None);
    }

    #[test]
    fn run_has_no_prefix_and_reads_to_the_end() {
        let run = Run(vec![1u64, 2, 3]);
        assert_eq!(encode(&run), encode(&(1u64, 2u64, 3u64)));
        roundtrip(run);
        roundtrip(Run::<u128>(Vec::new()));
        // As the last field of a message it takes whatever follows the head.
        let msg = ((7u64, 8u64), Run(vec![u128::MAX, 5]));
        assert_eq!(msg.wire_size(), 16 + 32);
        roundtrip(msg);
        // A trailing partial word is malformed, and a zero-width word
        // cannot fill anything.
        assert_eq!(decode::<Run<u64>>(&[0; 12]), None);
        assert_eq!(decode::<Run<()>>(&[0]), None);
    }

    #[test]
    fn run_zip_with_is_elementwise() {
        let sum = Run(vec![1u64, 2]).zip_with(Run(vec![10, 20]), |a, b| a + b);
        assert_eq!(sum, Run(vec![11, 22]));
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let v = f64::from_bits(0x7FF8_0000_0000_1234);
        let buf = encode(&v);
        let back: f64 = decode(&buf).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    // Round-trip properties covering EVERY `Wire` impl in this module —
    // the invariant promised in the trait docs: for all v,
    // `decode(encode(v)) == Some(v)` and `encode(v).len() == wire_size(v)`
    // (both checked by `roundtrip`).
    proptest! {
        // Fixed-width integers.
        #[test]
        fn prop_roundtrip_u8(v: u8) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_u16(v: u16) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_u32(v: u32) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_u64(v: u64) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_u128(v: u128) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_i8(v: i8) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_i16(v: i16) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_i32(v: i32) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_i64(v: i64) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_i128(v: i128) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_usize(v: usize) { roundtrip(v); }

        // Scalars with non-trivial encodings.
        #[test]
        fn prop_roundtrip_bool(v: bool) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_f64_bitwise(v: f64) {
            // Bit-level comparison so NaN payloads count too.
            let back: f64 = decode(&encode(&v)).expect("decode");
            prop_assert_eq!(back.to_bits(), v.to_bits());
        }

        #[test]
        fn prop_roundtrip_unit(v: ()) { roundtrip(v); }

        // Tuples, every arity the module implements.
        #[test]
        fn prop_roundtrip_tuple1(v: (u64,)) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_tuple2(v: (u32, i64)) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_tuple3(v: (u8, u16, i128)) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_tuple4(v: (bool, u64, i8, u128)) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_tuple5(v: (u64, u64, u32, i16, bool)) { roundtrip(v); }

        // Containers.
        #[test]
        fn prop_roundtrip_option(v: Option<i64>) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_vec(v: Vec<u64>) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_array(v: [u32; 7]) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_array_of_tuples(v: [(u8, i16); 3]) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_string(v: String) { roundtrip(v); }

        // The prefix-free word run: exactly 8 bytes a word, round-trips
        // behind a fixed-size head, and any cut that is not on a word
        // boundary is malformed.
        #[test]
        fn prop_roundtrip_run(head: (u64, u64), words: Vec<u64>, wide: Vec<u128>, cut: usize) {
            roundtrip(Run(wide));
            let msg = (head, Run(words));
            let buf = encode(&msg);
            prop_assert_eq!(buf.len(), 16 + 8 * msg.1 .0.len());
            let cut = cut % (buf.len() + 1);
            let decoded = decode::<((u64, u64), Run<u64>)>(&buf[..cut]);
            if cut >= 16 && (cut - 16).is_multiple_of(8) {
                let kept = msg.1 .0[..(cut - 16) / 8].to_vec();
                prop_assert_eq!(decoded, Some((head, Run(kept))));
            } else {
                prop_assert_eq!(decoded, None);
            }
            roundtrip(msg);
        }

        // Composites nesting multiple impls, including the
        // `Vec<(u64, u64)>` shape the collectives put on the wire.
        #[test]
        fn prop_roundtrip_rank_value_pairs(v: Vec<(u64, u64)>) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_pairs(v: Vec<(u64, i64)>) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_nested(v: Vec<Vec<u32>>) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_options(v: Vec<Option<u64>>) { roundtrip(v); }

        #[test]
        fn prop_roundtrip_deep_composite(v: Vec<(u64, Option<Vec<(u32, bool)>>, String)>) {
            roundtrip(v);
        }

        #[test]
        fn prop_wire_size_matches(v: Vec<(u64, Option<i32>)>) {
            let buf = encode(&v);
            prop_assert_eq!(buf.len(), v.wire_size());
        }

        #[test]
        fn prop_garbage_never_panics(bytes: Vec<u8>) {
            // Decoding arbitrary bytes must never panic (may return None).
            let _ = decode::<Vec<(u64, u32)>>(&bytes);
            let _ = decode::<String>(&bytes);
            let _ = decode::<Vec<Option<u64>>>(&bytes);
            let _ = decode::<(u64, u64, u64)>(&bytes);
            let _ = decode::<[u64; 4]>(&bytes);
            let _ = decode::<((u64, u64), Run<u128>)>(&bytes);
        }

        #[test]
        fn prop_concatenated_encodings_stream_decode(a: Vec<u64>, b: (u32, bool), c: String) {
            // `read` must consume exactly `wire_size` bytes, so values
            // written back to back decode back out in order — the
            // property the TCP frame codec relies on.
            let mut buf = Vec::new();
            a.write(&mut buf);
            b.write(&mut buf);
            c.write(&mut buf);
            let mut input = &buf[..];
            prop_assert_eq!(Vec::<u64>::read(&mut input), Some(a));
            prop_assert_eq!(<(u32, bool)>::read(&mut input), Some(b));
            prop_assert_eq!(String::read(&mut input), Some(c));
            prop_assert!(input.is_empty());
        }
    }
}
