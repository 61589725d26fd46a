//! Prime-field arithmetic for Lipton's polynomial identity check
//! (Lemma 5 of the paper).
//!
//! Two building blocks:
//!
//! * [`Mersenne61`] — the field 𝔽_p with p = 2⁶¹ − 1, where reduction is a
//!   shift-and-add; the workhorse field for evaluating
//!   `q(z) = Π(z−eᵢ) − Π(z−oᵢ)` quickly,
//! * deterministic Miller–Rabin ([`is_prime_u64`]) and a Bertrand-window
//!   prime search ([`prime_in_range`], [`next_prime`]) so callers can pick
//!   a prime `r > max(n/δ, U−1)` exactly as Lemma 5 prescribes.

/// The Mersenne prime 2⁶¹ − 1.
pub const MERSENNE61: u64 = (1 << 61) - 1;

/// Arithmetic in 𝔽_{2⁶¹−1}. All values are kept in canonical form
/// `0 ..= p−1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mersenne61;

impl Mersenne61 {
    /// The field modulus.
    pub const P: u64 = MERSENNE61;

    /// Canonicalize an arbitrary u64 into the field.
    #[inline]
    pub fn from_u64(x: u64) -> u64 {
        // Two folds suffice for any u64.
        let x = (x & Self::P) + (x >> 61);
        if x >= Self::P {
            x - Self::P
        } else {
            x
        }
    }

    /// Addition mod p.
    #[inline]
    pub fn add(a: u64, b: u64) -> u64 {
        debug_assert!(a < Self::P && b < Self::P);
        let s = a + b; // < 2^62, no overflow
        if s >= Self::P {
            s - Self::P
        } else {
            s
        }
    }

    /// Subtraction mod p.
    #[inline]
    pub fn sub(a: u64, b: u64) -> u64 {
        debug_assert!(a < Self::P && b < Self::P);
        if a >= b {
            a - b
        } else {
            a + Self::P - b
        }
    }

    /// Multiplication mod p via 128-bit product and Mersenne folding.
    #[inline]
    pub fn mul(a: u64, b: u64) -> u64 {
        debug_assert!(a < Self::P && b < Self::P);
        let prod = u128::from(a) * u128::from(b);
        let lo = (prod & u128::from(Self::P)) as u64;
        let hi = (prod >> 61) as u64;
        let s = lo + hi; // hi < 2^61, lo < 2^61 → s < 2^62
        if s >= Self::P {
            s - Self::P
        } else {
            s
        }
    }

    /// Canonicalize an arbitrary u128 into the field: 2⁶¹ ≡ 1 (mod p),
    /// so the three 61-bit limbs simply add.
    #[inline]
    pub fn reduce128(x: u128) -> u64 {
        let p = u128::from(Self::P);
        // < 2^61 + 2^61 + 2^6: no overflow.
        Self::from_u64(((x & p) + ((x >> 61) & p) + (x >> 122)) as u64)
    }

    /// Inner product `Σ a[i]·b[i] mod p` of two equally long slices of
    /// **arbitrary** u64 values (no prior canonicalisation needed) — the
    /// block kernel of the zip fingerprint. Equal to folding
    /// `add(acc, mul(from_u64(a[i]), from_u64(b[i])))` element by
    /// element, but with one reduction per call instead of one per
    /// product: the low and high 64-bit words of every product go into
    /// two unreduced 128-bit sums, recombined with 2⁶⁴ ≡ 8 (mod p).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn dot(a: &[u64], b: &[u64]) -> u64 {
        assert_eq!(a.len(), b.len(), "inner product of unequal lengths");
        // Each sum grows by < 2^64 per element: no overflow for any
        // slice that fits in memory.
        let (mut lo, mut hi) = (0u128, 0u128);
        for (&x, &y) in a.iter().zip(b) {
            let prod = u128::from(x) * u128::from(y);
            lo += u128::from(prod as u64);
            hi += prod >> 64;
        }
        Self::add(Self::reduce128(lo), Self::mul(8, Self::reduce128(hi)))
    }

    /// Exponentiation by squaring mod p.
    pub fn pow(mut base: u64, mut exp: u64) -> u64 {
        base = Self::from_u64(base);
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 != 0 {
                acc = Self::mul(acc, base);
            }
            base = Self::mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat: a^(p−2). Panics on zero.
    pub fn inv(a: u64) -> u64 {
        assert!(!a.is_multiple_of(Self::P), "zero has no inverse");
        Self::pow(a, Self::P - 2)
    }
}

/// `(a + b) mod m` without overflow for any `a, b < m ≤ u64::MAX`.
#[inline]
pub fn addmod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(a < m && b < m);
    let (s, carry) = a.overflowing_add(b);
    if carry || s >= m {
        s.wrapping_sub(m)
    } else {
        s
    }
}

/// `(a · b) mod m` via 128-bit intermediate, for any 64-bit modulus.
#[inline]
pub fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(m)) as u64
}

/// `a^e mod m`.
pub fn powmod(mut a: u64, mut e: u64, m: u64) -> u64 {
    assert!(m > 0);
    if m == 1 {
        return 0;
    }
    let mut acc = 1u64;
    a %= m;
    while e > 0 {
        if e & 1 != 0 {
            acc = mulmod(acc, a, m);
        }
        a = mulmod(a, a, m);
        e >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin for u64 (the 12-witness set is proven
/// sufficient for all n < 2⁶⁴, Sorenson & Webster 2015).
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n-1 = d · 2^s with d odd
    let mut d = n - 1;
    let s = d.trailing_zeros();
    d >>= s;
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = powmod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mulmod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Smallest prime `≥ n` (panics if none fits in u64, which cannot happen
/// for `n ≤ 2⁶⁴ − 59`).
pub fn next_prime(mut n: u64) -> u64 {
    if n <= 2 {
        return 2;
    }
    if n.is_multiple_of(2) {
        n += 1;
    }
    loop {
        if is_prime_u64(n) {
            return n;
        }
        n = n.checked_add(2).expect("no prime found below u64::MAX");
    }
}

/// A prime in `[lo, hi]`, if one exists. By Bertrand's postulate the window
/// `[2^(w−1), 2^w]` always contains one — the choice Lemma 5 relies on.
pub fn prime_in_range(lo: u64, hi: u64) -> Option<u64> {
    if lo > hi {
        return None;
    }
    let p = next_prime(lo);
    (p <= hi).then_some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mersenne61_is_prime() {
        assert!(is_prime_u64(MERSENNE61));
    }

    #[test]
    fn canonicalization() {
        assert_eq!(Mersenne61::from_u64(0), 0);
        assert_eq!(Mersenne61::from_u64(MERSENNE61), 0);
        assert_eq!(Mersenne61::from_u64(MERSENNE61 + 5), 5);
        assert_eq!(Mersenne61::from_u64(u64::MAX), u64::MAX % MERSENNE61);
    }

    #[test]
    fn field_ops_small_values() {
        assert_eq!(Mersenne61::add(MERSENNE61 - 1, 1), 0);
        assert_eq!(Mersenne61::sub(0, 1), MERSENNE61 - 1);
        assert_eq!(
            Mersenne61::mul(1 << 31, 1 << 31),
            Mersenne61::from_u64(1 << 62)
        );
    }

    #[test]
    fn inverse_roundtrip() {
        for a in [1u64, 2, 3, 12345, MERSENNE61 - 1] {
            assert_eq!(Mersenne61::mul(a, Mersenne61::inv(a)), 1);
        }
    }

    #[test]
    fn fermat_little_theorem() {
        for a in [2u64, 999, 1 << 40] {
            assert_eq!(Mersenne61::pow(a, MERSENNE61 - 1), 1);
        }
    }

    #[test]
    fn primality_known_values() {
        let primes = [2u64, 3, 5, 7, 97, 7919, 2_147_483_647, MERSENNE61];
        let composites = [1u64, 0, 4, 100, 561, 1_373_653, 25_326_001, 3_215_031_751];
        for p in primes {
            assert!(is_prime_u64(p), "{p} is prime");
        }
        for c in composites {
            assert!(!is_prime_u64(c), "{c} is composite");
        }
    }

    #[test]
    fn primality_strong_pseudoprimes() {
        // 3825123056546413051 = 149491 · 747451 · 34233211, the classic
        // strong pseudoprime to bases 2..23 — must be rejected.
        assert!(!is_prime_u64(3_825_123_056_546_413_051));
        // Carmichael numbers.
        for c in [561u64, 41041, 825_265] {
            assert!(!is_prime_u64(c), "{c}");
        }
    }

    #[test]
    fn next_prime_walks_forward() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(7908), 7919); // 7919 = 1000th prime
        assert_eq!(next_prime(7919), 7919);
    }

    #[test]
    fn bertrand_window_always_has_prime() {
        for w in [8u32, 16, 31, 32, 61, 62, 63] {
            let lo = 1u64 << (w - 1);
            let hi = if w == 63 { u64::MAX } else { 1u64 << w };
            let p = prime_in_range(lo, hi).expect("Bertrand");
            assert!(is_prime_u64(p) && p >= lo && p <= hi, "w={w}");
        }
    }

    #[test]
    fn prime_in_empty_range() {
        assert_eq!(prime_in_range(24, 28), None);
        assert_eq!(prime_in_range(10, 5), None);
    }

    #[test]
    fn addmod_handles_overflow() {
        let m = u64::MAX - 1;
        assert_eq!(addmod(m - 1, m - 1, m), m - 2);
        assert_eq!(addmod(0, 0, m), 0);
    }

    proptest! {
        #[test]
        fn prop_mul_matches_u128(a in 0u64..MERSENNE61, b in 0u64..MERSENNE61) {
            let expected = ((u128::from(a) * u128::from(b)) % u128::from(MERSENNE61)) as u64;
            prop_assert_eq!(Mersenne61::mul(a, b), expected);
        }

        #[test]
        fn prop_reduce128_matches_remainder(hi: u64, lo: u64) {
            let x = u128::from(hi) << 64 | u128::from(lo);
            prop_assert_eq!(Mersenne61::reduce128(x), (x % u128::from(MERSENNE61)) as u64);
        }

        #[test]
        fn prop_dot_matches_elementwise_fold(
            pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..300),
            saturate: bool,
        ) {
            // `saturate` drives both unreduced sums as high as a block can.
            let (a, b): (Vec<u64>, Vec<u64>) = if saturate {
                pairs.iter().map(|_| (u64::MAX, u64::MAX)).unzip()
            } else {
                pairs.into_iter().unzip()
            };
            let expected = a.iter().zip(&b).fold(0, |acc, (&x, &y)| {
                Mersenne61::add(
                    acc,
                    Mersenne61::mul(Mersenne61::from_u64(x), Mersenne61::from_u64(y)),
                )
            });
            prop_assert_eq!(Mersenne61::dot(&a, &b), expected);
        }

        #[test]
        fn prop_add_sub_inverse(a in 0u64..MERSENNE61, b in 0u64..MERSENNE61) {
            prop_assert_eq!(Mersenne61::sub(Mersenne61::add(a, b), b), a);
        }

        #[test]
        fn prop_mulmod_general(a: u64, b: u64, m in 1u64..) {
            let expected = ((u128::from(a) * u128::from(b)) % u128::from(m)) as u64;
            prop_assert_eq!(mulmod(a, b, m), expected);
        }

        #[test]
        fn prop_powmod_agrees_with_naive(a in 0u64..1000, e in 0u64..20, m in 1u64..100_000) {
            let mut acc: u64 = 1 % m;
            for _ in 0..e {
                acc = mulmod(acc, a % m, m);
            }
            prop_assert_eq!(powmod(a, e, m), acc);
        }
    }
}
