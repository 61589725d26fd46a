//! Result integrity (§2 of the paper).
//!
//! "When the output of an operation or a certificate is provided at all
//! PEs rather than in distributed form, we need to ensure that all PEs
//! received the same output or certificate. This can be achieved by
//! hashing the data in question with a random hash function, and
//! comparing the hash values of all other PEs."
//!
//! [`replica_matches_root`] does the first half: PE 0 broadcasts its
//! fingerprint and every PE compares. A checker whose verdict is a
//! collective anyway carries that bool in it (a
//! [`Lanes::veto`](crate::Lanes::veto) or its `all_agree`), so comparing
//! the replicas costs one broadcast and no round of its own.
//! [`replicated_consistent`] adds an AND-all-reduce for callers with no
//! such collective — `O(k + α·log p)` as in the paper.

use ccheck_net::wire::Wire;
use ccheck_net::Comm;

/// Seeded streaming fingerprint of a byte slice (64-bit polynomial
/// accumulation over 𝔽-less mixing; collision probability ≈ 2⁻⁶⁴ for
/// random seeds).
pub fn fingerprint_bytes(seed: u64, data: &[u8]) -> u64 {
    let mut acc = seed ^ 0x1505_1505_1505_1505;
    for chunk in data.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = (acc ^ u64::from_le_bytes(word)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        acc ^= acc >> 29;
    }
    // Finalization: length-dependent tail avoids extension ambiguity.
    acc ^= (data.len() as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    acc ^ (acc >> 32)
}

/// Whether this PE's replica of `value` matches PE 0's: PE 0 broadcasts
/// its fingerprint and each PE compares its own. One broadcast; the
/// answer is local, and the replicas agree everywhere iff it is true on
/// every PE.
pub fn replica_matches_root<T: Wire>(comm: &mut Comm, value: &T, seed: u64) -> bool {
    let local_fp = fingerprint_bytes(seed, &ccheck_net::wire::encode(value));
    comm.broadcast(0, local_fp) == local_fp
}

/// Verify that a replicated value is bitwise identical on every PE:
/// [`replica_matches_root`] and an AND-all-reduce. Every PE returns the
/// same verdict.
pub fn replicated_consistent<T: Wire>(comm: &mut Comm, value: &T, seed: u64) -> bool {
    let matches = replica_matches_root(comm, value, seed);
    comm.all_agree(matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccheck_net::run;

    #[test]
    fn fingerprint_deterministic_and_seeded() {
        let data = b"hello integrity";
        assert_eq!(fingerprint_bytes(1, data), fingerprint_bytes(1, data));
        assert_ne!(fingerprint_bytes(1, data), fingerprint_bytes(2, data));
    }

    #[test]
    fn fingerprint_sensitive_to_every_byte() {
        let base: Vec<u8> = (0..=255).collect();
        let fp = fingerprint_bytes(7, &base);
        for i in 0..base.len() {
            let mut tweaked = base.clone();
            tweaked[i] ^= 1;
            assert_ne!(fp, fingerprint_bytes(7, &tweaked), "byte {i}");
        }
    }

    #[test]
    fn fingerprint_length_sensitive() {
        // Zero-padding must not collide with truncation.
        assert_ne!(
            fingerprint_bytes(3, &[1, 2, 3]),
            fingerprint_bytes(3, &[1, 2, 3, 0])
        );
        assert_ne!(fingerprint_bytes(3, &[]), fingerprint_bytes(3, &[0]));
    }

    #[test]
    fn consistent_replicas_accepted() {
        let verdicts = run(4, |comm| {
            let replicated: Vec<(u64, u64)> = (0..100).map(|i| (i, i * i)).collect();
            replicated_consistent(comm, &replicated, 99)
        });
        assert!(verdicts.iter().all(|&v| v));
    }

    #[test]
    fn diverging_replica_detected() {
        let verdicts = run(4, |comm| {
            let mut replicated: Vec<(u64, u64)> = (0..100).map(|i| (i, i * i)).collect();
            if comm.rank() == 2 {
                replicated[50].1 += 1; // PE 2's copy is corrupt
            }
            replicated_consistent(comm, &replicated, 99)
        });
        assert!(verdicts.iter().all(|&v| !v), "{verdicts:?}");
    }

    #[test]
    fn divergence_at_root_detected() {
        // If PE 0 itself holds the bad copy, all others disagree with it.
        let verdicts = run(3, |comm| {
            let value: u64 = if comm.rank() == 0 { 1 } else { 2 };
            replicated_consistent(comm, &value, 5)
        });
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn single_pe_trivially_consistent() {
        let verdicts = run(1, |comm| replicated_consistent(comm, &42u64, 1));
        assert_eq!(verdicts, vec![true]);
    }
}
