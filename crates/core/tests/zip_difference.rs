//! `ZipChecker::check_stream` against the per-stream rule it replaced:
//! fold `s1`, `s2`, `z.first` and `z.second` each with its own
//! `ZipSketch`, sum the fingerprints over the PEs, and accept iff
//! `F(s1) = F(z.first)` and `F(s2) = F(z.second)` in every iteration. The
//! lockstep difference walk must give that verdict for every distribution
//! of the three sequences — empty PEs, partial overlaps, fully disjoint
//! local ranges — on clean and corrupted outputs alike.

use ccheck::sketch::Sketch;
use ccheck::zip::{ZipCheckConfig, ZipChecker};
use ccheck_hashing::field::Mersenne61;
use ccheck_hashing::HasherKind;
use ccheck_net::router::Router;
use ccheck_net::{run, Comm};
use proptest::prelude::*;

const PES: [usize; 4] = [1, 2, 3, 5];
const ITERATIONS: [usize; 3] = [1, 4, 16];

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Share boundaries of `n` items over `p` PEs (PE r holds
/// `bounds[r]..bounds[r + 1]`): even, all on the first PE, all on the
/// last PE, or cut at `p − 1` pseudo-random points.
fn layout(kind: u8, n: usize, p: usize, seed: u64) -> Vec<usize> {
    let mut bounds: Vec<usize> = (0..=p)
        .map(|r| match kind {
            _ if r == 0 => 0,
            _ if r == p => n,
            0 => r * n / p,
            1 => n,
            2 => 0,
            _ => splitmix(seed ^ r as u64) as usize % (n + 1),
        })
        .collect();
    bounds.sort_unstable();
    bounds
}

/// The rule the difference walk replaced, on one PE's shares starting at
/// the given global indices (all three sequences have the same global
/// length here, so the length comparison it also made always passes).
fn per_stream_rule(
    checker: &ZipChecker,
    iterations: usize,
    comm: &mut Comm,
    (a, a_start): (&[u64], u64),
    (b, b_start): (&[u64], u64),
    (z, z_start): (&[(u64, u64)], u64),
) -> bool {
    let fingerprint = |lane: usize, start: u64, items: &mut dyn Iterator<Item = u64>| {
        let mut sketch = checker.sketch(lane, start);
        sketch.update_iter(items);
        sketch.finalize().2
    };
    let local = [
        fingerprint(0, a_start, &mut a.iter().copied()),
        fingerprint(0, z_start, &mut z.iter().map(|&(x, _)| x)),
        fingerprint(1, b_start, &mut b.iter().copied()),
        fingerprint(1, z_start, &mut z.iter().map(|&(_, y)| y)),
    ]
    .concat();
    let global = comm.allreduce(local, |x, y| {
        x.iter()
            .zip(&y)
            .map(|(&u, &v)| Mersenne61::add(u, v))
            .collect()
    });
    let lane = |k: usize| &global[k * iterations..(k + 1) * iterations];
    lane(0) == lane(1) && lane(2) == lane(3)
}

/// Corrupt `z` at no, one, three, or every position; true if it changed.
fn corrupt(z: &mut [(u64, u64)], how: u8, seed: u64) -> bool {
    let positions = match how {
        0 => 0,
        1 => 1,
        2 => 3,
        _ => z.len(),
    };
    if z.is_empty() {
        return false;
    }
    for k in 0..positions {
        let r = splitmix(seed ^ ((k as u64) << 20));
        let i = if positions == z.len() {
            k
        } else {
            r as usize % z.len()
        };
        // A non-zero flip, in one component chosen by the top bit.
        let flip = (r >> 1) | 1;
        if r >> 63 == 0 {
            z[i].0 ^= flip;
        } else {
            z[i].1 ^= flip;
        }
    }
    positions > 0
}

/// Run the check and the rule on one world; `(walked, rule)` per PE.
fn both_verdicts(
    [s1, s2]: [&[u64]; 2],
    z: &[(u64, u64)],
    bounds: &[Vec<usize>],
    iterations: usize,
    seed: u64,
) -> Vec<(bool, bool)> {
    let cfg = ZipCheckConfig {
        hasher: HasherKind::Tab64,
        iterations,
    };
    run(bounds[0].len() - 1, |comm| {
        let r = comm.rank();
        let (a0, b0, z0) = (bounds[0][r], bounds[1][r], bounds[2][r]);
        let a = &s1[a0..bounds[0][r + 1]];
        let b = &s2[b0..bounds[1][r + 1]];
        let zs = &z[z0..bounds[2][r + 1]];
        let checker = ZipChecker::new(cfg, seed);
        let walked = checker.check_stream(
            comm,
            (a.len() as u64, a.iter().copied()),
            (b.len() as u64, b.iter().copied()),
            (zs.len() as u64, zs.iter().copied()),
        );
        let rule = per_stream_rule(
            &checker,
            iterations,
            comm,
            (a, a0 as u64),
            (b, b0 as u64),
            (zs, z0 as u64),
        );
        (walked, rule)
    })
}

/// `(s1, s2, zipped, corrupted)`.
type Instance = (Vec<u64>, Vec<u64>, Vec<(u64, u64)>, bool);

/// `n` clean input pairs from `seed`, and their zip corrupted as `how`
/// says (see [`corrupt`]); true if it was.
fn instance(n: usize, how: u8, seed: u64) -> Instance {
    let s1: Vec<u64> = (0..n as u64).map(|i| splitmix(seed ^ i)).collect();
    let s2: Vec<u64> = (0..n as u64).map(|i| splitmix(!seed ^ i) >> 40).collect();
    let mut z: Vec<(u64, u64)> = s1.iter().copied().zip(s2.iter().copied()).collect();
    let corrupted = corrupt(&mut z, how, seed);
    (s1, s2, z, corrupted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn difference_walk_matches_the_per_stream_rule(
        n in 0usize..700,
        kinds in (0u8..4, 0u8..4, 0u8..4),
        how in 0u8..4,
        seed: u64,
    ) {
        let (s1, s2, z, corrupted) = instance(n, how, seed);
        for p in PES {
            let bounds: Vec<Vec<usize>> = [kinds.0, kinds.1, kinds.2]
                .iter()
                .enumerate()
                .map(|(k, &kind)| layout(kind, n, p, seed.rotate_left(8 * k as u32)))
                .collect();
            for iterations in ITERATIONS {
                for (walked, rule) in both_verdicts([&s1, &s2], &z, &bounds, iterations, seed) {
                    prop_assert!(
                        walked == rule && walked != corrupted,
                        "walked {walked}, rule {rule}, corrupted {corrupted}: p={p} its={iterations} {bounds:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn every_combination_of_layouts_agrees_with_the_rule() {
    // All 64 layout triples at p = 3 — among them `s1` wholly on the
    // first PE and `z` wholly on the last, so no range meets another.
    const N: usize = 600;
    for how in [0, 1] {
        let (s1, s2, z, corrupted) = instance(N, how, 0x5EED);
        for kinds in 0..64u8 {
            let bounds: Vec<Vec<usize>> = (0..3)
                .map(|k| layout((kinds >> (2 * k)) & 3, N, 3, k as u64))
                .collect();
            for (walked, rule) in both_verdicts([&s1, &s2], &z, &bounds, 4, 17) {
                assert_eq!((walked, rule), (!corrupted, !corrupted), "{bounds:?}");
            }
        }
    }
}

/// Declared lengths `[n, n, n]` on one PE, with stream `wrong` (0 = s1,
/// 1 = s2, 2 = zipped) yielding `actual` items instead.
fn check_miscounted(wrong: usize, actual: usize) {
    const N: usize = 600;
    let len = |k: usize| if k == wrong { actual } else { N };
    let mut comms = Router::build(1).into_comms();
    ZipChecker::new(ZipCheckConfig::default(), 3).check_stream(
        &mut comms[0],
        (N as u64, (0..len(0) as u64).map(|i| i * 7)),
        (N as u64, (0..len(1) as u64).map(|i| i + 9)),
        (N as u64, (0..len(2) as u64).map(|i| (i * 7, i + 9))),
    );
}

#[test]
#[should_panic(expected = "s1 stream shorter/longer than declared")]
fn short_s1_stream_panics() {
    check_miscounted(0, 599);
}

#[test]
#[should_panic(expected = "s1 stream shorter/longer than declared")]
fn long_s1_stream_panics() {
    check_miscounted(0, 601);
}

#[test]
#[should_panic(expected = "s2 stream shorter/longer than declared")]
fn short_s2_stream_panics() {
    check_miscounted(1, 0);
}

#[test]
#[should_panic(expected = "s2 stream shorter/longer than declared")]
fn long_s2_stream_panics() {
    check_miscounted(1, 1000);
}

#[test]
#[should_panic(expected = "zipped stream shorter/longer than declared")]
fn short_zipped_stream_panics() {
    check_miscounted(2, 256);
}

#[test]
#[should_panic(expected = "zipped stream shorter/longer than declared")]
fn long_zipped_stream_panics() {
    check_miscounted(2, 601);
}
