//! Statistical validation of the theoretical failure bounds — a
//! miniature of the Fig. 3 / Fig. 5 experiments with assertion-grade
//! tolerances: the measured false-accept rate must stay below δ with
//! Chernoff slack, and weak configurations must show the *predicted*
//! non-trivial failure rates (confirming the bounds are tight, not just
//! satisfied vacuously).
//!
//! Every trial also holds a check's verdict — [`Lanes::accepts`] on the
//! lanes of the difference of its input's and output's digests — to the
//! predicate it replaced, the two finalized digests being equal (for
//! zip: the four per-iteration fingerprints), whether or not the
//! manipulation took effect: sum (unsigned, and signed over the median
//! checker's ±1 streams), xor, all three permutation methods and zip.

use ccheck::config::SumCheckConfig;
use ccheck::lanes::Lanes;
use ccheck::permutation::{PermCheckConfig, PermMethod};
use ccheck::sketch::{digest_chunked, Sketch};
use ccheck::{PermChecker, SumChecker, XorCheckConfig, XorChecker, ZipCheckConfig, ZipChecker};
use ccheck_hashing::HasherKind;
use ccheck_manip::{PermManipulator, SumManipulator, ZipManipulator};
use ccheck_workloads::{uniform_ints, zipf_valued_pairs};
use std::collections::HashMap;

fn aggregate(input: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut m: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in input {
        *m.entry(k).or_insert(0) = m.get(&k).copied().unwrap_or(0).wrapping_add(v);
    }
    let mut out: Vec<(u64, u64)> = m.into_iter().collect();
    out.sort_unstable();
    out
}

/// The verdict of one check, `old` — the predicate the check used to
/// evaluate: its two finalized digests are equal (for zip, its four
/// fingerprints pairwise) — after asserting that `lanes`, their
/// difference, accept exactly when it holds.
fn same_verdict(old: bool, lanes: Lanes, what: &str) -> bool {
    assert_eq!(
        lanes.accepts(),
        old,
        "{what}: the lanes and the digests disagree"
    );
    old
}

/// The sum check's verdict, held to the digest predicate.
fn sum_verdict(checker: &SumChecker, input: &[(u64, u64)], output: &[(u64, u64)]) -> bool {
    let digest =
        |side: &[(u64, u64)]| digest_chunked(|| checker.sketch(), side.iter().copied(), usize::MAX);
    let (a, b) = (digest(input), digest(output));
    same_verdict(a == b, checker.lanes(a, b), "sum")
}

/// The signed sum check of a ±1 stream against an all-zero target (the
/// median checker's balance), held to the digest predicate.
fn signed_verdict(checker: &SumChecker, signs: &[(u64, i64)]) -> bool {
    let digest = |side: &[(u64, i64)]| {
        let mut sketch = checker.sketch();
        sketch.update_signed_iter(side.iter().copied());
        sketch.finalize()
    };
    let (a, b) = (digest(signs), digest(&[]));
    same_verdict(a == b, checker.lanes(a, b), "signed sum")
}

/// The xor check's verdict, held to the digest predicate.
fn xor_verdict(checker: &XorChecker, input: &[(u64, u64)], output: &[(u64, u64)]) -> bool {
    let digest =
        |side: &[(u64, u64)]| digest_chunked(|| checker.sketch(), side.iter().copied(), usize::MAX);
    let (a, b) = (digest(input), digest(output));
    same_verdict(a == b, checker.lanes(a, b), "xor")
}

/// The permutation check's verdict, held to the digest predicate.
fn perm_verdict(checker: &PermChecker, input: &[u64], output: &[u64]) -> bool {
    let digest =
        |side: &[u64]| digest_chunked(|| checker.sketch(), side.iter().copied(), usize::MAX);
    let (a, b) = (digest(input), digest(output));
    let what = format!("{:?}", checker.config().method);
    same_verdict(a == b, checker.lanes(a, b), &what)
}

/// Every key's median as the median checker computes it (the mean of
/// the two middle values for an even count).
fn medians(input: &[(u64, u64)]) -> HashMap<u64, f64> {
    let mut by_key: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(k, v) in input {
        by_key.entry(k).or_default().push(v);
    }
    by_key
        .into_iter()
        .map(|(k, mut vs)| {
            vs.sort_unstable();
            let n = vs.len();
            let m = (vs[(n - 1) / 2] as f64 + vs[n / 2] as f64) / 2.0;
            (k, m)
        })
        .collect()
}

/// Algorithm 2's ±1 stream of `pairs` against `medians`: −1 below its
/// key's median, +1 above; equal values and unknown keys add nothing.
fn median_signs(pairs: &[(u64, u64)], medians: &HashMap<u64, f64>) -> Vec<(u64, i64)> {
    pairs
        .iter()
        .filter_map(|&(k, v)| {
            let m = *medians.get(&k)?;
            let v = v as f64;
            (v != m).then_some((k, if v < m { -1 } else { 1 }))
        })
        .collect()
}

/// Measured false-accept rate of `cfg` under `manip` over `trials`
/// effective manipulations.
///
/// Each trial also runs, on the same manipulated input, the xor checker
/// of the same shape against the xor aggregate and the signed sum
/// checker over the ±1 stream against the input's medians, for their
/// predicate-equivalence assertions.
fn sum_false_accept_rate(cfg: SumCheckConfig, manip: SumManipulator, trials: u64) -> f64 {
    let input = zipf_valued_pairs(1, 50_000, 1 << 32, 0..5_000);
    let correct = aggregate(&input);
    let mut xor_correct: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in &input {
        *xor_correct.entry(k).or_insert(0) ^= v;
    }
    let xor_correct: Vec<(u64, u64)> = xor_correct.into_iter().collect();
    let medians = medians(&input);
    let xor_cfg = XorCheckConfig::new(cfg.iterations, cfg.buckets, cfg.hasher);
    let mut failures = 0u64;
    let mut effective = 0u64;
    let mut seed = 0u64;
    while effective < trials {
        let mut bad = input.clone();
        let s = seed;
        seed += 1;
        assert!(seed < 100 * trials, "manipulator starved");
        let applied = manip.apply(&mut bad, s);
        let accepted = sum_verdict(&SumChecker::new(cfg, s ^ 0xD157), &bad, &correct);
        xor_verdict(&XorChecker::new(xor_cfg, s ^ 0xD157), &bad, &xor_correct);
        signed_verdict(
            &SumChecker::new(cfg, s ^ 0xBA1A),
            &median_signs(&bad, &medians),
        );
        if !applied {
            continue;
        }
        effective += 1;
        if accepted {
            failures += 1;
        }
    }
    failures as f64 / trials as f64
}

#[test]
fn sum_checker_meets_delta_bounds() {
    // (config, trials): weak configs with measurable δ.
    let cases = [
        (SumCheckConfig::new(1, 2, 31, HasherKind::Tab32), 400u64), // δ = 0.5
        (SumCheckConfig::new(1, 4, 31, HasherKind::Tab32), 400),    // δ = 0.25
        (SumCheckConfig::new(4, 4, 3, HasherKind::Tab32), 600),     // δ ≈ 0.02
    ];
    for (cfg, trials) in cases {
        let delta = cfg.failure_bound();
        for manip in [SumManipulator::RandKey, SumManipulator::SwitchValues] {
            let rate = sum_false_accept_rate(cfg, manip, trials);
            // Chernoff-ish slack: allow 1.6·δ + 4·sqrt(δ/trials).
            let bound = 1.6 * delta + 4.0 * (delta / trials as f64).sqrt();
            assert!(
                rate <= bound,
                "{} under {:?}: rate {rate} > bound {bound} (δ={delta})",
                cfg.label(),
                manip
            );
        }
    }
}

#[test]
fn weak_sum_config_failure_rate_is_nontrivial() {
    // d=2, huge r̂: a random key reassignment escapes iff both keys land
    // in the same bucket — probability ≈ 1/2. The bound must be *tight*.
    let cfg = SumCheckConfig::new(1, 2, 31, HasherKind::Tab32);
    let rate = sum_false_accept_rate(cfg, SumManipulator::RandKey, 400);
    assert!(
        (0.35..=0.62).contains(&rate),
        "rate {rate} should be ≈ 0.5 for d=2"
    );
}

#[test]
fn perm_checker_meets_delta_bounds() {
    let input = uniform_ints(2, 100_000_000, 0..5_000);
    let reversed: Vec<u64> = input.iter().rev().copied().collect();
    for log_h in [1u32, 2, 4] {
        let delta = (0.5f64).powi(log_h as i32);
        let trials = 400u64;
        for manip in [PermManipulator::Randomize, PermManipulator::Reset] {
            let mut failures = 0u64;
            let mut effective = 0u64;
            let mut seed = 0u64;
            while effective < trials {
                let mut bad = input.clone();
                let s = seed;
                seed += 1;
                let applied = manip.apply(&mut bad, s);
                let cfg = PermCheckConfig::hash_sum(HasherKind::Tab32, log_h);
                let accepted = perm_verdict(&PermChecker::new(cfg, s ^ 0x9E37), &input, &bad);
                // The polynomial methods on the same trial and on a true
                // permutation, for their predicate-equivalence assertions.
                for method in [PermMethod::PolyField, PermMethod::PolyGf64] {
                    let cfg = PermCheckConfig {
                        method,
                        iterations: 1 + log_h as usize / 2,
                    };
                    let poly = PermChecker::new(cfg, s ^ 0x9E37);
                    perm_verdict(&poly, &input, &bad);
                    assert!(perm_verdict(&poly, &input, &reversed));
                }
                if !applied {
                    continue;
                }
                effective += 1;
                if accepted {
                    failures += 1;
                }
            }
            let rate = failures as f64 / trials as f64;
            let bound = 1.6 * delta + 4.0 * (delta / trials as f64).sqrt();
            assert!(
                rate <= bound,
                "Tab{log_h} under {manip:?}: rate {rate} > {bound}"
            );
        }
    }
}

#[test]
fn perm_iterations_square_the_failure_probability() {
    // One hash bit (δ=1/2) vs four independent bits (δ=1/16): the
    // measured ratio must drop by roughly 8×.
    let input = uniform_ints(3, 1 << 30, 0..2_000);
    let measure = |iterations: usize, trials: u64| -> f64 {
        let cfg = PermCheckConfig {
            method: ccheck::PermMethod::HashSum {
                hasher: HasherKind::Tab32,
                log_h: 1,
            },
            iterations,
        };
        let mut failures = 0;
        for s in 0..trials {
            let mut bad = input.clone();
            let applied = PermManipulator::Randomize.apply(&mut bad, s);
            if perm_verdict(&PermChecker::new(cfg, s), &input, &bad) && applied {
                failures += 1;
            }
        }
        failures as f64 / trials as f64
    };
    let single = measure(1, 600);
    let quad = measure(4, 600);
    assert!(single > 0.35, "single-bit rate {single} ≉ 0.5");
    assert!(quad < 0.18, "4-iteration rate {quad} should be ≈ 1/16");
}

#[test]
fn slices_of_one_tabulation_word_are_independent_iterations() {
    // Tab64 at log_h = 2: both iterations are 2-bit slices of the same
    // hash word. A randomized element escapes one iteration with
    // probability 1/4; if the slices were correlated, the pair would
    // miss at nearly that rate too, instead of the product 1/16.
    const TRIALS: u64 = 2400;
    let input = uniform_ints(8, 1 << 40, 0..300);
    let miss_rate = |iterations: usize| -> f64 {
        let cfg = PermCheckConfig {
            method: ccheck::PermMethod::HashSum {
                hasher: HasherKind::Tab64,
                log_h: 2,
            },
            iterations,
        };
        let mut misses = 0u64;
        let mut effective = 0u64;
        let mut seed = 0u64;
        while effective < TRIALS {
            let mut bad = input.clone();
            let s = seed;
            seed += 1;
            let applied = PermManipulator::Randomize.apply(&mut bad, s);
            let accepted = perm_verdict(&PermChecker::new(cfg, s ^ 0x511C), &input, &bad);
            if !applied {
                continue;
            }
            effective += 1;
            if accepted {
                misses += 1;
            }
        }
        misses as f64 / TRIALS as f64
    };
    // Binomial slack: four standard deviations of the rate at `p`.
    let slack = |p: f64| 4.0 * (p * (1.0 - p) / TRIALS as f64).sqrt();
    let single = miss_rate(1);
    assert!(
        (single - 0.25).abs() <= slack(0.25),
        "one 2-bit iteration misses at {single}, not ≈ 1/4"
    );
    let pair = miss_rate(2);
    let bound = 1.0 / 16.0 + slack(1.0 / 16.0);
    assert!(
        pair <= bound,
        "two slices of one word miss at {pair} > {bound}: correlated"
    );
}

#[test]
fn one_sidedness_over_many_seeds() {
    // The defining property: correct results are never rejected.
    let input = zipf_valued_pairs(4, 10_000, 1 << 32, 0..3_000);
    let correct = aggregate(&input);
    for seed in 0..300 {
        let cfg = SumCheckConfig::new(2, 4, 4, HasherKind::Crc32c);
        assert!(
            sum_verdict(&SumChecker::new(cfg, seed), &input, &correct),
            "correct result rejected at seed {seed}"
        );
    }
}

/// Whether the zip check of whole sequences (p = 1), its lanes, agrees
/// with the predicate it replaced: per iteration, `F(s1) = F(z.first)`
/// and `F(s2) = F(z.second)` over the four fingerprints. A bool rather
/// than an assertion, since it runs inside an SPMD region, where a panic
/// on one PE would leave the others waiting.
fn zip_lanes_agree(checker: &ZipChecker, s1: &[u64], s2: &[u64], zipped: &[(u64, u64)]) -> bool {
    let fingerprints = |lane: usize, items: &mut dyn Iterator<Item = u64>| {
        let mut sketch = checker.sketch(lane, 0);
        sketch.update_iter(items);
        sketch.finalize().2
    };
    let firsts = fingerprints(0, &mut zipped.iter().map(|&(x, _)| x));
    let seconds = fingerprints(1, &mut zipped.iter().map(|&(_, y)| y));
    let old = fingerprints(0, &mut s1.iter().copied()) == firsts
        && fingerprints(1, &mut s2.iter().copied()) == seconds;
    let n = |len: usize| len as u64;
    let lanes = checker.lanes(
        [0; 3],
        (n(s1.len()), s1.iter().copied()),
        (n(s2.len()), s2.iter().copied()),
        (n(zipped.len()), zipped.iter().copied()),
    );
    lanes.accepts() == old
}

/// The contiguous share `bounds[rank]..bounds[rank + 1]` of `v`.
fn share<'a, T>(v: &'a [T], bounds: &[usize], rank: usize) -> &'a [T] {
    &v[bounds[rank]..bounds[rank + 1]]
}

#[test]
fn zip_checker_rejects_every_manipulation_and_accepts_every_clean_zip() {
    // With 61-bit fingerprints a miss is a ~2⁻⁶¹ event per iteration:
    // every effective manipulation must be rejected in every trial, and
    // (one-sidedness) every clean zip accepted — through the slice entry
    // point with evenly split sequences, and through `check_stream` with
    // the output distributed differently from the inputs, so `z_start ≠
    // s1_start` on every PE but the first and the 256-item blocks of the
    // fold straddle the data differently on the two sides. A third path
    // has the layout `ccheck_dataflow::zip` produces — `a` and the output
    // split alike, `b` not — so lane 0 is co-located and takes the
    // equal-block skip while lane 1 is hashed.
    const N: usize = 1000;
    const TRIALS: u64 = 200;
    const EVEN: [usize; 4] = [0, 334, 667, N];
    const SKEWED: [usize; 4] = [0, 513, 900, N];
    let s1 = uniform_ints(5, u64::MAX, 0..N);
    let s2 = uniform_ints(6, 1 << 20, 0..N);
    let zipped: Vec<(u64, u64)> = s1.iter().copied().zip(s2.iter().copied()).collect();

    for iterations in [1usize, 4] {
        let cfg = ZipCheckConfig {
            hasher: HasherKind::Tab64,
            iterations,
        };
        let wrong_verdicts = ccheck_net::run(3, |comm| {
            let rank = comm.rank();
            let (a, b) = (share(&s1, &EVEN, rank), share(&s2, &EVEN, rank));
            let b_skewed = share(&s2, &SKEWED, rank);
            let mut wrong = Vec::new();
            for trial in 0..TRIALS {
                let checker = ZipChecker::new(cfg, trial ^ 0x21D0);
                let mut all_paths = |output: &[(u64, u64)]| {
                    let skewed = share(output, &SKEWED, rank);
                    let even = share(output, &EVEN, rank);
                    let via_check = checker.check(comm, a, b, even);
                    let via_stream = checker.check_stream(
                        comm,
                        (a.len() as u64, a.iter().copied()),
                        (b.len() as u64, b.iter().copied()),
                        (skewed.len() as u64, skewed.iter().copied()),
                    );
                    let via_dataflow_layout = checker.check_stream(
                        comm,
                        (a.len() as u64, a.iter().copied()),
                        (b_skewed.len() as u64, b_skewed.iter().copied()),
                        (even.len() as u64, even.iter().copied()),
                    );
                    (via_check, via_stream, via_dataflow_layout)
                };
                if all_paths(&zipped) != (true, true, true) {
                    wrong.push(format!("clean zip rejected, trial {trial}"));
                }
                if rank == 0 && !zip_lanes_agree(&checker, &s1, &s2, &zipped) {
                    wrong.push(format!("lanes disagree on the clean zip, trial {trial}"));
                }
                for manip in ZipManipulator::all() {
                    // The first seed of this trial's sequence under which
                    // the manipulation really changes a lane; every seed
                    // tried holds the lanes to the fingerprints.
                    let bad = (0..)
                        .find_map(|retry| {
                            let mut bad = zipped.clone();
                            let applied = manip.apply(&mut bad, trial + retry * TRIALS);
                            if rank == 0 && !zip_lanes_agree(&checker, &s1, &s2, &bad) {
                                let label = manip.label();
                                wrong.push(format!("lanes disagree under {label}, trial {trial}"));
                            }
                            applied.then_some(bad)
                        })
                        .expect("unbounded retries");
                    if all_paths(&bad) != (false, false, false) {
                        wrong.push(format!("{} accepted, trial {trial}", manip.label()));
                    }
                }
            }
            wrong
        });
        for wrong in wrong_verdicts {
            assert!(wrong.is_empty(), "iterations={iterations}: {wrong:?}");
        }
    }
}
