//! Statistical validation of the theoretical failure bounds — a
//! miniature of the Fig. 3 / Fig. 5 experiments with assertion-grade
//! tolerances: the measured false-accept rate must stay below δ with
//! Chernoff slack, and weak configurations must show the *predicted*
//! non-trivial failure rates (confirming the bounds are tight, not just
//! satisfied vacuously).

use ccheck::config::SumCheckConfig;
use ccheck::permutation::PermCheckConfig;
use ccheck::{PermChecker, SumChecker, ZipCheckConfig, ZipChecker};
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

/// Measured false-accept rate of `cfg` under `manip` over `trials`
/// effective manipulations.
fn sum_false_accept_rate(cfg: SumCheckConfig, manip: SumManipulator, trials: u64) -> f64 {
    let input = zipf_valued_pairs(1, 50_000, 1 << 32, 0..5_000);
    let correct = aggregate(&input);
    let mut failures = 0u64;
    let mut effective = 0u64;
    let mut seed = 0u64;
    while effective < trials {
        let mut bad = input.clone();
        let s = seed;
        seed += 1;
        assert!(seed < 100 * trials, "manipulator starved");
        if !manip.apply(&mut bad, s) {
            continue;
        }
        effective += 1;
        if SumChecker::new(cfg, s ^ 0xD157).check_local(&bad, &correct) {
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
                if !manip.apply(&mut bad, s) {
                    continue;
                }
                effective += 1;
                let cfg = PermCheckConfig::hash_sum(HasherKind::Tab32, log_h);
                if PermChecker::new(cfg, s ^ 0x9E37).check_local(&input, &bad) {
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
            if !PermManipulator::Randomize.apply(&mut bad, s) {
                continue;
            }
            if PermChecker::new(cfg, s).check_local(&input, &bad) {
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
            if !PermManipulator::Randomize.apply(&mut bad, s) {
                continue;
            }
            effective += 1;
            if PermChecker::new(cfg, s ^ 0x511C).check_local(&input, &bad) {
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
            SumChecker::new(cfg, seed).check_local(&input, &correct),
            "correct result rejected at seed {seed}"
        );
    }
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
                for manip in ZipManipulator::all() {
                    // The first seed of this trial's sequence under which
                    // the manipulation really changes a lane.
                    let bad = (0..)
                        .find_map(|retry| {
                            let mut bad = zipped.clone();
                            manip.apply(&mut bad, trial + retry * TRIALS).then_some(bad)
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
