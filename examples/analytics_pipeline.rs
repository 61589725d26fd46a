//! A certified analytics pipeline: every operation of Table 1 in one
//! program, each verified by its checker.
//!
//! Over a synthetic sales dataset (power-law product keys), the pipeline
//! computes per-product average, median, minimum and maximum; zips two
//! derived sequences; unions and merges partial datasets; and verifies
//! the GroupBy redistribution phase — demonstrating the full checker
//! API, including the certificates produced by the dataflow layer.
//!
//! ```text
//! cargo run --example analytics_pipeline --release
//! ```

use ccheck::permutation::{PermCheckConfig, PermChecker};
use ccheck::zip::{ZipCheckConfig, ZipChecker};
use ccheck::{
    check_average, check_groupby_redistribution, check_max, check_median_unique, check_merge,
    check_min, check_union, SumCheckConfig,
};
use ccheck_dataflow::{
    average_by_key, max_by_key, median_by_key, merge_sorted, min_by_key, redistribute_by_key_hash,
    sort, union, zip,
};
use ccheck_hashing::{Hasher, HasherKind};
use ccheck_net::run;
use ccheck_workloads::{local_range, zipf_valued_pairs};

const PES: usize = 4;
const N: usize = 20_000;

fn main() {
    let sum_cfg = SumCheckConfig::new(6, 16, 9, HasherKind::Tab64);
    let results = run(PES, |comm| {
        let rank = comm.rank();
        // Synthetic sales: (product, amount) with power-law products and
        // effectively-unique amounts (median checker's uniqueness case).
        let sales = zipf_valued_pairs(3, 500, 1 << 30, local_range(N, rank, PES));
        let mut report: Vec<(String, bool)> = Vec::new();

        // --- average with count certificate (§6.1) -------------------
        let part_hasher = Hasher::new(HasherKind::Tab64, 77);
        let avg = average_by_key(comm, sales.clone(), &part_hasher);
        report.push((
            "average (count certificate)".into(),
            check_average(comm, &sales, &avg.averages, &avg.counts, sum_cfg, 101),
        ));

        // --- median, asserted result at every PE (§6.3) --------------
        let medians = median_by_key(comm, sales.clone(), &part_hasher);
        report.push((
            "median (replicated result)".into(),
            check_median_unique(comm, &sales, &medians, sum_cfg, 102),
        ));

        // --- min/max with location certificates (§6.2) ---------------
        let mins = min_by_key(comm, sales.clone());
        report.push((
            "minimum (location certificate)".into(),
            check_min(comm, &sales, &mins.optima, &mins.locations),
        ));
        let maxs = max_by_key(comm, sales.clone());
        report.push((
            "maximum (location certificate)".into(),
            check_max(comm, &sales, &maxs.optima, &maxs.locations),
        ));

        // --- zip two derived columns (§6.4) ---------------------------
        let amounts: Vec<u64> = sales.iter().map(|&(_, v)| v).collect();
        let discounted: Vec<u64> = sales.iter().map(|&(_, v)| v / 2).collect();
        let zipped = zip(comm, &amounts, &discounted);
        let zc = ZipChecker::new(ZipCheckConfig::default(), 103);
        report.push(("zip".into(), zc.check(comm, &amounts, &discounted, &zipped)));

        // --- union + merge (§6.5.1, §6.5.2) ---------------------------
        let perm = PermChecker::new(PermCheckConfig::hash_sum(HasherKind::Tab64, 32), 104);
        let week1: Vec<u64> = amounts.iter().copied().step_by(2).collect();
        let week2: Vec<u64> = amounts.iter().copied().skip(1).step_by(2).collect();
        let unioned = union(week1.clone(), week2.clone());
        report.push((
            "union".into(),
            check_union(comm, &week1, &week2, &unioned, &perm),
        ));

        let sorted1 = sort(comm, week1.clone());
        let sorted2 = sort(comm, week2.clone());
        let merged = merge_sorted(comm, sorted1.clone(), sorted2.clone());
        report.push((
            "merge".into(),
            check_merge(comm, &sorted1, &sorted2, &merged, &perm),
        ));

        // --- GroupBy redistribution phase (§6.5.3, invasive) ----------
        let redistributed = redistribute_by_key_hash(comm, sales.clone(), &part_hasher);
        report.push((
            "groupby redistribution".into(),
            check_groupby_redistribution(comm, &sales, &redistributed, &part_hasher, &perm, 105),
        ));

        report
    });

    println!("certified analytics pipeline over {N} sales records on {PES} PEs\n");
    for (name, ok) in &results[0] {
        println!(
            "  {:<32} {}",
            name,
            if *ok { "VERIFIED" } else { "REJECTED" }
        );
    }
    assert!(
        results.iter().all(|r| r.iter().all(|&(_, ok)| ok)),
        "all stages must verify"
    );
    println!("\nAll {} pipeline stages certified.", results[0].len());
}
