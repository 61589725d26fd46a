//! What a run produces: named metrics with unit, sample count, median and
//! quartiles; how they are printed, stored, and compared.

use std::collections::BTreeMap;

use ccheck_service::json::{self, Json};

use crate::catalog::{self, Better, EndToEnd};
use crate::stats::Summary;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: &str, unit: &str, summary: Summary) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            summary,
        }
    }
}

/// One run of one workload, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted and failed: timed jobs plus preflight checks.
    /// An error, a refusal, any verdict other than `Verified` on a clean
    /// job, or `Verified` on a faulted one, is a failed operation.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric as `{value, unit}` with all its digits.
    pub fn contract_line(&self) -> String {
        let metrics: BTreeMap<String, Json> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Float(m.summary.median)),
                        ("unit", Json::from(m.unit.as_str())),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// Full detail, for `--out` files and `compare`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::from(m.name.as_str())),
                    ("unit", Json::from(m.unit.as_str())),
                    ("n", Json::from(m.summary.n as u64)),
                    ("median", Json::Float(m.summary.median)),
                    ("q1", Json::Float(m.summary.q1)),
                    ("q3", Json::Float(m.summary.q3)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Arr(metrics)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<WorkloadReport, String> {
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("report without {key}"))
        };
        let count = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("report without {key}"))
        };
        let Some(Json::Arr(items)) = v.get("metrics") else {
            return Err("report without metrics".into());
        };
        let mut metrics = Vec::with_capacity(items.len());
        for item in items {
            let num = |key: &str| {
                item.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric without {key}"))
            };
            metrics.push(Metric {
                name: item
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                unit: item
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or("metric without unit")?
                    .to_string(),
                summary: Summary {
                    n: num("n")? as usize,
                    median: num("median")?,
                    q1: num("q1")?,
                    q3: num("q3")?,
                },
            });
        }
        Ok(WorkloadReport {
            workload: text("workload")?,
            seed: count("seed")?,
            traced: v.get("traced").and_then(Json::as_bool) == Some(true),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    /// Every metric by name with unit, sample count, median and quartiles.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}) — attempted {}, failed {}, failed_share {}\n",
            self.workload,
            self.seed,
            if self.traced {
                "traced: per-layer"
            } else {
                "untraced: end-to-end"
            },
            self.attempted,
            self.failed,
            self.failed_share(),
        );
        out.push_str(&format!(
            "{:<40} {:>8} {:>6} {:>14} {:>14} {:>14}\n",
            "metric", "unit", "n", "median", "q1", "q3"
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<40} {:>8} {:>6} {:>14} {:>14} {:>14}\n",
                m.name,
                m.unit,
                m.summary.n,
                sig(m.summary.median),
                sig(m.summary.q1),
                sig(m.summary.q3),
            ));
        }
        out
    }
}

/// Five significant digits, for tables only (files keep every digit).
pub fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let magnitude = x.abs().log10().floor() as i32;
    let decimals = (4 - magnitude).clamp(0, 9) as usize;
    format!("{x:.decimals$}")
}

/// A set of workload reports (one `run`), as stored by `--out`.
pub fn set_to_json(reports: &[WorkloadReport]) -> Json {
    Json::obj([
        ("claim", Json::Null),
        (
            "reports",
            Json::Arr(reports.iter().map(WorkloadReport::to_json).collect()),
        ),
    ])
}

pub fn set_from_json(text: &str) -> Result<Vec<WorkloadReport>, String> {
    let doc = json::parse(text)?;
    match doc.get("reports") {
        Some(Json::Arr(items)) => items.iter().map(WorkloadReport::from_json).collect(),
        _ => Err("result set without reports".into()),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Better,
    /// Worse than the bound allows.
    Worse,
    /// The metric's own inter-quartile spread exceeds its bound on either
    /// side, so a change of that size cannot be told from noise.
    Unresolved,
}

/// Compare one end-to-end metric: `a` is the baseline, `b` the candidate.
pub fn judge(def: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    if def.exact {
        let grew = b.median > a.median;
        return match def.better {
            _ if b.median == a.median => Verdict::Unchanged,
            Better::Lower if grew => Verdict::Worse,
            Better::Higher if !grew => Verdict::Worse,
            _ => Verdict::Better,
        };
    }
    let worsening = match def.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    let share = worsening / a.median.abs();
    if share > def.bound && worsening.abs() >= def.abs_floor {
        Verdict::Worse
    } else if a.spread() > def.bound || b.spread() > def.bound {
        Verdict::Unresolved
    } else if -share > def.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Compare two result sets row by row. Returns the printed table and
/// whether anything regressed: an end-to-end metric worse than its bound,
/// an exact count that differs, or a `failed_share` that rose.
pub fn compare(a: &[WorkloadReport], b: &[WorkloadReport]) -> (String, bool) {
    let mut out = format!(
        "{:<11} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut regressed = false;
    for ra in a.iter().filter(|r| !r.traced) {
        let Some(rb) = b.iter().find(|r| !r.traced && r.workload == ra.workload) else {
            out.push_str(&format!("{:<11} missing from B\n", ra.workload));
            regressed = true;
            continue;
        };
        for def in &catalog::END_TO_END {
            let (Some(ma), Some(mb)) = (ra.metric(def.name), rb.metric(def.name)) else {
                continue;
            };
            let verdict = judge(def, &ma.summary, &mb.summary);
            regressed |= verdict == Verdict::Worse;
            let change = (mb.summary.median - ma.summary.median) / ma.summary.median.abs();
            out.push_str(&format!(
                "{:<11} {:<24} {:>14} {:>14} {:>+8.2}% {:>6.1}%  {}\n",
                ra.workload,
                def.name,
                sig(ma.summary.median),
                sig(mb.summary.median),
                change * 100.0,
                def.bound * 100.0,
                match verdict {
                    Verdict::Unchanged => "unchanged",
                    Verdict::Better => "better",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                },
            ));
        }
        let (fa, fb) = (ra.failed_share(), rb.failed_share());
        let rose = fb > fa;
        regressed |= rose;
        out.push_str(&format!(
            "{:<11} {:<24} {:>14} {:>14} {:>9} {:>7}  {}\n",
            ra.workload,
            "failed_share",
            fa,
            fb,
            "",
            "0",
            if rose { "WORSE" } else { "unchanged" },
        ));
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{end_to_end, CHECK_BYTES, JOBS_PER_S, LATENCY_P50, SETUP_S};

    fn around(median: f64, spread: f64) -> Summary {
        Summary {
            n: 9,
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
        }
    }

    #[test]
    fn bounds_respect_direction() {
        // Just inside and just outside the bound, in both directions.
        let latency = end_to_end(LATENCY_P50).unwrap(); // lower is better
        let (inside, outside) = (1.0 + latency.bound * 0.9, 1.0 + latency.bound * 1.1);
        let base = around(4.0, 0.02);
        assert_eq!(
            judge(latency, &base, &around(4.0 * inside, 0.02)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(latency, &base, &around(4.0 * outside, 0.02)),
            Verdict::Worse
        );
        assert_eq!(
            judge(latency, &base, &around(4.0 / outside / 1.1, 0.02)),
            Verdict::Better
        );
        let rate = end_to_end(JOBS_PER_S).unwrap(); // higher is better
        let (inside, outside) = (1.0 - rate.bound * 0.9, 1.0 - rate.bound * 1.1);
        let base = around(500.0, 0.02);
        assert_eq!(
            judge(rate, &base, &around(500.0 * outside, 0.02)),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, &base, &around(500.0 * inside, 0.02)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(rate, &base, &around(500.0 / outside, 0.02)),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let latency = end_to_end(LATENCY_P50).unwrap();
        let noisy = around(4.0, latency.bound * 1.2);
        assert_eq!(
            judge(latency, &noisy, &around(4.1, 0.02)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(latency, &around(4.0, 0.02), &noisy),
            Verdict::Unresolved
        );
        // A regression beyond the bound is still a regression.
        assert_eq!(judge(latency, &noisy, &around(8.0, 0.02)), Verdict::Worse);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let setup = end_to_end(SETUP_S).unwrap(); // 25 % and >= 50 ms
                                                  // +100 % but only +20 ms: not a regression.
        assert_eq!(
            judge(setup, &around(0.020, 0.0), &around(0.040, 0.0)),
            Verdict::Unchanged
        );
        // +30 % and +90 ms: a regression.
        assert_eq!(
            judge(setup, &around(0.300, 0.0), &around(0.390, 0.0)),
            Verdict::Worse
        );
        // +20 % and +100 ms: inside the relative bound.
        assert_eq!(
            judge(setup, &around(0.500, 0.0), &around(0.600, 0.0)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn exact_counts_must_repeat() {
        let bytes = end_to_end(CHECK_BYTES).unwrap();
        let at = |v: f64| Summary::single(v);
        assert_eq!(judge(bytes, &at(2336.0), &at(2336.0)), Verdict::Unchanged);
        assert_eq!(judge(bytes, &at(2336.0), &at(2337.0)), Verdict::Worse);
        assert_eq!(judge(bytes, &at(2336.0), &at(1200.0)), Verdict::Better);
    }

    fn report(workload: &str, jobs_per_s: f64, failed: u64) -> WorkloadReport {
        WorkloadReport {
            workload: workload.into(),
            seed: 1,
            traced: false,
            attempted: 1000,
            failed,
            metrics: vec![
                Metric::new(JOBS_PER_S, "1/s", around(jobs_per_s, 0.01)),
                Metric::new(CHECK_BYTES, "bytes", Summary::single(2336.0)),
            ],
        }
    }

    #[test]
    fn compare_flags_regressions_and_failures() {
        let base = vec![report("svc-tiny", 500.0, 0)];
        assert!(!compare(&base, &[report("svc-tiny", 495.0, 0)]).1);
        let (table, regressed) = compare(&base, &[report("svc-tiny", 300.0, 0)]);
        assert!(regressed && table.contains("WORSE"), "{table}");
        assert!(
            compare(&base, &[report("svc-tiny", 500.0, 1)]).1,
            "failed_share rose"
        );
        assert!(compare(&base, &[]).1, "a missing workload is a regression");
    }

    #[test]
    fn reports_round_trip_and_render_the_contract_line() {
        let r = report("svc-large", 8.123456789012, 0);
        let set = set_to_json(std::slice::from_ref(&r)).render();
        assert_eq!(set_from_json(&set).unwrap(), vec![r.clone()]);
        let line = json::parse(&r.contract_line()).unwrap();
        let Json::Obj(top) = &line else { panic!() };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get(JOBS_PER_S)
                .unwrap()
                .get("value"),
            Some(&Json::Float(8.123456789012))
        );
        assert_eq!(sig(1234.5678), "1234.6");
        assert_eq!(sig(0.00123456), "0.0012346");
    }
}
