//! `compare` (two groups of result files, one row per workload and
//! end-to-end metric) and `selfcheck` (two full sets of one build must agree
//! within the bounds).

use crate::json::Value;
use crate::metrics::{self, Better, END_TO_END, WORKLOADS};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread exceeds the bound, and the two groups overlap.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub med_a: f64,
    pub med_b: f64,
    pub quartiles_a: Option<[f64; 3]>,
    pub quartiles_b: Option<[f64; 3]>,
    /// Pairs `(a[i], b[i])` in which B reads better, and pairs compared.
    pub wins: usize,
    pub pairs: usize,
    /// How much worse B's median is than A's, as a share of A's (negative:
    /// better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Judges group B against group A. A gain needs B to win at least nine
/// tenths of the pairs and the medians to differ by more than A's own
/// interquartile distance; a regression is a median worse by more than the
/// bound; where either group's spread exceeds the bound the row is
/// unresolved unless every B reads better (or worse) than every A.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let is_better = |x: f64, than: f64| match better {
        Better::Lower => x < than,
        Better::Higher => x > than,
    };
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| is_better(**y, **x)).count();
    let losses = a.iter().zip(b).filter(|(x, y)| is_better(**x, **y)).count();
    let all = |f: &dyn Fn(f64, f64) -> bool| a.iter().all(|x| b.iter().all(|y| f(*y, *x)));
    let spread = stats::spread(a)
        .unwrap_or(0.0)
        .max(stats::spread(b).unwrap_or(0.0));
    let iqr_a = stats::quartiles(a).map_or(0.0, |q| q[2] - q[0]);
    let decided = wins + losses;
    let verdict = if pairs == 0 || !worse_by.is_finite() {
        Verdict::Unresolved
    } else if spread > bound {
        if all(&|y, x| is_better(y, x)) {
            Verdict::Improved
        } else if all(&|y, x| is_better(x, y)) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if decided > 0
        && wins * 10 >= decided * 9
        && (med_b - med_a).abs() > iqr_a
        && worse_by < 0.0
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row {
        med_a,
        med_b,
        quartiles_a: stats::quartiles(a),
        quartiles_b: stats::quartiles(b),
        wins,
        pairs,
        worse_by,
        verdict,
    }
}

/// The value of `metric` on `workload`'s untraced run in one result file.
pub fn value_in(result: &Value, workload: &str, metric: &str) -> Option<f64> {
    result.get("runs")?.as_arr()?.iter().find_map(|run| {
        let same = run.get("workload")?.as_str()? == workload && !run.get("traced")?.as_bool()?;
        same.then(|| run.path(&["metrics", metric, "value"])?.as_f64())
            .flatten()
    })
}

fn quartile_text(q: Option<[f64; 3]>) -> String {
    q.map_or("-".to_string(), |q| format!("{:.4e}..{:.4e}", q[0], q[2]))
}

/// The comparison table of two groups of parsed result files, and whether
/// any row regressed.
pub fn compare(a: &[Value], b: &[Value]) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<15} {:>12} {:>12} {:>24} {:>24} {:>7} {:>16}  verdict (bound)\n",
        "workload", "metric", "median A", "median B", "quartiles A", "quartiles B", "B wins", "B/A"
    );
    let mut regressed = false;
    for w in WORKLOADS {
        for m in END_TO_END {
            let Some(bound) = metrics::bound(w.name, m.name) else {
                continue;
            };
            let get = |files: &[Value]| -> Vec<f64> {
                files
                    .iter()
                    .filter_map(|f| value_in(f, w.name, m.name))
                    .collect()
            };
            let (va, vb) = (get(a), get(b));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let row = judge(&va, &vb, m.better, bound);
            regressed |= row.verdict == Verdict::Regressed;
            out.push_str(&format!(
                "{:<14} {:<15} {:>12.5e} {:>12.5e} {:>24} {:>24} {:>4}/{:<2} {:>7.4}x of {:<.4e}  {} ({})\n",
                w.name,
                m.name,
                row.med_a,
                row.med_b,
                quartile_text(row.quartiles_a),
                quartile_text(row.quartiles_b),
                row.wins,
                row.pairs,
                row.med_b / row.med_a,
                row.med_a,
                row.verdict.as_str(),
                bound,
            ));
        }
    }
    (out, regressed)
}

/// The run-to-run noise of sets measured on one build: per judged workload
/// and end-to-end metric the median, the interquartile spread, the largest
/// deviation of a set from the median and the bound that deviation gives
/// (`metrics::derive_bound`), and per metric the largest of those bounds.
/// This is how `metrics::BOUNDS` was fixed.
pub fn noise(sets: &[Value]) -> (String, Value) {
    let mut text = format!(
        "{:<14} {:<15} {:>14} {:>8} {:>10} {:>6}\n",
        "workload", "metric", "median", "spread", "max dev", "bound"
    );
    let mut per_metric = Vec::new();
    for m in END_TO_END {
        let mut largest = 0.0f64;
        let mut rows = Vec::new();
        for w in WORKLOADS.iter().filter(|w| metrics::judged(w, m)) {
            let v: Vec<f64> = sets
                .iter()
                .filter_map(|s| value_in(s, w.name, m.name))
                .collect();
            let med = stats::median(&v);
            let spread = stats::spread(&v).unwrap_or(0.0);
            let dev = v
                .iter()
                .map(|x| (x - med).abs() / med.abs())
                .fold(0.0, f64::max);
            let bound = metrics::derive_bound(m.initial, dev);
            largest = largest.max(bound);
            text.push_str(&format!(
                "{:<14} {:<15} {med:>14.6e} {spread:>8.4} {dev:>10.4} {bound:>6.2}\n",
                w.name, m.name
            ));
            rows.push((
                w.name.to_string(),
                Value::obj(vec![
                    ("median", Value::Num(med)),
                    ("spread", Value::Num(spread)),
                    ("max_deviation", Value::Num(dev)),
                    ("bound", Value::Num(bound)),
                ]),
            ));
        }
        text.push_str(&format!(
            "{:<14} {:<15} initial bound {}, largest bound {largest}\n",
            "=> all", m.name, m.initial
        ));
        per_metric.push((
            m.name.to_string(),
            Value::obj(vec![
                ("initial_bound", Value::Num(m.initial)),
                ("largest_bound", Value::Num(largest)),
                ("workloads", Value::Obj(rows)),
            ]),
        ));
    }
    let summary = Value::obj(vec![
        ("sets", Value::Num(sets.len() as f64)),
        ("metrics", Value::Obj(per_metric)),
    ]);
    // The same bounds as the rows of `metrics::BOUNDS`, to paste there.
    text.push_str("metrics::BOUNDS:\n");
    for w in WORKLOADS {
        let cells: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let path = ["metrics", m.name, "workloads", w.name, "bound"];
                match summary.path(&path).and_then(Value::as_f64) {
                    Some(b) => format!("Some({b:.2})"),
                    None => "NO".to_string(),
                }
            })
            .collect();
        text.push_str(&format!("    [{}], // {}\n", cells.join(", "), w.name));
    }
    (text, summary)
}

/// Where two groups of sets of the same build disagree by more than a
/// metric's bound, in either direction; a group's value is the median over
/// its sets.
pub fn disagreements(first: &[Value], second: &[Value]) -> Vec<String> {
    let median_in = |sets: &[Value], w: &str, m: &str| {
        let v: Vec<f64> = sets.iter().filter_map(|s| value_in(s, w, m)).collect();
        (v.len() == sets.len() && !v.is_empty()).then(|| stats::median(&v))
    };
    let mut out = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let Some(bound) = metrics::bound(w.name, m.name) else {
                continue;
            };
            match (
                median_in(first, w.name, m.name),
                median_in(second, w.name, m.name),
            ) {
                (Some(x), Some(y)) => {
                    let differ = (y - x).abs() / x.abs();
                    if differ.is_nan() || differ > bound {
                        out.push(format!(
                            "{} {}: {y:.6e} against {x:.6e} differs by {differ:.4}, bound {bound}",
                            w.name, m.name
                        ));
                    }
                }
                _ => out.push(format!("{} {}: missing from a set", w.name, m.name)),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05];

    fn scaled(k: f64) -> Vec<f64> {
        A.iter().map(|x| x * k).collect()
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let lower = |b: &[f64]| judge(&A, b, Better::Lower, 0.10).verdict;
        assert_eq!(lower(&scaled(1.0)), Verdict::Unchanged);
        assert_eq!(
            lower(&scaled(1.05)),
            Verdict::Unchanged,
            "worse, but inside the bound"
        );
        assert_eq!(lower(&scaled(1.2)), Verdict::Regressed);
        assert_eq!(lower(&scaled(0.8)), Verdict::Improved);
        assert_eq!(
            judge(&A, &scaled(0.8), Better::Higher, 0.10).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&A, &scaled(1.3), Better::Higher, 0.10).verdict,
            Verdict::Improved
        );
        // A gain smaller than A's own interquartile distance is no gain.
        assert_eq!(lower(&scaled(0.995)), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_groups_separate() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        let far_better: Vec<f64> = noisy.iter().map(|x| x / 10.0).collect();
        assert_eq!(
            judge(&noisy, &far_better, Better::Lower, 0.10).verdict,
            Verdict::Improved
        );
        let far_worse: Vec<f64> = noisy.iter().map(|x| x * 10.0).collect();
        assert_eq!(
            judge(&noisy, &far_worse, Better::Lower, 0.10).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn pair_wins_count_b_better_and_ties_count_for_neither() {
        let row = judge(&[1.0, 2.0, 3.0], &[0.5, 2.0, 4.0], Better::Lower, 0.5);
        assert_eq!((row.wins, row.pairs), (1, 3));
        assert_eq!(
            judge(&[], &[], Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
    }

    fn result(iter_wall: f64) -> Value {
        let metric = |v: f64| Value::obj(vec![("value", Value::Num(v)), ("unit", Value::str("s"))]);
        let runs = WORKLOADS
            .iter()
            .map(|w| {
                Value::obj(vec![
                    ("workload", Value::str(w.name)),
                    ("traced", Value::Bool(false)),
                    (
                        "metrics",
                        Value::Obj(
                            END_TO_END
                                .iter()
                                .map(|m| (m.name.to_string(), metric(iter_wall)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::obj(vec![("runs", Value::Arr(runs))])
    }

    /// Rows that are judged: every metric on the serve workloads, all but
    /// the two query metrics elsewhere.
    fn judged_rows() -> usize {
        let rows = WORKLOADS
            .iter()
            .flat_map(|w| END_TO_END.iter().map(move |m| metrics::judged(w, m)))
            .filter(|j| *j)
            .count();
        assert_eq!(rows, 2 * 7 + 4 * 5);
        rows
    }

    #[test]
    fn selfcheck_flags_a_metric_beyond_its_bound_in_either_direction() {
        assert!(disagreements(&[result(1.0)], &[result(1.04)]).is_empty());
        let rows = judged_rows();
        assert_eq!(disagreements(&[result(1.0)], &[result(0.7)]).len(), rows);
        assert_eq!(disagreements(&[result(1.0)], &[result(1.3)]).len(), rows);
        // A group's value is its median: one wild set of three is outvoted.
        let group = [result(1.0), result(5.0), result(1.02)];
        assert!(disagreements(&[result(1.0)], &group).is_empty());
        assert_eq!(
            disagreements(
                &[result(1.0)],
                &[Value::obj(vec![("runs", Value::Arr(vec![]))])]
            )
            .len(),
            rows
        );
    }

    #[test]
    fn noise_derives_each_bound_from_twice_the_worst_deviation() {
        let (text, summary) = noise(&[result(1.0), result(1.1), result(0.9)]);
        assert_eq!(
            text.lines().count(),
            1 + judged_rows() + END_TO_END.len() + 1 + WORKLOADS.len()
        );
        assert!(text.contains(
            "[Some(0.25), Some(0.20), Some(0.20), Some(0.20), NO, NO, Some(0.20)], // sim_models"
        ));
        let bound = |path: &[&str]| summary.path(path).and_then(Value::as_f64).unwrap();
        let rss = ["metrics", "peak_rss_mb", "workloads", "sim_models", "bound"];
        assert!((bound(&rss) - 0.2).abs() < 1e-9);
        assert_eq!(bound(&["metrics", "setup_s", "largest_bound"]), 0.25);
        assert!(summary
            .path(&["metrics", "query_p50_us", "workloads", "sim_models"])
            .is_none());
        assert_eq!(metrics::derive_bound(0.10, 0.02), 0.10);
        assert_eq!(metrics::derive_bound(0.10, 0.0612), 0.13);
        assert_eq!(metrics::derive_bound(0.10, 0.06), 0.12);
        assert_eq!(metrics::derive_bound(0.10, 0.4), metrics::BOUND_CAP);
    }

    /// `baseline/set-*.json` are the sets `metrics::BOUNDS` was fixed from.
    #[test]
    fn the_bounds_table_is_what_the_committed_baseline_gives() {
        let dir = crate::host::benchmark_dir().join("baseline");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("benchmark/baseline")
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| {
                let name = p.file_name().unwrap_or_default().to_string_lossy();
                name.starts_with("set-") && name.ends_with(".json")
            })
            .collect();
        paths.sort();
        assert!(paths.len() >= 5, "at least five baseline sets");
        let sets: Vec<Value> = paths
            .iter()
            .map(|p| crate::json::parse(&std::fs::read_to_string(p).unwrap()).unwrap())
            .collect();
        let (_, summary) = noise(&sets);
        for (w, row) in WORKLOADS.iter().zip(metrics::BOUNDS) {
            for (m, bound) in END_TO_END.iter().zip(row) {
                let derived = summary
                    .path(&["metrics", m.name, "workloads", w.name, "bound"])
                    .and_then(Value::as_f64);
                assert_eq!(bound, derived, "{} {}", w.name, m.name);
            }
        }
        let committed = std::fs::read_to_string(dir.join("noise.json")).expect("noise.json");
        assert_eq!(committed, summary.render() + "\n", "rerun `noise --out`");
    }

    #[test]
    fn compare_prints_a_row_per_workload_and_metric_with_bases() {
        let (table, regressed) = compare(&[result(1.0), result(1.0)], &[result(2.0), result(2.0)]);
        assert!(regressed);
        assert_eq!(table.lines().count(), 1 + judged_rows());
        assert!(table.contains("2.0000x of 1.0000e0"));
    }
}
