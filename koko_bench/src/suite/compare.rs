//! `--compare A B`: apply the bounds of `BENCHMARK.json` to every pairing
//! of workload and end-to-end metric in two result files (the JSON lines
//! `--json` appends, any number of runs each).

use super::report::{MetricSpec, Spec};
use super::stats::Samples;
use koko_serve::json::{self, Json};
use std::collections::BTreeMap;

/// End-to-end values per `(workload, metric)`, one per run.
pub type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Read a result file. Traced and tiny runs are skipped: end-to-end
/// figures come from full untraced runs.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let flag = |key: &str| record.get(key).and_then(Json::as_bool).unwrap_or(false);
        if flag("traced") || flag("tiny") {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = record.get("end_to_end") else {
            return Err(format!("line {}: no end_to_end object", n + 1));
        };
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own run-to-run spread exceeds the bound, so the pair says
    /// nothing either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: MetricSpec,
    pub a: f64,
    pub b: f64,
    /// Inter-quartile distance of A's runs over their median; `None` with
    /// fewer than two runs.
    pub a_spread: Option<f64>,
    pub verdict: Verdict,
}

impl Row {
    /// B over A, with A as the base.
    pub fn ratio(&self) -> f64 {
        self.b / self.a
    }
}

/// By what share of A's median B is worse (negative when better).
fn worse_by(metric: &MetricSpec, a: f64, b: f64) -> f64 {
    if metric.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

/// Compare every `(workload, end-to-end metric)` pair both files hold.
pub fn compare(spec: &Spec, a: &Runs, b: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let sa = Samples::new(va.clone());
            let (Some(ma), Some(mb)) = (sa.median(), Samples::new(vb.clone()).median()) else {
                continue;
            };
            let bound = metric.bound.unwrap_or(0.0);
            let a_spread = sa.spread();
            let verdict = if a_spread.is_some_and(|s| s > bound) {
                Verdict::Unresolved
            } else if worse_by(metric, ma, mb) > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: ma,
                b: mb,
                a_spread,
                verdict,
            });
        }
    }
    rows
}

/// Print one line per pair; returns whether any pair is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<30} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "A spread"
    );
    for r in rows {
        println!(
            "{:<14} {:<30} {:>14.4} {:>14.4} {:>9.4} {:>7.2} {:>8}  {}",
            r.workload,
            format!("{} [{}]", r.metric.name, r.metric.unit),
            r.a,
            r.b,
            r.ratio(),
            r.metric.bound.unwrap_or(0.0),
            r.a_spread.map_or("n/a".to_string(), |s| format!("{s:.4}")),
            r.verdict.as_str(),
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} pairs: {} ok, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    count(Verdict::Worse) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, metric: &str, unit: &str, value: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"traced\":false,\"tiny\":false,\"end_to_end\":{{\"{metric}\":{{\"value\":{value},\"unit\":\"{unit}\"}}}}}}"
        )
    }

    fn runs(workload: &str, metric: &str, values: &[f64]) -> Runs {
        let text: Vec<String> = values
            .iter()
            .map(|v| record(workload, metric, "x", *v))
            .collect();
        parse_runs(&text.join("\n")).unwrap()
    }

    fn verdict(metric: &str, a: &[f64], b: &[f64]) -> Verdict {
        let spec = Spec::builtin();
        let rows = compare(
            &spec,
            &runs("scan_cold", metric, a),
            &runs("scan_cold", metric, b),
        );
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn lower_is_better_metric_worsens_upwards() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict("p50_ms", &base, &[10.2, 10.3]), Verdict::Ok);
        assert_eq!(verdict("p50_ms", &base, &[7.0]), Verdict::Ok);
        assert_eq!(verdict("p50_ms", &base, &[14.0, 14.1]), Verdict::Worse);
    }

    #[test]
    fn higher_is_better_metric_worsens_downwards() {
        let base = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(verdict("ops_per_s", &base, &[140.0]), Verdict::Ok);
        assert_eq!(verdict("ops_per_s", &base, &[60.0]), Verdict::Worse);
    }

    #[test]
    fn noisy_base_is_unresolved_not_unchanged() {
        let noisy = [10.0, 16.0, 7.0, 13.0, 5.0, 19.0];
        assert_eq!(verdict("p50_ms", &noisy, &[10.0]), Verdict::Unresolved);
        assert_eq!(verdict("p50_ms", &noisy, &[30.0]), Verdict::Unresolved);
        // One run has no spread to judge by.
        assert_eq!(verdict("p50_ms", &[10.0], &[10.1]), Verdict::Ok);
    }

    #[test]
    fn traced_and_tiny_records_are_skipped() {
        let text = format!(
            "{}\n{}\n\n{}",
            record("scan_cold", "p50_ms", "ms", 1.0),
            record("scan_cold", "p50_ms", "ms", 2.0).replace("\"traced\":false", "\"traced\":true"),
            record("scan_cold", "p50_ms", "ms", 3.0).replace("\"tiny\":false", "\"tiny\":true"),
        );
        let runs = parse_runs(&text).unwrap();
        assert_eq!(
            runs[&("scan_cold".to_string(), "p50_ms".to_string())],
            [1.0]
        );
        assert!(parse_runs("not json").is_err());
    }
}
