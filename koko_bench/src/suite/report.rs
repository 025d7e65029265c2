//! The metric names, units, directions and bounds (read from the
//! repository's `BENCHMARK.json`, compiled in), and what one run reports.

use super::oracle::Tally;
use koko_serve::json::{self, write_escaped, write_f64, Json};

/// `BENCHMARK.json` as it stood when the benchmark was built.
const SPEC_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen; only
    /// end-to-end metrics carry one.
    pub bound: Option<f64>,
}

/// The declared benchmark: workloads and both metric lists.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| match root.get(key) {
            Some(Json::Arr(items)) => Ok(items.as_slice()),
            _ => Err(format!("BENCHMARK.json: missing array {key:?}")),
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The compiled-in declaration.
    pub fn builtin() -> Spec {
        Spec::parse(SPEC_JSON).expect("the compiled-in BENCHMARK.json parses")
    }
}

/// Values of one metric list, in declaration order.
#[derive(Debug, Clone)]
pub struct Metrics {
    specs: Vec<MetricSpec>,
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(specs: &[MetricSpec]) -> Metrics {
        Metrics {
            specs: specs.to_vec(),
            values: vec![None; specs.len()],
        }
    }

    /// Record a declared metric. Naming an undeclared one is a bug in the
    /// benchmark, not in the program under test.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .specs
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in BENCHMARK.json"));
        self.values[i] = Some(value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.specs.iter().position(|s| s.name == name)?;
        self.values[i]
    }

    /// Declared metrics nothing recorded, or recorded as a non-number.
    pub fn missing(&self) -> Vec<&str> {
        self.specs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(f64::is_finite))
            .map(|(s, _)| s.name.as_str())
            .collect()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&MetricSpec, f64)> {
        self.specs
            .iter()
            .zip(&self.values)
            .filter_map(|(s, v)| v.map(|v| (s, v)))
    }

    /// `{"name":{"value":v,"unit":"u"},...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (spec, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, &spec.name);
            out.push_str(":{\"value\":");
            write_f64(&mut out, value);
            out.push_str(",\"unit\":");
            write_escaped(&mut out, &spec.unit);
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tiny: bool,
    pub tally: Tally,
    pub inputs_fnv: u64,
    pub end_to_end: Metrics,
    /// Filled by a traced run only.
    pub per_layer: Option<Metrics>,
    /// Undeclared detail for the reader: sample counts, per-class stage
    /// times, per-rate open-loop figures. `(name, value, unit)`.
    pub detail: Vec<(String, f64, &'static str)>,
    pub trace_file: Option<std::path::PathBuf>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    fn contract_metrics(&self) -> &Metrics {
        self.per_layer.as_ref().unwrap_or(&self.end_to_end)
    }

    /// The one-line result the benchmark contract asks for: the end-to-end
    /// metrics of an untraced run, the per-layer metrics of a traced one.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            self.contract_metrics().to_json(),
        )
    }

    /// The full record `--json` appends and `--compare` reads.
    pub fn record_line(&self) -> String {
        let mut out = String::from("{\"workload\":");
        write_escaped(&mut out, &self.workload);
        out.push_str(&format!(
            ",\"seed\":{},\"seconds\":{},\"traced\":{},\"tiny\":{},\"cores\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"inputs_fnv\":\"{:016x}\",\"end_to_end\":{}",
            self.seed,
            self.seconds,
            self.traced,
            self.tiny,
            cores(),
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            self.inputs_fnv,
            self.end_to_end.to_json(),
        ));
        if let Some(per_layer) = &self.per_layer {
            out.push_str(",\"per_layer\":");
            out.push_str(&per_layer.to_json());
        }
        out.push_str(",\"detail\":{");
        for (i, (name, value, unit)) in self.detail.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
            out.push_str(":{\"value\":");
            write_f64(&mut out, if value.is_finite() { *value } else { 0.0 });
            out.push_str(&format!(",\"unit\":\"{unit}\"}}"));
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, for a person.
    pub fn print(&self) {
        println!(
            "\n## {}  seed={} seconds={} cores={} traced={}{}",
            self.workload,
            self.seed,
            self.seconds,
            cores(),
            self.traced,
            if self.tiny { " tiny" } else { "" },
        );
        println!(
            "operations attempted={} failed={} inputs_fnv={:016x}",
            self.tally.attempted, self.tally.failed, self.inputs_fnv
        );
        println!("-- end to end");
        for (spec, value) in self.end_to_end.iter() {
            println!("{:<34} {:>16.6} {}", spec.name, value, spec.unit);
        }
        if let Some(per_layer) = &self.per_layer {
            println!("-- per layer");
            for (spec, value) in per_layer.iter() {
                println!("{:<34} {:>16.6} {}", spec.name, value, spec.unit);
            }
        }
        if !self.detail.is_empty() {
            println!("-- detail");
            for (name, value, unit) in &self.detail {
                println!("{name:<46} {value:>16.6} {unit}");
            }
        }
        if let Some(path) = &self.trace_file {
            println!("spans written to {}", path.display());
        }
    }
}

/// Cores the results depend on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Start `VmHWM` again from the current resident set size, so that what the
/// benchmark itself held before (reference engines) is not in the peak.
/// Where the kernel does not allow it the peak simply keeps its history.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_spec_names_the_five_workloads_and_setup_s() {
        let spec = Spec::builtin();
        assert_eq!(
            spec.workloads,
            [
                "build_scale",
                "scan_cold",
                "hit_warm_open",
                "topk_live",
                "cluster_scan"
            ]
        );
        assert_eq!(spec.end_to_end.len(), 15);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used once");
    }

    #[test]
    fn metrics_report_what_is_missing() {
        let spec = Spec::builtin();
        let mut m = Metrics::new(&spec.end_to_end);
        assert_eq!(m.missing().len(), 15);
        m.set("setup_s", 1.25);
        m.set("p50_ms", f64::NAN);
        assert_eq!(m.missing().len(), 14);
        assert!(m.missing().contains(&"p50_ms"));
        assert_eq!(m.get("setup_s"), Some(1.25));
        assert!(m
            .to_json()
            .starts_with("{\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
    }
}
