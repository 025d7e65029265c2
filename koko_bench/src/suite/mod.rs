//! `koko_bench`: five named workloads driven from outside the system, the
//! end-to-end and per-layer metrics `BENCHMARK.json` declares, a traced
//! run, and a ratio-with-tolerance comparison of two result files.
//!
//! `BENCH_table2_scaleup.json` at the repository root is the record of a
//! paper-table reproduction (`table2_scaleup`); it is not a baseline for
//! performance claims. Those are made from this benchmark's output.

pub mod compare;
pub mod corpus;
pub mod load;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workloads;

use corpus::{inputs_fnv, Class};
use load::Sample;
use oracle::Tally;
use report::{Metrics, RunReport, Spec};
use setup::{cycle, Cycle, Inputs};
use stats::Samples;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Scale, System, Window, Workload};

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Also run the traced replay and the probes, and report per-layer
    /// metrics.
    pub trace: bool,
    pub scale: Scale,
    /// Where snapshots and span files go.
    pub out_dir: PathBuf,
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    Samples::new(items.iter().map(f).collect()).median_or_zero()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The fifteen end-to-end metrics of one run, and the sample counts behind
/// them. `hi` and `lo` are the build cycles at the larger and the smaller
/// corpus size.
fn end_to_end_metrics(
    spec: &Spec,
    round: &[corpus::Op],
    window: &Window,
    setup_s: f64,
    (hi, lo): (&[Cycle], &[Cycle]),
    top: &Inputs,
    rss_mb: f64,
) -> (Metrics, Vec<(String, f64, &'static str)>) {
    let mut end_to_end = Metrics::new(&spec.end_to_end);
    let mut detail = Vec::new();
    let latency = Samples::new(window.samples.iter().map(|s| s.latency_ms).collect());
    end_to_end.set("setup_s", setup_s);
    end_to_end.set("ops_per_s", window.ops_per_s);
    end_to_end.set("p50_ms", latency.median_or_zero());
    end_to_end.set("p95_ms", latency.percentile(95.0).unwrap_or(0.0));
    for class in Class::ALL {
        let of_class = |s: &&Sample| round[s.op].class == class;
        let per_class = Samples::new(
            window
                .class_samples
                .as_ref()
                .unwrap_or(&window.samples)
                .iter()
                .filter(of_class)
                .map(|s| s.latency_ms)
                .collect(),
        );
        end_to_end.set(
            &format!("{}_p50_ms", class.name()),
            per_class.median_or_zero(),
        );
        detail.push((
            format!("{}.samples", class.name()),
            per_class.len() as f64,
            "count",
        ));
    }
    let add_ms = if window.add_ms.is_empty() {
        hi.iter().flat_map(|c| c.add_ms.iter().copied()).collect()
    } else {
        window.add_ms.clone()
    };
    end_to_end.set("add_p50_ms", Samples::new(add_ms).median_or_zero());
    end_to_end.set(
        "ingest_docs_per_s",
        median_of(hi, |c| ratio(c.n as f64, c.ingest_s)),
    );
    end_to_end.set(
        "snapshot_bytes_per_text_byte",
        median_of(hi, |c| ratio(c.file_bytes as f64, top.text_bytes as f64)),
    );
    end_to_end.set("first_query_ms", median_of(hi, |c| c.first_query_ms));
    end_to_end.set(
        "ingest_scaleup_ratio",
        ratio(
            median_of(hi, Cycle::ingest_ms_per_doc),
            median_of(lo, Cycle::ingest_ms_per_doc),
        ),
    );
    end_to_end.set(
        "query_scaleup_ratio",
        ratio(
            median_of(hi, Cycle::query_ms_per_doc),
            median_of(lo, Cycle::query_ms_per_doc),
        ),
    );
    end_to_end.set("peak_rss_mb", rss_mb);
    detail.push(("window.samples".to_string(), latency.len() as f64, "count"));
    if let Some((p, v)) = latency.highest_percentile() {
        detail.push((format!("window.highest_supported_p{p}"), v, "ms"));
    }
    detail.push(("corpus.documents".to_string(), top.n as f64, "count"));
    detail.push((
        "corpus.text_bytes".to_string(),
        top.text_bytes as f64,
        "bytes",
    ));
    (end_to_end, detail)
}

/// Set up, measure and check one workload; a traced run then replays it
/// in-process. Errors are the benchmark's own (an unwritable directory, a
/// metric nothing produced), never a slow or wrong system under test —
/// that is reported in the tally.
pub fn run(cfg: &Config) -> Result<RunReport, String> {
    let spec = Spec::builtin();
    let workload = cfg.workload;
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let stem = format!("{}-{}-{}", workload.name(), cfg.seed, std::process::id());
    let path = cfg.out_dir.join(format!("{stem}.koko"));

    // Inputs, all from the seed: corpora (smallest first), the round's
    // request lines, and the documents `topk_live` adds.
    let round = workload.round();
    let sizes = match workload {
        Workload::BuildScale => cfg.scale.build_sizes.to_vec(),
        _ => vec![cfg.scale.n / 4, cfg.scale.n],
    };
    let inputs: Vec<Inputs> = sizes
        .iter()
        .map(|&n| Inputs::generate(n, cfg.seed, &workload.all_ops()))
        .collect();
    let top = inputs.last().expect("at least one corpus size");
    let waves = match workload {
        Workload::TopkLive => workloads::live_waves(cfg.seconds, cfg.seed),
        _ => Vec::new(),
    };
    let lines: Vec<String> = workload.all_ops().iter().map(|op| op.line(1)).collect();
    let fnv = inputs_fnv(
        inputs
            .iter()
            .flat_map(Inputs::generated)
            .chain(waves.iter().flatten().map(String::as_str))
            .chain(lines.iter().map(String::as_str)),
    );

    report::reset_peak_rss();

    // Set-up, repeated for a median: the build cycle at a quarter size and
    // at full size, then the servers. The last repetition stays up.
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut lo: Vec<Cycle> = Vec::new();
    let mut hi: Vec<Cycle> = Vec::new();
    let mut system: Option<System> = None;
    // One untimed cycle first: the first parallel ingest of a process pays
    // for page faults and lazily built tables that no later one does.
    tally.merge(cycle(&inputs[0], cfg.seed, &path).tally);
    for rep in 0..cfg.scale.setup_reps {
        if workload == Workload::BuildScale {
            let c = cycle(&inputs[0], cfg.seed, &path);
            setup_s.push(c.build_s());
            hi.push(c);
            continue;
        }
        lo.push(cycle(&inputs[0], cfg.seed, &path));
        let built = cycle(top, cfg.seed, &path);
        let t = Instant::now();
        let up = workloads::stand_up(workload, top, &path);
        setup_s.push(built.build_s() + t.elapsed().as_secs_f64());
        hi.push(built);
        if rep + 1 < cfg.scale.setup_reps {
            up.shut_down();
        } else {
            system = Some(up);
        }
    }
    for c in lo.iter().chain(&hi) {
        tally.merge(c.tally);
    }
    let setup_rss_mb = report::peak_rss_mb();

    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    let mut one_conn_ms = None;
    if let (true, Some(system)) = (cfg.trace, &system) {
        one_conn_ms = Some(probes::served_probe(
            system,
            workload,
            workload.replay_rounds(&cfg.scale),
            &top.oracle,
            &mut layer,
            &mut tally,
        ));
    }

    let window: Window = match (workload, &system) {
        (Workload::BuildScale, _) => {
            workloads::build_scale(&inputs, &cfg.scale, cfg.seed, &path, cfg.seconds)
        }
        (Workload::ScanCold, Some(s)) => workloads::scan_cold(s, &top.oracle, cfg.seconds),
        (Workload::HitWarmOpen, Some(s)) => workloads::hit_warm_open(s, &top.oracle, cfg.seconds),
        (Workload::TopkLive, Some(s)) => workloads::topk_live(s, top, &waves, cfg.seconds),
        (Workload::ClusterScan, Some(s)) => workloads::cluster_scan(s, &top.oracle, cfg.seconds),
        (_, None) => return Err("set-up never ran (setup_reps is 0)".into()),
    };
    tally.merge(window.tally);
    // Memory is that of the build side: set-up for a served workload (how
    // many snapshot generations a window holds at once varies in steps of
    // tens of MB), the window itself for `build_scale`.
    let rss_mb = match workload {
        Workload::BuildScale => report::peak_rss_mb(),
        _ => setup_rss_mb,
    };

    // `build_scale` reports the build side of its window (top size over
    // middle size); the others that of their set-up.
    let (hi, lo): (&[Cycle], &[Cycle]) = match window.cycles.as_slice() {
        [.., middle_size, top_size] => (top_size, middle_size),
        _ => (&hi, &lo),
    };
    let (end_to_end, mut detail) = end_to_end_metrics(
        &spec,
        &round,
        &window,
        Samples::new(setup_s).median_or_zero(),
        (hi, lo),
        top,
        rss_mb,
    );

    // The traced run: build-side probes, the in-process replay, and the
    // probes one workload has. Layers a workload bypasses stay at 0.
    let mut per_layer = None;
    let mut trace_file = None;
    if cfg.trace {
        let engine = |opts: koko_core::EngineOpts| {
            koko_core::Koko::open_with_opts(&path, opts)
                .map_err(|e| format!("cannot reopen {}: {e:?}", path.display()))
        };
        probes::build_side(top, &engine(Default::default())?, hi, &mut layer);
        let traced = probes::traced_run(
            workload,
            workload.replay_rounds(&cfg.scale),
            engine(workload.engine_opts())?,
            &top.oracle,
            &waves,
            system.as_ref(),
        );
        tally.merge(traced.tally);
        layer.extend(traced.layer);
        if let Some(one_conn_ms) = one_conn_ms {
            layer.push(("serve.wire_overhead_ms", one_conn_ms - traced.op_ms));
        }
        // What the untraced window measured itself wins over a probe.
        layer.extend(window.layer.iter().copied());
        let mut metrics = Metrics::new(&spec.per_layer);
        for spec in &spec.per_layer {
            metrics.set(&spec.name, 0.0);
        }
        for (name, value) in layer {
            metrics.set(name, value);
        }
        per_layer = Some(metrics);
        detail.extend(traced.detail);
        let file = cfg
            .out_dir
            .join(format!("trace-{}-{}.jsonl", workload.name(), cfg.seed));
        traced
            .tracer
            .write_jsonl(&file)
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        trace_file = Some(file);
    } else {
        for (name, value) in &window.layer {
            detail.push((name.to_string(), *value, ""));
        }
    }
    detail.extend(window.detail);
    if let Some(system) = system {
        system.shut_down();
    }
    let _ = std::fs::remove_file(&path);

    let missing: Vec<&str> = end_to_end
        .missing()
        .into_iter()
        .chain(per_layer.iter().flat_map(Metrics::missing))
        .collect();
    if !missing.is_empty() {
        return Err(format!("metrics without a value: {}", missing.join(", ")));
    }
    Ok(RunReport {
        workload: workload.name().to_string(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        traced: cfg.trace,
        tiny: cfg.scale.tiny,
        tally,
        inputs_fnv: fnv,
        end_to_end,
        per_layer,
        detail,
        trace_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use koko_serve::json::{self, Json};

    fn tiny(workload: Workload, seed: u64, dir: &str) -> RunReport {
        run(&Config {
            workload,
            seed,
            seconds: 1.0,
            trace: true,
            scale: Scale::TINY,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(dir),
        })
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
    }

    /// Every workload runs to the end at the smoke scale with no failed
    /// operation, reports every declared metric as a finite number under
    /// its declared unit, and writes a span file whose parents all exist.
    #[test]
    fn every_workload_reports_every_declared_metric() {
        let spec = Spec::builtin();
        for workload in Workload::ALL {
            let report = tiny(workload, 11, "smoke");
            assert_eq!(report.tally.failed, 0, "{}", report.workload);
            assert!(report.tally.attempted > 0);
            assert!(report.correct());
            let per_layer = report.per_layer.as_ref().expect("a traced run");
            for (declared, got) in [
                (&spec.end_to_end, &report.end_to_end),
                (&spec.per_layer, per_layer),
            ] {
                assert!(got.missing().is_empty(), "{:?}", got.missing());
                let reported: Vec<_> = got.iter().map(|(s, _)| (&s.name, &s.unit)).collect();
                let wanted: Vec<_> = declared.iter().map(|s| (&s.name, &s.unit)).collect();
                assert_eq!(reported, wanted, "{}", report.workload);
            }
            for (spec, value) in report.end_to_end.iter() {
                assert!(value > 0.0, "{} {} = {value}", report.workload, spec.name);
            }
            // The contract line carries the per-layer metrics of a traced run.
            let line = json::parse(&report.contract_line()).expect("contract line is JSON");
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics object");
            };
            assert_eq!(metrics.len(), spec.per_layer.len());
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));

            let spans = std::fs::read_to_string(report.trace_file.as_ref().unwrap()).unwrap();
            let parsed: Vec<Json> = spans.lines().map(|l| json::parse(l).unwrap()).collect();
            assert!(!parsed.is_empty());
            let ids: Vec<f64> = parsed
                .iter()
                .map(|s| s.get("id").and_then(Json::as_f64).unwrap())
                .collect();
            for span in &parsed {
                match span.get("parent") {
                    Some(Json::Null) => {}
                    Some(Json::Num(p)) => assert!(ids.contains(p), "orphan span {span:?}"),
                    other => panic!("bad parent {other:?}"),
                }
                let start = span.get("start_ns").and_then(Json::as_f64).unwrap();
                assert!(span.get("end_ns").and_then(Json::as_f64).unwrap() >= start);
            }
        }
    }

    /// The same seed gives the same inputs and the same counts; another
    /// seed gives other inputs.
    #[test]
    fn same_seed_repeats_inputs_and_counts_exactly() {
        let first = tiny(Workload::TopkLive, 7, "seed-a");
        let again = tiny(Workload::TopkLive, 7, "seed-b");
        let other = tiny(Workload::TopkLive, 8, "seed-c");
        assert_eq!(first.inputs_fnv, again.inputs_fnv);
        assert_ne!(first.inputs_fnv, other.inputs_fnv);
        let layer = |r: &RunReport, name: &str| r.per_layer.as_ref().unwrap().get(name).unwrap();
        for name in [
            "core.candidate_sentences",
            "core.raw_tuples",
            "core.rows",
            "core.docs_skipped",
            "core.bound_skipped_docs",
            "core.block_bound_skipped_docs",
            "core.gallop_probes",
            "storage.file_bytes",
        ] {
            assert_eq!(layer(&first, name), layer(&again, name), "{name}");
        }
        assert!(
            layer(&first, "core.docs_skipped") > 0.0,
            "top-k pruning engaged"
        );
        assert!(first
            .record_line()
            .contains(&format!("\"inputs_fnv\":\"{:016x}\"", first.inputs_fnv)));
    }
}
