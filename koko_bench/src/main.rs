//! `koko_bench [--workload <name>|all] [--seed N] [--seconds S] [--trace [0|1]]
//!             [--tiny] [--json PATH] | --compare A.json B.json`
//!
//! Flags take their value after a space or an `=`. A run prints every
//! metric by name with its unit and ends with one JSON line per workload
//! in the shape the benchmark contract asks for. See `README.md` beside
//! this package.

mod suite;

use std::io::Write;
use std::path::PathBuf;
use suite::compare;
use suite::report::Spec;
use suite::workloads::{Scale, Workload};
use suite::Config;

const USAGE: &str = "usage: koko_bench [--workload <name>|all] [--seed N] [--seconds S] [--trace [0|1]] [--tiny] [--json PATH]\n       koko_bench --compare A.json B.json\nworkloads: build_scale scan_cold hit_warm_open topk_live cluster_scan";

const DEFAULT_SEED: u64 = 4242;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    tiny: bool,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        tiny: false,
        json: None,
        compare: None,
    };
    let mut i = 0;
    while i < raw.len() {
        let (flag, inline) = match raw[i].split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (raw[i].as_str(), None),
        };
        i += 1;
        // The value of a flag: after `=`, or the next argument.
        let mut value = |what: &str| -> Result<String, String> {
            if let Some(v) = inline.clone() {
                return Ok(v);
            }
            let v = raw.get(i).cloned().ok_or(format!("{flag} needs {what}"))?;
            i += 1;
            Ok(v)
        };
        match flag {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let w = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // Bare `--trace` switches tracing on; `0`/`1` may follow.
                let next = inline.clone().or_else(|| {
                    raw.get(i)
                        .filter(|v| matches!(v.as_str(), "0" | "1"))
                        .cloned()
                        .inspect(|_| i += 1)
                });
                args.trace = match next.as_deref() {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--tiny" => args.tiny = true,
            "--json" => args.json = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                let a = PathBuf::from(value("two result files")?);
                let b = raw
                    .get(i)
                    .map(PathBuf::from)
                    .ok_or("--compare needs two result files")?;
                i += 1;
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Snapshots and span files go under the benchmark's own directory.
fn out_dir() -> PathBuf {
    let here = PathBuf::from("koko_bench");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn run_compare(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {}: {e}", p.display()))
            .and_then(|text| {
                compare::parse_runs(&text).map_err(|e| format!("{}: {e}", p.display()))
            })
    };
    let rows = compare::compare(&Spec::builtin(), &read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    Ok(compare::print(&rows))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        match run_compare(a, b) {
            Ok(worse) => std::process::exit(i32::from(worse)),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    let scale = if args.tiny { Scale::TINY } else { Scale::FULL };
    let seconds = args.seconds.unwrap_or(if args.tiny {
        1.0
    } else {
        Spec::builtin().run_seconds
    });
    // Several workloads: each in a process of its own, so that none
    // inherits the heap, the page cache state or the peak memory of the one
    // before it.
    if args.workloads.len() > 1 {
        let me = std::env::current_exe().expect("path of this executable");
        for workload in &args.workloads {
            let mut child = std::process::Command::new(&me);
            child.args(
                raw.iter()
                    .filter(|a| !a.starts_with("--workload") && *a != "all"),
            );
            child.args(["--workload", workload.name()]);
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => std::process::exit(status.code().unwrap_or(1)),
                Err(e) => {
                    eprintln!("error: cannot start {}: {e}", me.display());
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    let mut lines = Vec::new();
    for workload in args.workloads {
        let report = match suite::run(&Config {
            workload,
            seed: args.seed,
            seconds,
            trace: args.trace,
            scale,
            out_dir: out_dir(),
        }) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {}: {e}", workload.name());
                std::process::exit(1);
            }
        };
        report.print();
        if let Some(path) = &args.json {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", report.record_line()));
            if let Err(e) = appended {
                eprintln!("error: cannot append to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        lines.push(report.contract_line());
    }
    println!();
    for line in lines {
        println!("{line}");
    }
}
