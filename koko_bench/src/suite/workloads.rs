//! The five workloads: what each stands up, and what its measured window
//! sends. Why each exists is recorded in `BENCHMARK.json` and the README.

use super::corpus::{
    class_round, distinct, hit_round, scan_round, topk_round, unseen_waves, Class, Op,
};
use super::load::{closed_loop, open_loop, Conn, OpenReport, Sample, Stop};
use super::oracle::{accepted, Match, Oracle, Tally};
use super::setup::{cycle, reference_engine, Cycle, Inputs, ADD_DOCS};
use super::stats::Samples;
use koko_cluster::{Coordinator, CoordinatorConfig, Mode, ShardMap, WorkerEntry};
use koko_core::{EngineOpts, Koko};
use koko_serve::protocol::response_rows;
use koko_serve::{Request, Server, ServerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Result-cache capacity of the `hit_warm_open` server.
const HIT_CACHE_ENTRIES: usize = 256;

/// The four fixed open-loop rates of `hit_warm_open`: about 20/40/60/80 %
/// of the closed-loop capacity the seed commit reached on the two-core
/// reference box (see the README). They are constants so that a faster or
/// slower commit is measured at the same offered load.
pub const HIT_RATES_RPS: [f64; 4] = [1000.0, 2000.0, 3000.0, 4000.0];

/// The latency limit a rate must meet at p95 to count as sustained.
pub const HIT_P95_LIMIT_MS: f64 = 5.0;

/// A rate is sustained when at least this share of the offered requests
/// was answered per second (no growing backlog).
const SUSTAINED_SHARE: f64 = 0.98;

/// Window seconds per pass of `build_scale` over its three sizes (a pass
/// takes about 4.8 s on the reference box).
const BUILD_PASS_SECONDS: f64 = 3.5;

/// Live adds leave on this period; one compaction is sent this far into
/// the window.
const ADD_PERIOD: Duration = Duration::from_millis(100);
const COMPACT_AT: f64 = 0.68;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BuildScale,
    ScanCold,
    HitWarmOpen,
    TopkLive,
    ClusterScan,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BuildScale,
        Workload::ScanCold,
        Workload::HitWarmOpen,
        Workload::TopkLive,
        Workload::ClusterScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildScale => "build_scale",
            Workload::ScanCold => "scan_cold",
            Workload::HitWarmOpen => "hit_warm_open",
            Workload::TopkLive => "topk_live",
            Workload::ClusterScan => "cluster_scan",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One round of the workload's operations.
    pub fn round(self) -> Vec<Op> {
        match self {
            Workload::BuildScale => class_round(),
            Workload::ScanCold | Workload::ClusterScan => scan_round(),
            Workload::HitWarmOpen => hit_round(),
            Workload::TopkLive => topk_round(),
        }
    }

    /// Every operation a run sends: the round's, plus what only fills a
    /// cache. `limit` requests are answered from the result cache only when
    /// the complete result is there (a truncated run is never stored), so
    /// `hit_warm_open` first sends `dob` unlimited too.
    pub fn all_ops(self) -> Vec<Op> {
        let mut ops = distinct(&self.round());
        if self == Workload::HitWarmOpen {
            ops.push(Op::scan(Class::Dob).cached());
        }
        ops
    }

    /// Rounds an in-process replay runs (once untraced, once traced), and
    /// the closed-loop rounds of the served probes: a scan round takes
    /// seconds, a hit or top-k round milliseconds.
    pub fn replay_rounds(self, scale: &Scale) -> usize {
        match self {
            Workload::HitWarmOpen | Workload::TopkLive if !scale.tiny => 20,
            _ => 1,
        }
    }

    /// Engine options of the server the window talks to (and of the
    /// in-process engine a traced run replays on).
    pub fn engine_opts(self) -> EngineOpts {
        match self {
            Workload::HitWarmOpen => EngineOpts {
                result_cache: HIT_CACHE_ENTRIES,
                ..EngineOpts::default()
            },
            // Write paths materialise the snapshot up front.
            Workload::TopkLive => EngineOpts {
                eager_load: true,
                ..EngineOpts::default()
            },
            _ => EngineOpts::default(),
        }
    }
}

/// Corpus sizes and repetition counts.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub tiny: bool,
    /// Documents behind every served workload.
    pub n: usize,
    /// `build_scale`'s three sizes and the trials per pass at each.
    pub build_sizes: [usize; 3],
    pub build_trials: [usize; 3],
    /// How often set-up is repeated for a median.
    pub setup_reps: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        tiny: false,
        n: 3000,
        build_sizes: [1000, 4000, 16000],
        build_trials: [2, 1, 1],
        setup_reps: 5,
    };

    /// The smoke-test scale: everything runs, nothing is steady.
    pub const TINY: Scale = Scale {
        tiny: true,
        n: 200,
        build_sizes: [80, 160, 320],
        build_trials: [1, 1, 1],
        setup_reps: 1,
    };
}

/// Servers a workload runs against. Everything is in this process and
/// talks over loopback sockets.
pub struct System {
    /// Where the window's clients connect.
    pub addr: String,
    /// A plain single-node server over the whole corpus: the window's own
    /// where it has one.
    pub single_addr: String,
    /// Cluster workers in shard-map order (empty without a cluster).
    pub workers: Vec<WorkerEntry>,
    servers: Vec<Server>,
    coordinator: Option<Coordinator>,
}

impl System {
    /// Stop every server and wait for its threads.
    pub fn shut_down(self) {
        if let Some(c) = self.coordinator {
            c.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
    }
}

fn bind(koko: Koko, config: ServerConfig) -> Server {
    Server::bind_config(koko, "127.0.0.1:0", config).expect("bind a loopback server")
}

/// Open the snapshot at `path` the way `workload` serves it and start its
/// servers. `BuildScale` serves nothing and must not be passed.
pub fn stand_up(workload: Workload, inputs: &Inputs, path: &Path) -> System {
    let koko = Koko::open_with_opts(path, workload.engine_opts()).expect("open the snapshot");
    let single = bind(
        koko,
        ServerConfig {
            writable: workload == Workload::TopkLive,
            ..ServerConfig::default()
        },
    );
    let single_addr = single.local_addr().to_string();
    let mut system = System {
        addr: single_addr.clone(),
        single_addr,
        workers: Vec::new(),
        servers: vec![single],
        coordinator: None,
    };
    if workload == Workload::ClusterScan {
        // One worker per core: each owns half the documents, one shard, one
        // thread, no fork-join.
        let mid = inputs.n / 2;
        let worker_opts = EngineOpts {
            num_shards: 1,
            parallel: false,
            ..EngineOpts::default()
        };
        let halves = [&inputs.texts[..mid], &inputs.texts[mid..]];
        let mut doc_base = 0u32;
        let mut sid_base = 0u32;
        for (i, half) in halves.into_iter().enumerate() {
            let engine = Koko::from_texts_with_opts(half, worker_opts);
            let sentences = engine.snapshot().num_sentences() as u32;
            let server = bind(
                engine,
                ServerConfig {
                    threads: 1,
                    ..ServerConfig::default()
                },
            );
            system.workers.push(WorkerEntry {
                name: format!("w{i}"),
                addr: server.local_addr().to_string(),
                replicas: Vec::new(),
                doc_base,
                docs: half.len() as u32,
                sid_base,
                snapshot: None,
            });
            system.servers.push(server);
            doc_base += half.len() as u32;
            sid_base += sentences;
        }
        let map = ShardMap {
            version: 1,
            epoch: 0,
            mode: Mode::Strict,
            workers: system.workers.clone(),
        };
        let coordinator = Coordinator::bind(map, "127.0.0.1:0", CoordinatorConfig::default())
            .expect("bind the coordinator");
        system.addr = coordinator.local_addr().to_string();
        system.coordinator = Some(coordinator);
    }
    system
}

/// What a measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// The operations `p50_ms`, `p95_ms` and the class medians are taken
    /// over; `Sample::op` indexes the workload's round.
    pub samples: Vec<Sample>,
    /// The operations the class medians are taken over, where that is not
    /// all of `samples`.
    pub class_samples: Option<Vec<Sample>>,
    /// Correct operations per second of the closed-loop phase.
    pub ops_per_s: f64,
    pub tally: Tally,
    /// Latency of live adds, from their scheduled send time (ms).
    pub add_ms: Vec<f64>,
    /// Build cycles per size (`build_scale` only).
    pub cycles: Vec<Vec<Cycle>>,
    /// Per-layer figures the untraced window yields as by-products.
    pub layer: Vec<(&'static str, f64)>,
    pub detail: Vec<(String, f64, &'static str)>,
}

impl Window {
    fn absorb(&mut self, samples: &[Sample]) {
        for s in samples {
            self.tally.record(s.ok);
        }
    }

    /// Keep `samples` as the window's latency sample and count them.
    fn keep(&mut self, samples: Vec<Sample>, elapsed: Duration) {
        self.ops_per_s = correct_per_s(&samples, elapsed);
        self.absorb(&samples);
        self.samples = samples;
    }
}

fn correct_per_s(samples: &[Sample], elapsed: Duration) -> f64 {
    samples.iter().filter(|s| s.ok).count() as f64 / elapsed.as_secs_f64().max(1e-9)
}

fn latencies(samples: &[Sample]) -> Samples {
    Samples::new(samples.iter().map(|s| s.latency_ms).collect())
}

/// Send every operation of `ops` once, checked: lets lazy shard decoding
/// and cache fills finish before anything is timed.
pub fn prime(addr: &str, ops: &[Op], oracle: &Oracle, tally: &mut Tally) {
    let mut conn = Conn::connect(addr).expect("connect to the system under test");
    for op in distinct(ops) {
        let ok = conn
            .call(&op.line(1))
            .is_ok_and(|line| oracle.accepts(&op, 1, line));
        tally.record(ok);
    }
}

/// `scan_cold`: two closed-loop connections send the scan round to one
/// default server for the whole window.
pub fn scan_cold(system: &System, oracle: &Oracle, seconds: f64) -> Window {
    let round = scan_round();
    let mut w = Window::default();
    prime(&system.addr, &round, oracle, &mut w.tally);
    let check = |op: &Op, id: u64, line: &str| oracle.accepts(op, id, line);
    let started = Instant::now();
    let samples = closed_loop(
        &system.addr,
        2,
        &round,
        Stop::After(Duration::from_secs_f64(seconds)),
        &check,
    );
    w.keep(samples, started.elapsed());
    w.layer.push(("serve.p99_ms", p99(&w.samples)));
    w
}

fn p99(samples: &[Sample]) -> f64 {
    latencies(samples).percentile(99.0).unwrap_or(0.0)
}

/// `hit_warm_open`: fill the result cache, a closed loop for a fifth of the
/// window, then an open loop at each of the four fixed rates for a fifth
/// each. `p50_ms` and `p95_ms` are those of the first rate, where every
/// request finds the server idle (at the higher rates a median answer is
/// sometimes served by threads still awake and sometimes not, and the share
/// moves the median from run to run); `ops_per_s` and the class medians are
/// those of the closed loop.
pub fn hit_warm_open(system: &System, oracle: &Oracle, seconds: f64) -> Window {
    let round = hit_round();
    let phase = Duration::from_secs_f64(seconds / 5.0);
    let mut w = Window::default();
    prime(
        &system.addr,
        &Workload::HitWarmOpen.all_ops(),
        oracle,
        &mut w.tally,
    );
    let check = |op: &Op, id: u64, line: &str| oracle.accepts(op, id, line);

    let started = Instant::now();
    let closed = closed_loop(&system.addr, 2, &round, Stop::After(phase), &check);
    w.ops_per_s = correct_per_s(&closed, started.elapsed());
    w.absorb(&closed);
    w.detail.extend([
        (
            "closed_loop.p50".to_string(),
            latencies(&closed).median_or_zero(),
            "ms",
        ),
        (
            "closed_loop.samples".to_string(),
            closed.len() as f64,
            "count",
        ),
    ]);
    // The class medians come from the saturated closed loop: at a fixed
    // rate below capacity a sub-millisecond answer is mostly thread
    // wake-ups, which on this box flip between two states for seconds at a
    // time (0.16 ms and 0.24 ms medians inside one process).
    w.class_samples = Some(closed);

    let mut ok_rate = 0.0;
    for (i, rate) in HIT_RATES_RPS.into_iter().enumerate() {
        let OpenReport {
            achieved_rps,
            samples,
            lateness_ms,
        } = open_loop(&system.addr, 2, &round, rate, phase, &check);
        w.absorb(&samples);
        let lat = latencies(&samples);
        let p95 = lat.percentile(95.0).unwrap_or(f64::INFINITY);
        let failed = samples.iter().filter(|s| !s.ok).count();
        if failed == 0 && p95 <= HIT_P95_LIMIT_MS && achieved_rps >= SUSTAINED_SHARE * rate {
            ok_rate = rate;
        }
        let tag = format!("open_loop.{rate:.0}rps");
        w.detail.extend([
            (format!("{tag}.achieved"), achieved_rps, "1/s"),
            (format!("{tag}.p50"), lat.median_or_zero(), "ms"),
            (format!("{tag}.p95"), p95, "ms"),
            (format!("{tag}.samples"), lat.len() as f64, "count"),
            (format!("{tag}.failed"), failed as f64, "count"),
            (
                format!("{tag}.gen_late_p95"),
                lateness_ms.percentile(95.0).unwrap_or(0.0),
                "ms",
            ),
        ]);
        if i == 0 {
            w.layer.extend([
                ("serve.p99_ms", lat.percentile(99.0).unwrap_or(0.0)),
                (
                    "serve.gen_late_ms",
                    lateness_ms.percentile(95.0).unwrap_or(0.0),
                ),
            ]);
            w.samples = samples;
        }
    }
    w.layer.push(("serve.ok_rate_rps", ok_rate));
    w.layer.push((
        "core.result_cache_hit_ratio",
        result_cache_hit_ratio(&system.addr),
    ));
    w
}

/// Hits over lookups of the server's result cache, from its `stats` line.
fn result_cache_hit_ratio(addr: &str) -> f64 {
    let number = |line: &str, key: &str| -> Option<f64> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}'])?;
        rest[..end].parse().ok()
    };
    Conn::connect(addr)
        .ok()
        .and_then(|mut conn| {
            let line = conn.call("{\"id\":1,\"cmd\":\"stats\"}").ok()?;
            let hits = number(line, "\"result_cache_hits\":")?;
            let misses = number(line, "\"result_cache_misses\":")?;
            Some(if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            })
        })
        .unwrap_or(0.0)
}

/// The documents `topk_live`'s writer adds during a window of `seconds`.
pub fn live_waves(seconds: f64, seed: u64) -> Vec<Vec<String>> {
    let adds = (seconds / ADD_PERIOD.as_secs_f64()).round().max(2.0) as usize;
    unseen_waves(adds, ADD_DOCS, seed.wrapping_add(1))
}

/// `topk_live`: one closed-loop reader sends `limit 10` requests to a
/// writable server while one writer adds a wave of unseen documents every
/// 100 ms and compacts once. Answers are compared byte-exact before the
/// writer starts and after it stops (against a sequential engine over the
/// base plus every added document); while it runs, the rows depend on the
/// epoch a request saw, so only refusals count as failures.
pub fn topk_live(system: &System, inputs: &Inputs, waves: &[Vec<String>], seconds: f64) -> Window {
    let round = topk_round();
    let mut w = Window::default();
    prime(&system.addr, &round, &inputs.oracle, &mut w.tally);

    let add_lines: Vec<String> = waves
        .iter()
        .enumerate()
        .map(|(k, texts)| {
            Request::Add {
                id: k as u64 + 1,
                texts: texts.clone(),
            }
            .encode()
        })
        .collect();
    let compact_after = (waves.len() as f64 * COMPACT_AT) as usize;
    let answered = |_: &Op, id: u64, line: &str| accepted(id, line);
    let mut compact_ms = 0.0;
    let mut writer_tally = Tally::default();
    let started = Instant::now();
    let samples = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            closed_loop(
                &system.addr,
                1,
                &round,
                Stop::After(Duration::from_secs_f64(seconds)),
                &answered,
            )
        });
        let mut conn = Conn::connect(&system.addr).expect("connect the writer");
        let t0 = Instant::now();
        for (k, line) in add_lines.iter().enumerate() {
            if k == compact_after {
                let sent = Instant::now();
                let ok = conn
                    .call("{\"id\":9,\"cmd\":\"compact\"}")
                    .is_ok_and(|l| accepted(9, l));
                compact_ms = sent.elapsed().as_secs_f64() * 1e3;
                writer_tally.record(ok);
            }
            let due = t0 + ADD_PERIOD * k as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let ok = conn.call(line).is_ok_and(|l| accepted(k as u64 + 1, l));
            w.add_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            writer_tally.record(ok);
        }
        reader.join().expect("reader thread panicked")
    });
    w.keep(samples, started.elapsed());
    w.tally.merge(writer_tally);

    // The reference for the final state: a batch build of base + adds.
    let mut all = inputs.texts.clone();
    all.extend(waves.iter().flatten().cloned());
    let after = Oracle::compute(&reference_engine(&all).0, &distinct(&round));
    prime(&system.addr, &round, &after, &mut w.tally);

    let adds = Samples::new(w.add_ms.clone());
    w.layer.extend([
        ("serve.p99_ms", p99(&w.samples)),
        ("core.add_p95_ms", adds.percentile(95.0).unwrap_or(0.0)),
        ("core.compact_ms", compact_ms),
    ]);
    w.detail.extend([
        ("live.adds".to_string(), adds.len() as f64, "count"),
        (
            "live.docs_added".to_string(),
            (waves.len() * ADD_DOCS) as f64,
            "count",
        ),
    ]);
    w
}

/// `cluster_scan`: one closed-loop client sends the scan round to a
/// coordinator over two workers; a short pass against a single node over
/// the same corpus gives the denominator of `cluster.overhead_ratio`.
pub fn cluster_scan(system: &System, oracle: &Oracle, seconds: f64) -> Window {
    let round = scan_round();
    let mut w = Window::default();
    prime(&system.single_addr, &round, oracle, &mut w.tally);
    let check = |op: &Op, id: u64, line: &str| oracle.accepts(op, id, line);
    let single = closed_loop(
        &system.single_addr,
        1,
        &round,
        Stop::After(Duration::from_secs_f64(seconds * 0.2)),
        &check,
    );
    w.absorb(&single);

    // Rows of one document may come reordered from a cluster (see
    // `Oracle::match_cluster_rows`); such answers are counted, not failed.
    let reordered = AtomicU64::new(0);
    let check = |op: &Op, id: u64, line: &str| {
        let rows = response_rows(line).filter(|_| accepted(id, line));
        match rows.map(|rows| oracle.match_cluster_rows(op, rows)) {
            Some(Match::Exact) => true,
            Some(Match::Reordered) => {
                reordered.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(Match::Wrong) | None => false,
        }
    };
    // Let the workers' lazy set-up finish before timing.
    closed_loop(&system.addr, 1, &distinct(&round), Stop::Rounds(1), &check)
        .iter()
        .for_each(|s| w.tally.record(s.ok));
    let started = Instant::now();
    let samples = closed_loop(
        &system.addr,
        1,
        &round,
        Stop::After(Duration::from_secs_f64(seconds * 0.8)),
        &check,
    );
    w.keep(samples, started.elapsed());

    let single_p50 = latencies(&single).median_or_zero();
    let cluster_p50 = latencies(&w.samples).median_or_zero();
    w.layer.extend([
        ("serve.p99_ms", p99(&w.samples)),
        (
            "cluster.overhead_ratio",
            if single_p50 > 0.0 {
                cluster_p50 / single_p50
            } else {
                0.0
            },
        ),
    ]);
    w.detail.extend([
        ("single_node.p50".to_string(), single_p50, "ms"),
        (
            "single_node.samples".to_string(),
            single.len() as f64,
            "count",
        ),
        (
            "cluster.reordered_answers".to_string(),
            reordered.load(Ordering::Relaxed) as f64,
            "count",
        ),
    ]);
    w
}

/// `build_scale`: for each size, build cycles (ingest → save → drop → open
/// → first `dob` → the four classes → adds), `build_trials` per pass and
/// one pass per `BUILD_PASS_SECONDS` of window (three in ten seconds, so
/// that a median at the top size can shed one slow trial). Nothing is
/// served. `p50_ms` and
/// `p95_ms` are over the queries of every size (a fixed mix); the class
/// medians over those of the top size, where one class is one quantity.
pub fn build_scale(
    sizes: &[Inputs],
    scale: &Scale,
    seed: u64,
    path: &Path,
    seconds: f64,
) -> Window {
    let passes = (seconds / BUILD_PASS_SECONDS).round().max(1.0) as usize;
    let mut w = Window {
        cycles: vec![Vec::new(); sizes.len()],
        ..Window::default()
    };
    let mut query_ms = 0.0;
    let mut at_top = Vec::new();
    for _ in 0..passes {
        for (i, inputs) in sizes.iter().enumerate() {
            for _ in 0..scale.build_trials[i] {
                let c = cycle(inputs, seed, path);
                // The first query is a `dob` too, but a cold one: it counts
                // as an operation, not towards the warm class median.
                let dob = Class::Dob as usize;
                let timed = std::iter::once((dob, c.first_query_ms, false)).chain(
                    c.class_ms
                        .iter()
                        .enumerate()
                        .map(|(op, ms)| (op, *ms, true)),
                );
                for (op, latency_ms, warm) in timed {
                    query_ms += latency_ms;
                    let sample = Sample {
                        op,
                        latency_ms,
                        ok: true,
                    };
                    w.samples.push(sample);
                    if warm && i + 1 == sizes.len() {
                        at_top.push(sample);
                    }
                }
                w.tally.merge(c.tally);
                w.cycles[i].push(c);
            }
        }
    }
    w.class_samples = Some(at_top);
    // Failed answers are in the cycles' tallies; the rate counts the rest.
    let correct = w.samples.len() as f64 - w.tally.failed as f64;
    w.ops_per_s = correct.max(0.0) / (query_ms / 1e3).max(1e-9);
    w
}
