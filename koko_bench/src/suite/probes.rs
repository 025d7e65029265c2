//! The traced run: build-side probes, a single-threaded in-process replay
//! of a workload's round through the layers' public functions in the order
//! the server calls them, and the served probes. Spans are recorded here,
//! around the calls into each layer; none live inside the program.

use super::corpus::{distinct, Class, Op};
use super::load::{closed_loop, ping_rtt_us, Sample, Stop};
use super::oracle::{Match, Oracle, Tally};
use super::setup::{Cycle, Inputs};
use super::stats::Samples;
use super::trace::{Open, Tracer};
use super::workloads::{prime, System, Workload};
use koko_cluster::merge::{merge_rows, parse_worker_response, window};
use koko_cluster::{FanOut, FanOutConfig, WorkerEntry};
use koko_core::binder::CompiledQuery;
use koko_core::{dpli, Koko, Profile};
use koko_lang::{normalize, parse_query};
use koko_serve::protocol::{ok_response, opts_response, response_rows, rows_json};
use koko_serve::Request;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const PINGS: usize = 200;
const LOADED_DOCS: usize = 200;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn compile(text: &str) -> CompiledQuery {
    let parsed = parse_query(text).expect("benchmark queries parse");
    let norm = normalize(&parsed).expect("benchmark queries normalize");
    CompiledQuery::compile(norm).expect("benchmark queries compile")
}

/// nlp, index, par, storage and lang figures of one corpus: the reference
/// build's stage times, and direct calls into index, store and front end
/// on `koko` (an engine over the same corpus with default options).
pub fn build_side(
    inputs: &Inputs,
    koko: &Koko,
    cycles: &[Cycle],
    out: &mut Vec<(&'static str, f64)>,
) {
    let reference = &inputs.reference;
    let median = |f: &dyn Fn(&Cycle) -> f64| Samples::new(cycles.iter().map(f).collect());
    let ingest_s = median(&|c| c.ingest_s).median_or_zero();
    let class_ms = median(&|c| c.class_ms.iter().sum()).median_or_zero();
    let save_s = median(&|c| c.save_s).median_or_zero();
    let file_bytes = cycles.last().map_or(0, |c| c.file_bytes) as f64;

    let snapshot = koko.snapshot();
    let shards = snapshot.shards();
    let index_bytes: usize = shards.iter().map(|s| s.index().approx_bytes()).sum();
    let blob_bytes: usize = shards
        .iter()
        .flat_map(|s| (0..s.num_documents() as u32).map(move |d| s.store().blob_bytes(d)))
        .map(|b| b.map_or(0, <[u8]>::len))
        .sum();

    let mut dpli_us = Vec::new();
    let mut front_end_us = Vec::new();
    for class in Class::ALL {
        let t = Instant::now();
        let cq = compile(class.query());
        front_end_us.push(us(t.elapsed()));
        let t = Instant::now();
        for shard in shards {
            std::hint::black_box(dpli::run(&cq, shard.index()));
        }
        dpli_us.push(us(t.elapsed()));
    }

    let docs = snapshot.num_documents();
    let step = (docs / LOADED_DOCS).max(1);
    let t = Instant::now();
    let mut loaded = 0u32;
    for doc in (0..docs).step_by(step) {
        std::hint::black_box(snapshot.load_document(doc as u32).expect("stored document"));
        loaded += 1;
    }
    let load_doc_us = us(t.elapsed()) / loaded.max(1) as f64;

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.extend([
        ("nlp.parse_s", reference.parse_s),
        (
            "nlp.sentences_per_s",
            ratio(reference.sentences as f64, reference.parse_s),
        ),
        ("index.build_s", reference.build_s),
        (
            "index.bytes_per_sentence",
            ratio(index_bytes as f64, snapshot.num_sentences() as f64),
        ),
        (
            "index.dpli_run_us",
            Samples::new(dpli_us).mean().unwrap_or(0.0),
        ),
        (
            "par.ingest_speedup",
            ratio(reference.parse_s + reference.build_s, ingest_s),
        ),
        (
            "par.query_speedup",
            ratio(inputs.reference_class_ms(), class_ms),
        ),
        ("storage.save_s", save_s),
        ("storage.save_mb_per_s", ratio(file_bytes / 1e6, save_s)),
        ("storage.file_bytes", file_bytes),
        (
            "storage.open_ms",
            median(&|c| c.open_s * 1e3).median_or_zero(),
        ),
        ("storage.load_doc_us", load_doc_us),
        (
            "storage.blob_bytes_per_doc",
            ratio(blob_bytes as f64, docs as f64),
        ),
        (
            "storage.cold_over_warm",
            median(&|c| ratio(c.first_query_ms, c.dob_ms())).median_or_zero(),
        ),
        (
            "lang.parse_normalize_us",
            Samples::new(front_end_us).mean().unwrap_or(0.0),
        ),
    ]);
}

/// Sums over the operations of a replay.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub ops: u64,
    /// Wall time of the whole operation and of `Koko::run` inside it.
    pub op_wall: Duration,
    pub run_wall: Duration,
    pub rows: u64,
    pub bytes_out: u64,
    pub profile: Profile,
    /// Stage and wall time per class, for the stage split.
    pub by_class: BTreeMap<Class, (Profile, Duration, u64)>,
    pub tally: Tally,
}

impl Replay {
    fn per_op_ms(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e3 / self.ops.max(1) as f64
    }

    pub fn op_ms(&self) -> f64 {
        self.per_op_ms(self.op_wall)
    }

    pub fn run_ms(&self) -> f64 {
        self.per_op_ms(self.run_wall)
    }
}

fn stage_list(p: &Profile) -> [(&'static str, Duration); 6] {
    [
        ("core.normalize", p.normalize),
        ("core.dpli", p.dpli),
        ("core.load_article", p.load_article),
        ("core.gsp", p.gsp),
        ("core.extract", p.extract),
        ("core.satisfying", p.satisfying),
    ]
}

/// Send `round` through decode → parse/normalize/compile → `Koko::run` →
/// encode, `rounds` times on this thread. `oracle` checks every answer
/// (`None` while the corpus is being written to).
pub fn replay(
    koko: &Koko,
    round: &[Op],
    rounds: usize,
    oracle: Option<&Oracle>,
    tracer: &mut Tracer,
    next_op: &mut u32,
) -> Replay {
    let lines: Vec<String> = round.iter().map(|op| op.line(1)).collect();
    let mut r = Replay::default();
    for _ in 0..rounds {
        for (op, line) in round.iter().zip(&lines) {
            *next_op += 1;
            let started = Instant::now();
            let whole = tracer.begin("op", "bench", Tracer::root(), *next_op);

            let span = tracer.begin("serve.decode", "serve", whole, *next_op);
            let Ok(Request::Query {
                text, cache, opts, ..
            }) = Request::decode(line)
            else {
                unreachable!("the benchmark encodes query lines only");
            };
            tracer.end(span);

            // The server reaches the front end through the compiled-query
            // cache; calling it outright shows what a miss costs.
            let span = tracer.begin("lang.parse_normalize", "lang", whole, *next_op);
            std::hint::black_box(compile(&text));
            tracer.end(span);

            let request = match opts {
                Some(o) => o.to_request(&text, cache),
                None => koko_core::QueryRequest::new(text.as_str()).cache(cache),
            };
            let span = tracer.begin("core.run", "core", whole, *next_op);
            let t = Instant::now();
            let out = koko.run(&request).expect("benchmark queries evaluate");
            let run_wall = t.elapsed();
            tracer.end(span);
            record_run(tracer, span, &out.profile, out.rows.len());

            let span = tracer.begin("serve.encode", "serve", whole, *next_op);
            let response = match opts {
                Some(_) => opts_response(1, &out),
                None => ok_response(1, &out),
            };
            tracer.count(span, "bytes_out", response.len() as u64);
            tracer.end(span);
            tracer.end(whole);

            r.ops += 1;
            r.op_wall += started.elapsed();
            r.run_wall += run_wall;
            r.rows += out.rows.len() as u64;
            r.bytes_out += response.len() as u64;
            r.profile.merge(&out.profile);
            let slot = r.by_class.entry(op.class).or_default();
            slot.0.merge(&out.profile);
            slot.1 += run_wall;
            slot.2 += 1;
            if let Some(oracle) = oracle {
                r.tally.record(
                    response_rows(&response).is_some_and(|rows| oracle.accepts_rows(op, rows)),
                );
            }
        }
    }
    r
}

/// Stage spans under a `core.run` span, and the counts at its boundary.
fn record_run(tracer: &mut Tracer, span: Open, p: &Profile, rows: usize) {
    tracer.stages(span, "core", &stage_list(p));
    for (key, value) in [
        ("candidate_sentences", p.candidate_sentences),
        ("delta_candidates", p.delta_candidates),
        ("raw_tuples", p.raw_tuples),
        ("rows", rows),
        ("docs_skipped", p.docs_skipped),
        ("bound_skipped_docs", p.bound_skipped_docs),
        ("block_bound_skipped_docs", p.block_bound_skipped_docs),
        ("gallop_probes", p.gallop_probes),
    ] {
        tracer.count(span, key, value as u64);
    }
}

/// core.* and serve.* codec figures from a traced replay of `rounds`
/// rounds; counts are per round, so they repeat exactly for a seed.
pub fn replay_metrics(
    traced: &Replay,
    untraced: &Replay,
    tracer: &Tracer,
    rounds: usize,
    out: &mut Vec<(&'static str, f64)>,
    detail: &mut Vec<(String, f64, &'static str)>,
) {
    let own = tracer.self_times();
    let ops = traced.ops.max(1) as f64;
    let self_ms = |name: &str| own.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e6 / ops);
    let per_round = |key: &str| tracer.total_count(key) as f64 / rounds.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let run_total_ms = traced.run_wall.as_secs_f64() * 1e3;
    out.extend([
        ("core.normalize_ms", self_ms("core.normalize")),
        ("core.dpli_ms", self_ms("core.dpli")),
        ("core.load_article_ms", self_ms("core.load_article")),
        ("core.gsp_ms", self_ms("core.gsp")),
        ("core.extract_ms", self_ms("core.extract")),
        ("core.satisfying_ms", self_ms("core.satisfying")),
        ("core.run_ms", traced.run_ms()),
        (
            "core.load_article_share",
            ratio(self_ms("core.load_article") * ops, run_total_ms),
        ),
        ("core.candidate_sentences", per_round("candidate_sentences")),
        ("core.raw_tuples", per_round("raw_tuples")),
        ("core.rows", per_round("rows")),
        (
            "core.rows_per_candidate",
            ratio(per_round("rows"), per_round("candidate_sentences")),
        ),
        ("core.docs_skipped", per_round("docs_skipped")),
        ("core.bound_skipped_docs", per_round("bound_skipped_docs")),
        (
            "core.block_bound_skipped_docs",
            per_round("block_bound_skipped_docs"),
        ),
        ("core.gallop_probes", per_round("gallop_probes")),
        ("serve.decode_us", self_ms("serve.decode") * 1e3),
        ("serve.encode_us", self_ms("serve.encode") * 1e3),
        (
            "serve.encode_us_per_krow",
            ratio(
                self_ms("serve.encode") * ops * 1e3,
                traced.rows as f64 / 1e3,
            ),
        ),
        ("serve.bytes_out_per_op", traced.bytes_out as f64 / ops),
        (
            "bench.trace_overhead_ratio",
            ratio(traced.run_ms(), untraced.run_ms()),
        ),
    ]);
    detail.push(("replay.op_ms".to_string(), traced.op_ms(), "ms"));
    detail.push(("replay.ops".to_string(), traced.ops as f64, "count"));
    for (class, (p, wall, n)) in &traced.by_class {
        let n = *n as f64;
        let name = class.name();
        for (stage, d) in stage_list(p) {
            detail.push((
                format!("{name}.{stage}_ms"),
                d.as_secs_f64() * 1e3 / n,
                "ms",
            ));
        }
        detail.push((
            format!("{name}.core.run_ms"),
            wall.as_secs_f64() * 1e3 / n,
            "ms",
        ));
    }
}

/// The write side of `topk_live`, replayed in-process on a writable engine:
/// each wave through `Koko::add_texts`, one round over the deltas it left,
/// then `Koko::compact`.
pub fn write_probe(
    koko: &Koko,
    round: &[Op],
    waves: &[Vec<String>],
    tracer: &mut Tracer,
    next_op: &mut u32,
    out: &mut Vec<(&'static str, f64)>,
) -> Tally {
    let mut tally = Tally::default();
    let mut add_ms = Vec::new();
    for wave in waves {
        *next_op += 1;
        let span = tracer.begin("core.add", "core", Tracer::root(), *next_op);
        let t = Instant::now();
        let report = koko.add_texts(wave);
        add_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.count(span, "docs", report.added as u64);
        tracer.end(span);
        tally.record(report.added == wave.len());
    }
    let over_deltas = replay(koko, &distinct(round), 1, None, tracer, next_op);
    *next_op += 1;
    let span = tracer.begin("core.compact", "core", Tracer::root(), *next_op);
    let t = Instant::now();
    let report = koko.compact();
    let compact_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.count(span, "merged_deltas", report.merged_deltas as u64);
    tracer.end(span);
    tally.record(report.merged_deltas > 0);
    let p = &over_deltas.profile;
    out.extend([
        ("core.add_ms", Samples::new(add_ms).mean().unwrap_or(0.0)),
        ("core.compact_ms", compact_ms),
        (
            "core.delta_candidate_share",
            if p.candidate_sentences > 0 {
                p.delta_candidates as f64 / p.candidate_sentences as f64
            } else {
                0.0
            },
        ),
    ]);
    tally
}

/// The coordinator's steps, replayed against the running workers:
/// `FanOut::call_all` → `parse_worker_response` → `merge_rows` + `window` →
/// `rows_json`, one round, every merged answer checked.
pub fn cluster_probe(
    workers: &[WorkerEntry],
    round: &[Op],
    oracle: &Oracle,
    tracer: &mut Tracer,
    next_op: &mut u32,
    out: &mut Vec<(&'static str, f64)>,
) -> Tally {
    let fanout = FanOut::new(
        workers.iter().map(WorkerEntry::endpoints).collect(),
        FanOutConfig::default(),
    )
    .expect("start the fan-out reactor");
    let mut tally = Tally::default();
    let mut retries = 0usize;
    let mut spread = Vec::new();
    for op in round {
        *next_op += 1;
        let id = *next_op as u64;
        let whole = tracer.begin("op", "bench", Tracer::root(), *next_op);
        // Workers answer the first `offset + limit` rows of their range.
        let worker_op = Op {
            limit: op.limit.map(|k| k + op.offset.unwrap_or(0)),
            offset: None,
            ..*op
        };
        let lines = workers.iter().map(|_| Some(worker_op.line(id))).collect();

        let span = tracer.begin("cluster.fanout_wait", "cluster", whole, *next_op);
        let replies = fanout.call_all(lines, Duration::from_secs(10), true);
        tracer.end(span);

        let span = tracer.begin("cluster.parse_reply", "cluster", whole, *next_op);
        let mut per_worker = Vec::new();
        let mut truncated = false;
        let mut rtts = Vec::new();
        for (worker, reply) in workers.iter().zip(replies) {
            let Some(reply) = reply else { continue };
            retries += reply.retries;
            rtts.push(reply.rtt.as_secs_f64());
            if let Ok(parsed) = reply
                .line
                .map_err(|e| e.wire())
                .and_then(|l| parse_worker_response(&l, worker.doc_base, worker.sid_base))
            {
                truncated |= parsed.truncated;
                per_worker.push(parsed.rows);
            }
        }
        tracer.end(span);
        let answered = per_worker.len() == workers.len();

        let span = tracer.begin("cluster.merge", "cluster", whole, *next_op);
        let merged = merge_rows(per_worker, op.score_desc);
        let (rows, _) = window(
            merged,
            op.offset.unwrap_or(0) as usize,
            op.limit.map(|k| k as usize),
            truncated,
        );
        tracer.end(span);

        let span = tracer.begin("cluster.reserialize", "cluster", whole, *next_op);
        let serialized = rows_json(&rows);
        tracer.end(span);
        tracer.end(whole);

        tally.record(answered && oracle.match_cluster_rows(op, &serialized) != Match::Wrong);
        let fastest = rtts.iter().copied().fold(f64::INFINITY, f64::min);
        let slowest = rtts.iter().copied().fold(0.0, f64::max);
        if fastest > 0.0 && fastest.is_finite() {
            spread.push(slowest / fastest);
        }
    }
    let own = tracer.self_times();
    let ops = round.len().max(1) as f64;
    let self_ms = |name: &str| own.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e6 / ops);
    out.extend([
        ("cluster.fanout_wait_ms", self_ms("cluster.fanout_wait")),
        (
            "cluster.slowest_over_fastest",
            Samples::new(spread).median_or_zero(),
        ),
        ("cluster.parse_reply_ms", self_ms("cluster.parse_reply")),
        ("cluster.merge_ms", self_ms("cluster.merge")),
        ("cluster.reserialize_ms", self_ms("cluster.reserialize")),
        ("cluster.retries", retries as f64),
    ]);
    tally
}

/// Probes against the workload's running single-node server: wire `ping`
/// round trips, and the closed-loop rate with one connection and with two.
/// Returns the one-connection mean latency (ms) for `serve.wire_overhead_ms`.
pub fn served_probe(
    system: &System,
    workload: Workload,
    rounds: usize,
    oracle: &Oracle,
    out: &mut Vec<(&'static str, f64)>,
    tally: &mut Tally,
) -> f64 {
    let round = workload.round();
    prime(&system.single_addr, &workload.all_ops(), oracle, tally);
    let check = |op: &Op, id: u64, line: &str| oracle.accepts(op, id, line);
    let pings = ping_rtt_us(&system.single_addr, PINGS);
    let mut rate = |conns: usize| -> (f64, Vec<Sample>) {
        let t = Instant::now();
        let samples = closed_loop(
            &system.single_addr,
            conns,
            &round,
            Stop::Rounds(rounds),
            &check,
        );
        let secs = t.elapsed().as_secs_f64().max(1e-9);
        for s in &samples {
            tally.record(s.ok);
        }
        (samples.len() as f64 / secs, samples)
    };
    let (one, one_samples) = rate(1);
    let (two, _) = rate(2);
    out.extend([
        ("serve.ping_rtt_us", pings.median_or_zero()),
        (
            "serve.one_vs_two_conn",
            if one > 0.0 { two / one } else { 0.0 },
        ),
    ]);
    Samples::new(one_samples.iter().map(|s| s.latency_ms).collect())
        .mean()
        .unwrap_or(0.0)
}

/// Everything a traced run adds, for one workload. Returns the per-layer
/// figures, detail rows, the operations it checked, and the tracer.
pub struct TracedRun {
    /// Mean wall time of one replayed operation, codec included (ms).
    pub op_ms: f64,
    pub layer: Vec<(&'static str, f64)>,
    pub detail: Vec<(String, f64, &'static str)>,
    pub tally: Tally,
    pub tracer: Tracer,
}

/// Replay `workload`'s round in-process on `koko` (opened the way the
/// workload's server opens it), untraced and then traced, plus the probes
/// only that workload has: writes for `topk_live`, the coordinator's steps
/// for `cluster_scan`.
pub fn traced_run(
    workload: Workload,
    rounds: usize,
    mut koko: Koko,
    oracle: &Oracle,
    waves: &[Vec<String>],
    system: Option<&System>,
) -> TracedRun {
    let round = workload.round();
    let mut run = TracedRun {
        op_ms: 0.0,
        layer: Vec::new(),
        detail: Vec::new(),
        tally: Tally::default(),
        tracer: Tracer::new(true),
    };
    // A server evaluates on its worker pool without per-query fork-join.
    if workload != Workload::BuildScale {
        koko.opts.parallel = false;
    }
    let mut next_op = 0u32;
    // Fill caches (and decode lazily opened shards) before timing.
    let mut idle = Tracer::new(false);
    replay(
        &koko,
        &workload.all_ops(),
        1,
        Some(oracle),
        &mut idle,
        &mut next_op,
    );
    let untraced = replay(&koko, &round, rounds, Some(oracle), &mut idle, &mut next_op);
    let traced = replay(
        &koko,
        &round,
        rounds,
        Some(oracle),
        &mut run.tracer,
        &mut next_op,
    );
    run.op_ms = traced.op_ms();
    run.tally.merge(untraced.tally);
    run.tally.merge(traced.tally);
    replay_metrics(
        &traced,
        &untraced,
        &run.tracer,
        rounds,
        &mut run.layer,
        &mut run.detail,
    );
    match workload {
        Workload::TopkLive => {
            let probe_waves = &waves[..waves.len().min(10)];
            run.tally.merge(write_probe(
                &koko,
                &round,
                probe_waves,
                &mut run.tracer,
                &mut next_op,
                &mut run.layer,
            ));
        }
        Workload::ClusterScan => {
            let system = system.expect("cluster_scan keeps its system up for the probe");
            run.tally.merge(cluster_probe(
                &system.workers,
                &round,
                oracle,
                &mut run.tracer,
                &mut next_op,
                &mut run.layer,
            ));
        }
        _ => {}
    }
    run
}
