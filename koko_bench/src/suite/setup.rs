//! The build side every workload goes through: the sequential reference
//! build, and the cycle generate → ingest → save → drop → open (mmap) →
//! first query → the four classes → a few incremental adds.

use super::corpus::{class_round, mixed, unseen_waves, Class, Op};
use super::oracle::{sequential_opts, Oracle, Tally};
use koko_core::{EngineOpts, Koko, Snapshot};
use koko_serve::protocol::rows_json;
use std::path::Path;
use std::time::Instant;

/// Documents per incremental add, and adds per cycle.
pub const ADD_DOCS: usize = 8;
pub const CYCLE_ADDS: usize = 5;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What building the sequential reference engine took, stage by stage.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceBuild {
    pub parse_s: f64,
    pub build_s: f64,
    pub sentences: usize,
}

/// The sequential engine the oracle is computed on: `Pipeline::parse_corpus`
/// then `Snapshot::build`, one shard, no worker threads.
pub fn reference_engine(texts: &[String]) -> (Koko, ReferenceBuild) {
    let t = Instant::now();
    let corpus = koko_nlp::Pipeline::new().parse_corpus(texts);
    let parse_s = secs(t);
    let sentences = corpus.num_sentences();
    let t = Instant::now();
    let snapshot = Snapshot::build(corpus, 1, false);
    let build_s = secs(t);
    let timings = ReferenceBuild {
        parse_s,
        build_s,
        sentences,
    };
    (Koko::from_snapshot(snapshot, sequential_opts()), timings)
}

/// Texts, reference engine and reference rows of one corpus size.
pub struct Inputs {
    pub n: usize,
    pub texts: Vec<String>,
    pub text_bytes: u64,
    /// Batches of unseen documents for the cycle's incremental adds.
    pub adds: Vec<Vec<String>>,
    pub reference: ReferenceBuild,
    pub oracle: Oracle,
}

impl Inputs {
    /// Generate `mixed(n, seed)` and compute the reference rows of the four
    /// classes plus `extra_ops`. The reference engine is dropped once the
    /// rows are known, so it does not sit in the measured process's memory.
    pub fn generate(n: usize, seed: u64, extra_ops: &[Op]) -> Inputs {
        let texts = mixed(n, seed);
        let text_bytes = texts.iter().map(|t| t.len() as u64).sum();
        let (engine, reference) = reference_engine(&texts);
        let mut ops = class_round();
        ops.extend_from_slice(extra_ops);
        let oracle = Oracle::compute(&engine, &ops);
        Inputs {
            n,
            texts,
            text_bytes,
            adds: unseen_waves(CYCLE_ADDS, ADD_DOCS, seed),
            reference,
            oracle,
        }
    }

    /// Sequential evaluation time of the four classes, summed (ms).
    pub fn reference_class_ms(&self) -> f64 {
        class_round().iter().map(|op| self.oracle.eval_ms(op)).sum()
    }

    /// Everything generated from the seed, for `inputs_fnv`.
    pub fn generated(&self) -> impl Iterator<Item = &str> {
        self.texts
            .iter()
            .chain(self.adds.iter().flatten())
            .map(String::as_str)
    }
}

/// What one build cycle measured.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    pub n: usize,
    pub generate_s: f64,
    pub ingest_s: f64,
    pub save_s: f64,
    pub open_s: f64,
    pub file_bytes: u64,
    /// First `dob` after the mmap open.
    pub first_query_ms: f64,
    /// The four classes once each after it, in class order.
    pub class_ms: [f64; 4],
    pub add_ms: Vec<f64>,
    pub tally: Tally,
}

impl Cycle {
    /// Generate + ingest + save + open: what a server pays before it can
    /// answer.
    pub fn build_s(&self) -> f64 {
        self.generate_s + self.ingest_s + self.save_s + self.open_s
    }

    pub fn ingest_ms_per_doc(&self) -> f64 {
        self.ingest_s * 1e3 / self.n as f64
    }

    pub fn query_ms_per_doc(&self) -> f64 {
        self.class_ms.iter().sum::<f64>() / self.n as f64
    }

    pub fn dob_ms(&self) -> f64 {
        self.class_ms[Class::Dob as usize]
    }
}

/// Run one cycle at `inputs`' size, leaving the snapshot at `path`. The
/// corpus is generated again from the seed (that is the set-up a user
/// pays); every query answer is checked against `inputs.oracle`.
pub fn cycle(inputs: &Inputs, seed: u64, path: &Path) -> Cycle {
    let mut c = Cycle {
        n: inputs.n,
        ..Cycle::default()
    };
    let t = Instant::now();
    let texts = mixed(inputs.n, seed);
    c.generate_s = secs(t);

    let t = Instant::now();
    let built = Koko::from_texts_with_opts(&texts, EngineOpts::default());
    c.ingest_s = secs(t);

    let t = Instant::now();
    c.file_bytes = built.save(path).expect("write the snapshot");
    c.save_s = secs(t);
    drop(built);

    let t = Instant::now();
    let koko = Koko::open(path).expect("open the snapshot just written");
    c.open_s = secs(t);

    let mut tally = Tally::default();
    let mut timed = |op: &Op| {
        let t = Instant::now();
        let out = koko.run(&op.request());
        let ms = secs(t) * 1e3;
        tally.record(out.is_ok_and(|out| inputs.oracle.accepts_rows(op, &rows_json(&out.rows))));
        ms
    };
    c.first_query_ms = timed(&Op::scan(Class::Dob));
    for (slot, op) in c.class_ms.iter_mut().zip(class_round()) {
        *slot = timed(&op);
    }

    for wave in &inputs.adds {
        let t = Instant::now();
        let report = koko.add_texts(wave);
        c.add_ms.push(secs(t) * 1e3);
        tally.record(report.added == wave.len());
    }
    c.tally = tally;
    c
}
