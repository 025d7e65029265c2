//! Public-API surface guard: every name the facade re-exports, and the
//! signatures downstream code builds against, asserted at compile time.
//! An accidental rename, removal, or signature change fails this test
//! loudly at `cargo test` time instead of silently breaking users.
//!
//! Extend this file whenever the public surface intentionally grows; do
//! not weaken it to make a refactor compile.
#![allow(clippy::type_complexity)]

// ---- Facade re-exports: every name must resolve --------------------------
#[allow(unused_imports)]
use koko::{
    baselines,
    cluster,
    core,
    corpus,
    embed,
    index,
    lang,
    nlp,
    normalize,
    parse_query,
    queries, // lang helpers
    regex,
    serve,
    storage, // crate aliases
    AddReport,
    CacheStats,
    CompactReport,
    Corpus,
    Document,
    EngineOpts,
    Error,
    Explain,
    Koko,
    LiveIndex,
    Order,
    OutValue,
    Pipeline,
    Profile,
    QueryOutput,
    QueryRequest,
    RemoteShardExplain,
    Row,
    Sentence,
    ShardExplain,
    Snapshot,
};

use std::time::Duration;

// ---- Signature pins (compile-time) ---------------------------------------
// Engine entry points.
const _QUERY: fn(&Koko, &str) -> Result<QueryOutput, Error> = Koko::query;
const _QUERY_WITH_CACHE: fn(&Koko, &str, bool) -> Result<QueryOutput, Error> =
    Koko::query_with_cache;
const _RUN: fn(&Koko, &QueryRequest) -> Result<QueryOutput, Error> = Koko::run;
const _QUERY_BATCH: fn(&Koko, &[&str]) -> Vec<Result<QueryOutput, Error>> = Koko::query_batch;
const _RUN_BATCH: fn(&Koko, &[QueryRequest]) -> Vec<Result<QueryOutput, Error>> = Koko::run_batch;
const _SAVE: fn(&Koko, &std::path::Path) -> Result<u64, Error> = Koko::save;
const _OPEN: fn(&std::path::Path) -> Result<Koko, Error> = Koko::open;
const _OPEN_WITH_OPTS: fn(&std::path::Path, EngineOpts) -> Result<Koko, Error> =
    Koko::open_with_opts;
const _CACHE_STATS: fn(&Koko) -> CacheStats = Koko::cache_stats;
const _COMPACT: fn(&Koko) -> CompactReport = Koko::compact;

// Snapshot persistence: the mmap fast path and the fallible accessors it
// introduces (panicking `corpus()`/`shards()` remain for eager callers).
const _SNAP_OPEN_MMAP: fn(&std::path::Path) -> Result<Snapshot, Error> = Snapshot::open_mmap;
const _SNAP_LOAD: fn(&std::path::Path, bool) -> Result<Snapshot, Error> = Snapshot::load;
const _SNAP_TRY_CORPUS: fn(&Snapshot) -> Result<&Corpus, storage::SnapshotFileError> =
    Snapshot::try_corpus;
const _SNAP_TRY_SHARDS: fn(
    &Snapshot,
) -> Result<&[std::sync::Arc<index::Shard>], storage::SnapshotFileError> = Snapshot::try_shards;

// Whole-article decode: corpus rebuilds, compaction, `koko_bench`'s storage
// probe. Queries read articles through `Shard::article` (see
// `article_view_surface_is_stable`).
const _SHARD_LOAD_DOCUMENT: fn(&index::Shard, u32) -> Result<Document, storage::DecodeError> =
    index::Shard::load_document;
const _SNAP_LOAD_DOCUMENT: fn(&Snapshot, u32) -> Result<Document, storage::DecodeError> =
    Snapshot::load_document;

// QueryRequest builder: every method, chained the way user code writes it.
const _REQ_RUN: fn(&QueryRequest, &Koko) -> Result<QueryOutput, Error> = QueryRequest::run;
const _REQ_TEXT: fn(&QueryRequest) -> &str = QueryRequest::text;

// Serve layer.
const _WIRE_QUERY: fn(&mut serve::Client, &str, bool, serve::QueryOpts) -> std::io::Result<String> =
    serve::Client::query_with_opts;
const _WIRE_QUERY_AS: fn(
    &mut serve::Client,
    &str,
    bool,
    Option<serve::QueryOpts>,
    Option<&str>,
) -> std::io::Result<String> = serve::Client::query_as;
const _WIRE_QUERY_STREAM: fn(
    &mut serve::Client,
    &str,
    bool,
    serve::QueryOpts,
    Option<&str>,
) -> std::io::Result<serve::StreamedResponse> = serve::Client::query_stream;
const _OPEN_LOOP: fn(
    &str,
    &[String],
    usize,
    usize,
    f64,
    bool,
    Option<serve::QueryOpts>,
    Option<&str>,
) -> std::io::Result<serve::OpenLoadReport> = serve::run_load_open;

#[test]
fn query_request_builder_chains_every_option() {
    let req = QueryRequest::new("extract x:Entity from t if ()")
        .limit(10)
        .offset(5)
        .min_score(0.5)
        .order(Order::ScoreDesc)
        .deadline(Duration::from_millis(50))
        .cache(false)
        .explain(true);
    assert_eq!(req.text(), "extract x:Entity from t if ()");
    // Both orders exist and default is DocOrder.
    assert_eq!(Order::default(), Order::DocOrder);
    let _ = Order::ScoreDesc;
}

#[test]
fn query_output_carries_the_documented_fields() {
    let out = QueryOutput::default();
    let _rows: &Vec<Row> = &out.rows;
    let _total: usize = out.total_matches;
    let _truncated: bool = out.truncated;
    let _explain: &Option<Explain> = &out.explain;
    let _profile: &Profile = &out.profile;
    // Explain shape.
    let e = Explain::default();
    let _plans: &Vec<String> = &e.plans;
    let _shards: &Vec<ShardExplain> = &e.shards;
    // Cluster execution: one entry per remote worker (always empty for
    // single-node runs), plus the health summaries built on them.
    let _remote: &Vec<RemoteShardExplain> = &e.remote_shards;
    let _ = (e.healthy_workers(), e.failed_workers());
    let r = RemoteShardExplain::default();
    let _: (&String, &String) = (&r.worker, &r.addr);
    let _: (u32, u32) = (r.doc_base, r.docs);
    let _: (usize, f64, usize) = (r.rows, r.rtt_ms, r.retries);
    let _: &Option<String> = &r.error;
    let _ = e.total_candidates();
    let _ = e.early_terminated();
    // Per-shard ranked top-k counters.
    let s = ShardExplain::default();
    let _bound: f64 = s.score_bound;
    let _floor: Option<f64> = s.heap_floor;
    let _skipped: usize = s.bound_skipped_docs;
    // Block-max refinement + streamed-intersection counters.
    let _block_skipped: usize = s.block_bound_skipped_docs;
    let _probes: usize = s.probes;
    // Sentence-granular LoadArticle.
    let _decoded: usize = s.sentences_decoded;
}

#[test]
fn article_view_surface_is_stable() {
    use storage::{ArticleView, DecodeError, SentenceCursor};
    // Sentence-granular LoadArticle: a shard hands out a borrowed view of
    // one stored article; a forward cursor decodes the sentences asked for
    // and steps over the rest; the whole article stays one call away.
    let koko = Koko::from_texts(&["Anna ate cake. The cafe was busy."]);
    let snapshot = koko.snapshot();
    let shard: &index::Shard = &snapshot.shards()[0];
    let view: ArticleView<'_> = shard.article(0).unwrap();
    let _: ArticleView<'_> = shard.store().view(0).unwrap();
    let blob: &[u8] = shard.store().blob_bytes(0).unwrap();
    let _: Result<ArticleView<'_>, DecodeError> = ArticleView::new(blob);
    let _: (u32, u32) = (view.id(), view.num_sentences());
    let _: Result<Sentence, DecodeError> = view.sentence(1);
    let _: Result<Document, DecodeError> = view.document();
    let mut cursor: SentenceCursor<'_> = view.cursor();
    let _: Result<Sentence, DecodeError> = cursor.decode(0);
    let _: u32 = cursor.position();
    let _: Result<(), DecodeError> = cursor.finish();
}

#[test]
fn engine_opts_carry_the_eager_load_switch() {
    // `eager_load` selects up-front materialization over the mmap open;
    // it can never change results, only when decode costs are paid.
    let opts = EngineOpts {
        eager_load: true,
        ..EngineOpts::default()
    };
    assert!(opts.eager_load);
    assert!(!EngineOpts::default().eager_load, "mmap is the default");
}

#[test]
fn snapshot_file_errors_cover_the_hostile_input_taxonomy() {
    use koko::storage::SnapshotFileError;
    // Every structured rejection a `.koko` open can produce; matching on
    // these is part of the public contract (docs/SNAPSHOTS.md).
    for e in [
        SnapshotFileError::Io {
            path: "x".into(),
            error: "e".into(),
        },
        SnapshotFileError::NotASnapshot { path: "x".into() },
        SnapshotFileError::WrongVersion {
            path: "x".into(),
            found: 9,
        },
        SnapshotFileError::Truncated {
            path: "x".into(),
            expected: 2,
            found: 1,
        },
        SnapshotFileError::TooLarge {
            path: "x".into(),
            declared: u64::MAX,
        },
        SnapshotFileError::ChecksumMismatch { path: "x".into() },
        SnapshotFileError::Corrupt {
            path: "x".into(),
            detail: "d".into(),
        },
    ] {
        assert!(e.to_string().contains('x'), "{e}: names the file");
    }
}

#[test]
fn error_has_the_structured_deadline_variant() {
    let e = Error::DeadlineExceeded {
        budget: Duration::from_millis(1),
        elapsed: Duration::from_millis(2),
    };
    let rendered = e.to_string();
    assert!(rendered.contains("deadline exceeded"), "{rendered}");
}

#[test]
fn profile_exposes_the_pruning_counters() {
    let p = Profile::default();
    let _ = (
        p.docs_skipped,
        p.candidates_skipped,
        p.min_score_pruned,
        p.bound_skipped_docs,
        p.block_bound_skipped_docs,
        p.gallop_probes,
    );
    let _ = (
        p.candidate_sentences,
        p.sentences_decoded,
        p.delta_candidates,
        p.raw_tuples,
        p.compiled_cache_hits,
        p.compiled_cache_misses,
        p.result_cache_hits,
        p.result_cache_misses,
    );
    // Coordinator fan-out accounting (zero on single-node executions;
    // deliberately excluded from `Profile::total()` — the six Table 2
    // stage columns stay comparable across topologies).
    let _: usize = p.remote_shards;
    let _: Duration = p.remote_wait;
}

#[test]
fn cluster_surface_is_stable() {
    use koko::cluster::{Coordinator, CoordinatorConfig, Mode, ShardMap, WorkerEntry};
    // Shard-map format + topology helpers.
    let map = ShardMap::split_even(8, &["a:1".into(), "b:2".into()], Mode::Partial);
    assert_eq!(map.workers.len(), 2);
    assert_eq!(map.total_docs(), 8);
    map.validate().unwrap();
    let round = ShardMap::parse(&map.to_json()).unwrap();
    assert_eq!(round, map);
    let w = WorkerEntry {
        name: "w0".into(),
        addr: "h:1".into(),
        replicas: vec!["h:2".into()],
        doc_base: 0,
        docs: 4,
        sid_base: 0,
        snapshot: None,
    };
    assert_eq!(w.endpoints(), vec!["h:1".to_string(), "h:2".to_string()]);
    let _ = (Mode::Strict.as_str(), Mode::Partial.as_str());
    // Coordinator entry points.
    let _bind: fn(ShardMap, &str, CoordinatorConfig) -> std::io::Result<Coordinator> =
        Coordinator::bind;
    let config = CoordinatorConfig::default();
    let _: Duration = config.default_deadline;
    let _: Duration = config.write_deadline;
    // Fan-out failure taxonomy is public: coordinator explain strings
    // are built from it.
    let _ = cluster::WorkerError::Timeout.wire();
}

#[test]
fn serve_client_retry_surface_is_stable() {
    use koko::serve::{is_transient, Client, RetryPolicy, ServeError};
    let policy = RetryPolicy::default();
    assert!(policy.attempts >= 1);
    let _connect: fn(&str, RetryPolicy) -> Result<Client, ServeError> = Client::connect_with_retry;
    assert!(is_transient(&std::io::Error::from(
        std::io::ErrorKind::ConnectionRefused
    )));
    let unavailable = ServeError::Unavailable {
        addr: "h:1".into(),
        attempts: 3,
        last: std::io::Error::from(std::io::ErrorKind::ConnectionReset),
    };
    let rendered = unavailable.to_string();
    assert!(
        rendered.contains("h:1") && rendered.contains('3'),
        "{rendered}"
    );
    let _: std::io::Error = unavailable.into();
}

#[test]
fn wire_opts_surface_is_stable() {
    let opts = serve::QueryOpts {
        limit: Some(1),
        offset: Some(2),
        min_score: Some(0.5),
        order: Some(serve::WireOrder::ScoreDesc),
        deadline_ms: Some(100),
        explain: true,
        stream: false,
    };
    assert!(!opts.is_default());
    let req = opts.to_request("q", true);
    assert_eq!(req.text(), "q");
}

#[test]
fn tenant_admission_surface_is_stable() {
    use koko::core::{Admission, AdmissionState, TenantPolicy, TenantTable};
    let mut table = TenantTable::new();
    table
        .insert_spec("alice:10:5:8:2")
        .expect("spec must parse");
    table.set_default(TenantPolicy::default());
    let policy = TenantPolicy::parse("1:1:1:1:250").expect("cap form must parse");
    assert_eq!(policy.deadline_cap, Some(Duration::from_millis(250)));
    let mut adm = AdmissionState::new(table);
    assert!(adm.enabled());
    assert!(matches!(adm.admit(Some("alice"), 0.0), Admission::Dispatch));
    adm.on_complete(Some("alice"));
    // Server-side config for the event-loop server.
    let config = serve::ServerConfig::default();
    let _ = (
        config.threads,
        config.writable,
        config.max_connections,
        config.write_buffer_cap,
        config.pipeline_depth,
        config.drain_timeout,
    );
}
