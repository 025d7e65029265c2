//! The KOKO engine: Figure 2's full workflow — preprocessing (parse text &
//! build per-shard indices), then per query: Normalize → per-shard
//! {DPLI → LoadArticle → GSP/extract} → merge → Aggregate.
//!
//! The engine is split into immutable [`Snapshot`] generations published
//! through a [`LiveIndex`] (shards + embeddings, `Send + Sync`, shared by
//! `Arc`) and a stateless executor ([`execute_query`]). [`Koko`] is the
//! user-facing façade tying one live index to one [`EngineOpts`]; clones
//! share the live index, so an [`Koko::add_texts`] on any clone is
//! visible to queries on every other. The per-shard stage fans out over
//! worker threads when `opts.parallel` is set; partial results and
//! [`Profile`] timers merge deterministically, so sharded output is
//! byte-identical (rows, order, scores) to the single-shard sequential
//! evaluator — and, because results are shard-layout independent, a
//! corpus ingested incrementally (any split, compacted or not) answers
//! byte-identically to a one-shot batch build.

use crate::aggregate::{consults_document, AggOpts, Aggregator, DocEvidence, ShardScoreBound};
use crate::article::Article;
use crate::binder::{bind_domains, CompiledQuery, SentCtx};
use crate::cache::{CacheStats, CachedCompile, CachedResult, QueryCaches};
use crate::error::Error;
use crate::live::LiveIndex;
use crate::profile::Profile;
use crate::request::{Explain, Order, QueryRequest, ShardExplain};
use crate::snapshot::Snapshot;
use crate::{dpli, gsp};
use koko_embed::Embeddings;
use koko_lang::{normalize, parse_query, NVarKind, Query};
use koko_nlp::Sid;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineOpts {
    /// Use the Generate-Skip-Plan evaluator (§4.3). `false` selects the
    /// naive nested-loop evaluator (`KOKO&NOGSP`, Table 1).
    pub use_gsp: bool,
    /// Load candidate articles from the document store (paying the real
    /// `LoadArticle` decode cost of Table 2, for the candidate sentences
    /// and for whatever else of the article a clause asks to see) instead
    /// of borrowing the in-memory corpus.
    pub store_backed: bool,
    /// Expand descriptors with paraphrase embeddings (Figure 5 ablation).
    pub use_descriptors: bool,
    /// Threshold for satisfying clauses that omit `with threshold`.
    pub default_threshold: f64,
    /// Descriptor expansion cap and per-word similarity floor.
    pub expansion_k: usize,
    pub expansion_min_sim: f64,
    /// Number of index/storage shards to partition the corpus into.
    /// `0` (the default) means one shard per available core. Results are
    /// independent of the shard count; only parallelism changes.
    pub num_shards: usize,
    /// Run ingest, shard builds, the per-shard query stage, and
    /// `query_batch` on worker threads. `false` forces fully sequential
    /// execution regardless of the shard count.
    pub parallel: bool,
    /// Cache parse → normalize → compile per distinct query text, so
    /// repeat traffic skips the whole front end. On by default;
    /// compilation is deterministic so this never changes results.
    pub compiled_cache: bool,
    /// Capacity of the bounded LRU result cache, in entries. `0` (the
    /// default) disables it. A hit serves the previously computed rows and
    /// skips DPLI / LoadArticle / GSP / extract / aggregation entirely;
    /// hits and misses are reported in [`Profile`]. The cache key includes
    /// the normalized query and every result-relevant option, so cached
    /// rows are always byte-identical to a fresh evaluation.
    pub result_cache: usize,
    /// Force [`Koko::open`] to fully materialize the snapshot up front
    /// (decode every shard + rebuild the corpus) instead of memory-mapping
    /// it and decoding shards on first touch. Off by default: the lazy
    /// open is O(sections) regardless of corpus size, and answers are
    /// byte-identical either way. Write paths (`koko add`, writable
    /// serving) force this on so corruption surfaces at open, not behind
    /// the infallible write APIs. Never part of the result fingerprint —
    /// it cannot change results, only when decode costs are paid.
    pub eager_load: bool,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            use_gsp: true,
            store_backed: true,
            use_descriptors: true,
            default_threshold: 0.5,
            expansion_k: 120,
            expansion_min_sim: 0.55,
            num_shards: 0,
            parallel: true,
            compiled_cache: true,
            result_cache: 0,
            eager_load: false,
        }
    }
}

impl EngineOpts {
    /// The subset of options that can change query *results* (as opposed
    /// to wall-clock), rendered canonically — part of the result-cache key
    /// so mutating `koko.opts` between queries can never serve stale rows.
    fn result_fingerprint(&self) -> String {
        format!(
            "gsp={},store={},desc={},thr={},k={},sim={}",
            self.use_gsp,
            self.store_backed,
            self.use_descriptors,
            self.default_threshold,
            self.expansion_k,
            self.expansion_min_sim,
        )
    }
}

/// One output value in a result row.
#[derive(Debug, Clone, PartialEq)]
pub struct OutValue {
    pub name: String,
    pub text: String,
    pub sid: Sid,
    /// Half-open token span within the sentence.
    pub start: u32,
    pub end: u32,
}

/// One result tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Document index in the corpus.
    pub doc: u32,
    pub values: Vec<OutValue>,
    /// Aggregated satisfying-clause score of the row's first scored
    /// variable (1.0 when the query has no satisfying clause).
    pub score: f64,
}

/// Query result: the (possibly windowed) rows, totals describing what the
/// window was cut from, the optional [`Explain`] report, and the
/// per-stage profile.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Result rows, in the requested [`Order`]. For a plain
    /// [`Koko::query`] this is every match; a [`QueryRequest`] with
    /// `limit`/`offset` returns the corresponding window.
    pub rows: Vec<Row>,
    /// Matching rows known to exist (after `min_score`, before the
    /// `limit`/`offset` window). Exact when no top-k early termination
    /// stopped the scan (always, for unlimited requests); a lower bound
    /// otherwise.
    pub total_matches: usize,
    /// `true` when matches may exist *beyond the end* of the returned
    /// window — the limit cut them off, or early termination stopped
    /// before the corpus was exhausted. Rows skipped by `offset` do not
    /// count (they were requested away), so paging forward until
    /// `truncated` is `false` visits every match exactly once. Always
    /// `false` for an unlimited, un-offset request.
    pub truncated: bool,
    /// The explain report, present iff the request asked for one
    /// ([`QueryRequest::explain`](crate::QueryRequest::explain)).
    pub explain: Option<Explain>,
    /// Per-stage timers and counters.
    pub profile: Profile,
}

impl QueryOutput {
    /// Distinct values of one output variable (case-preserving, first
    /// occurrence wins), e.g. the extracted cafe names.
    pub fn distinct(&self, var: &str) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for row in &self.rows {
            for v in &row.values {
                if v.name == var && seen.insert(v.text.to_lowercase()) {
                    out.push(v.text.clone());
                }
            }
        }
        out
    }

    /// Distinct `(doc, value)` pairs for one variable — the unit the
    /// extraction experiments score against ground truth.
    pub fn doc_values(&self, var: &str) -> Vec<(u32, String)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for row in &self.rows {
            for v in &row.values {
                if v.name == var {
                    let key = (row.doc, v.text.to_lowercase());
                    if seen.insert(key.clone()) {
                        out.push((row.doc, v.text.clone()));
                    }
                }
            }
        }
        out
    }
}

/// What one [`Koko::add_texts`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddReport {
    /// Documents ingested by this call.
    pub added: usize,
    /// Total documents in the published snapshot.
    pub documents: usize,
    /// Epoch of the published snapshot (unchanged if `added == 0`).
    pub epoch: u64,
    /// Generation of the published snapshot (adds never change it).
    pub generation: u64,
    /// Delta shards currently awaiting compaction.
    pub delta_shards: usize,
    /// Documents living in those delta shards.
    pub delta_documents: usize,
}

/// What one [`Koko::compact`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Delta shards merged into the base (0 = the call was a no-op).
    pub merged_deltas: usize,
    /// Base shards after compaction.
    pub shards: usize,
    /// Epoch of the published snapshot (unchanged on a no-op).
    pub epoch: u64,
    /// Generation of the published snapshot (+1 unless a no-op).
    pub generation: u64,
}

/// The KOKO system: a [`LiveIndex`] of immutable [`Snapshot`] generations
/// plus the options queries run with. Cheap to clone; clones share the
/// live index and the caches, so updates and cache hits propagate across
/// every clone (server worker threads rely on this).
#[derive(Clone)]
pub struct Koko {
    live: Arc<LiveIndex>,
    /// Query caches (compiled + results). Shared by every clone, so server
    /// worker threads pool their hits; replaced wholesale when options or
    /// embeddings change. Live updates do *not* replace it: the result
    /// cache is epoch-keyed, so publishing a new snapshot strands the old
    /// epoch's rows (they age out of the LRU) while compiled queries
    /// survive.
    caches: Arc<QueryCaches>,
    pub opts: EngineOpts,
}

impl Koko {
    /// Parse raw documents (concurrently, when the default options allow)
    /// and build every shard index — Figure 2's preprocessing box.
    ///
    /// ```
    /// use koko_core::Koko;
    ///
    /// let koko = Koko::from_texts(&["Anna ate cake.", "The cafe was busy."]);
    /// assert_eq!(koko.num_documents(), 2);
    /// ```
    pub fn from_texts<S: AsRef<str> + Sync>(texts: &[S]) -> Koko {
        Koko::from_texts_with_opts(texts, EngineOpts::default())
    }

    /// [`Koko::from_texts`] with explicit options (parallelism and shard
    /// count take effect during ingest, not just at query time).
    pub fn from_texts_with_opts<S: AsRef<str> + Sync>(texts: &[S], opts: EngineOpts) -> Koko {
        let pipeline = koko_nlp::Pipeline::new();
        let corpus = if opts.parallel {
            pipeline.parse_corpus_parallel(texts, 0)
        } else {
            pipeline.parse_corpus(texts)
        };
        Koko::from_corpus_with_opts(corpus, opts)
    }

    /// Build from an already parsed corpus with default options.
    pub fn from_corpus(corpus: koko_nlp::Corpus) -> Koko {
        Koko::from_corpus_with_opts(corpus, EngineOpts::default())
    }

    /// Build from an already parsed corpus with explicit options.
    pub fn from_corpus_with_opts(corpus: koko_nlp::Corpus, opts: EngineOpts) -> Koko {
        Koko::from_snapshot(
            Snapshot::build(corpus, opts.num_shards, opts.parallel),
            opts,
        )
    }

    /// Wrap an existing snapshot (e.g. one returned by [`Snapshot::load`])
    /// without rebuilding anything. The snapshot's shard layout wins:
    /// `opts.num_shards` is ignored here, unlike [`Koko::with_opts`].
    pub fn from_snapshot(snapshot: Snapshot, opts: EngineOpts) -> Koko {
        Koko {
            live: Arc::new(LiveIndex::new(snapshot)),
            caches: Arc::new(QueryCaches::new(opts.compiled_cache, opts.result_cache)),
            opts,
        }
    }

    /// Persist the engine's current snapshot to a `.koko` file — the
    /// "build" half of the build-once / query-many workflow. Returns the
    /// file size in bytes. Snapshots saved after incremental adds keep
    /// their generation and base/delta split, and reload to answer
    /// identically.
    pub fn save(&self, path: &std::path::Path) -> Result<u64, Error> {
        self.snapshot().save(path, self.opts.parallel)
    }

    /// Open a `.koko` snapshot file with default options — the "query"
    /// half of the build-once / query-many workflow. Queries against the
    /// loaded engine return byte-identical rows to an engine freshly built
    /// from the same text.
    ///
    /// ```
    /// use koko_core::Koko;
    ///
    /// let built = Koko::from_texts(&["Anna ate some delicious cheesecake."]);
    /// let path = std::env::temp_dir().join("doctest_open.koko");
    /// built.save(&path).unwrap();
    ///
    /// let loaded = Koko::open(&path).unwrap();
    /// let q = koko_lang::queries::EXAMPLE_2_1;
    /// assert_eq!(loaded.query(q).unwrap().rows, built.query(q).unwrap().rows);
    /// # std::fs::remove_file(&path).ok();
    /// ```
    pub fn open(path: &std::path::Path) -> Result<Koko, Error> {
        Koko::open_with_opts(path, EngineOpts::default())
    }

    /// [`Koko::open`] with explicit options. The shard layout is read from
    /// the file (`opts.num_shards` does not trigger a rebuild); `parallel`
    /// gates both the load fan-out and later query execution.
    ///
    /// By default snapshots are memory-mapped ([`Snapshot::open_mmap`]):
    /// the open validates the header + section table and returns in
    /// O(sections), and shards decode out of the mapping on first query
    /// touch. `opts.eager_load` forces full up-front materialization
    /// ([`Snapshot::load`]). Either way a file of any format version but
    /// the current one is refused with `SnapshotFileError::WrongVersion`.
    pub fn open_with_opts(path: &std::path::Path, opts: EngineOpts) -> Result<Koko, Error> {
        let snap = if opts.eager_load {
            Snapshot::load(path, opts.parallel)?
        } else {
            Snapshot::open_mmap(path)?
        };
        Ok(Koko::from_snapshot(snap, opts))
    }

    /// Replace the embedding model (e.g. with a domain ontology merged in).
    /// The returned engine publishes through a fresh live index, so
    /// existing clones keep their embeddings; caches reset because new
    /// embeddings can change descriptor scores.
    pub fn with_embeddings(self, embed: Embeddings) -> Koko {
        Koko {
            live: Arc::new(LiveIndex::new(self.snapshot().with_embeddings(embed))),
            caches: Arc::new(QueryCaches::new(
                self.opts.compiled_cache,
                self.opts.result_cache,
            )),
            opts: self.opts,
        }
    }

    /// Replace the options. If the requested shard count differs from the
    /// current base layout, the shards are rebuilt (compacting any deltas
    /// along the way); embeddings carry over. Like
    /// [`Koko::with_embeddings`], the returned engine has its own live
    /// index and fresh caches.
    pub fn with_opts(self, opts: EngineOpts) -> Koko {
        let snap = self.snapshot();
        let want = koko_par::resolve_threads(opts.num_shards, snap.num_documents());
        let live = if want != snap.num_base_shards() || snap.num_delta_shards() > 0 {
            LiveIndex::new(snap.compacted(opts.num_shards, opts.parallel))
        } else {
            // Layout already matches: the new live index republishes the
            // pinned snapshot as-is (shared, same epoch — safe because
            // the caches below are fresh).
            LiveIndex::new(snap)
        };
        Koko {
            live: Arc::new(live),
            caches: Arc::new(QueryCaches::new(opts.compiled_cache, opts.result_cache)),
            opts,
        }
    }

    /// Parse `texts` through the full NLP pipeline and publish them as new
    /// documents — incremental ingest. The documents join the index as an
    /// append-only delta shard (or extend the open one); concurrent
    /// queries keep reading the snapshot they started on and observe the
    /// new epoch on their next call. Writers serialize; readers are never
    /// blocked beyond the publication pointer swap.
    ///
    /// Equivalence guarantee: however a corpus is split across
    /// `add_texts` calls — compacted or not — every query answers
    /// byte-identically (rows, order, scores) to a one-shot
    /// [`Koko::from_texts`] build of the concatenated corpus.
    ///
    /// ```
    /// use koko_core::Koko;
    ///
    /// let koko = Koko::from_texts(&["Anna ate cake."]);
    /// let report = koko.add_texts(&["The cafe was busy."]);
    /// assert_eq!(report.added, 1);
    /// assert_eq!(koko.num_documents(), 2);
    /// ```
    pub fn add_texts<S: AsRef<str> + Sync>(&self, texts: &[S]) -> AddReport {
        let guard = self.live.write_lock();
        let snap = self.live.current();
        let first = snap.num_documents() as u32;
        let threads = if self.opts.parallel { 0 } else { 1 };
        let docs = koko_nlp::Pipeline::new().parse_documents(texts, first, threads);
        let added = docs.len();
        let published = if added == 0 {
            snap
        } else {
            guard.publish(snap.with_added_documents(docs))
        };
        drop(guard);
        AddReport {
            added,
            documents: published.num_documents(),
            epoch: published.epoch(),
            generation: published.generation(),
            delta_shards: published.num_delta_shards(),
            delta_documents: published.num_delta_documents(),
        }
    }

    /// Merge every delta shard into balanced base shards (a full shard
    /// rebuild via `plan_shards`) and publish the result. A no-op when no
    /// deltas exist. Readers mid-query are unaffected; the compacted
    /// layout is exactly what a batch build of the current corpus with
    /// the same shard count produces.
    pub fn compact(&self) -> CompactReport {
        let guard = self.live.write_lock();
        let snap = self.live.current();
        let merged_deltas = snap.num_delta_shards();
        // With `num_shards` unset (0 = auto), preserve the snapshot's own
        // base layout rather than re-sharding to the machine's core count
        // — compacting a loaded 2-shard snapshot must not silently turn
        // it into an N-shard one ("snapshots keep their layout").
        let target_shards = if self.opts.num_shards == 0 {
            snap.num_base_shards()
        } else {
            self.opts.num_shards
        };
        let published = if merged_deltas == 0 {
            snap
        } else {
            guard.publish(snap.compacted(target_shards, self.opts.parallel))
        };
        drop(guard);
        CompactReport {
            merged_deltas,
            shards: published.num_shards(),
            epoch: published.epoch(),
            generation: published.generation(),
        }
    }

    /// The currently published snapshot (shards + embeddings). The
    /// returned `Arc` pins that generation: it stays valid and immutable
    /// across concurrent [`Koko::add_texts`] / [`Koko::compact`] calls,
    /// which publish successors instead of mutating it.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.live.current()
    }

    /// Epoch of the currently published snapshot (changes on every
    /// successful update; result-cache entries are keyed by it).
    pub fn epoch(&self) -> u64 {
        self.live.epoch()
    }

    /// Generation of the currently published snapshot (base rebuilds).
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// Documents in the currently published snapshot (router-derived — no
    /// shard or corpus materialization).
    pub fn num_documents(&self) -> usize {
        self.snapshot().num_documents()
    }

    /// Shards (base + delta) in the currently published snapshot.
    pub fn num_shards(&self) -> usize {
        self.snapshot().num_shards()
    }

    /// Delta shards awaiting compaction in the current snapshot.
    pub fn num_delta_shards(&self) -> usize {
        self.snapshot().num_delta_shards()
    }

    /// Parse, normalize and evaluate a KOKO query (see
    /// `docs/QUERYLANG.md` for the language).
    ///
    /// ```
    /// use koko_core::Koko;
    ///
    /// let koko = Koko::from_texts(&["Anna ate some delicious cheesecake."]);
    /// let out = koko.query(koko_lang::queries::EXAMPLE_2_1).unwrap();
    /// assert_eq!(out.rows[0].values[0].text, "cheesecake");
    /// ```
    /// Equivalent to `QueryRequest::new(text).run(self)` — a thin wrapper
    /// over the [`QueryRequest`] path kept for the common case. Reach for
    /// the builder when you need `limit`/`offset`, a score floor, a
    /// deadline, an explain report, or per-call cache control.
    pub fn query(&self, text: &str) -> Result<QueryOutput, Error> {
        self.run_request(&QueryRequest::new(text), self.opts.parallel)
    }

    /// [`Koko::query`] with an explicit cache switch: `use_cache = false`
    /// bypasses both the compiled-query cache and the result cache for
    /// this call only (the caches are neither read nor written, and no
    /// hit/miss is counted). Results are byte-identical either way.
    ///
    /// Equivalent to `QueryRequest::new(text).cache(use_cache).run(self)`
    /// — prefer the [`QueryRequest`] builder, which composes the switch
    /// with every other per-request option.
    pub fn query_with_cache(&self, text: &str, use_cache: bool) -> Result<QueryOutput, Error> {
        self.run_request(
            &QueryRequest::new(text).cache(use_cache),
            self.opts.parallel,
        )
    }

    /// Evaluate one [`QueryRequest`] — the single execution entry path
    /// (every other query API delegates here).
    pub fn run(&self, request: &QueryRequest) -> Result<QueryOutput, Error> {
        self.run_request(request, self.opts.parallel)
    }

    /// Evaluate an already parsed query (`t0` anchors the Normalize
    /// timer). Bypasses both caches — callers holding an AST have already
    /// paid the front-end cost, and the raw-text key is gone.
    pub fn query_ast(&self, parsed: &Query, t0: std::time::Instant) -> Result<QueryOutput, Error> {
        let snap = self.live.current();
        execute_query(&snap, &self.opts, parsed, t0, self.opts.parallel)
    }

    /// Cumulative cache hit/miss counters across all clones of this
    /// engine (server workers share them).
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.stats()
    }

    /// The full request path with both caches: compiled-query lookup (or
    /// front-end run + fill), then result-cache lookup (or evaluation +
    /// fill). `shard_parallel` gates the per-shard fan-out.
    ///
    /// Result-cache contract: only *complete* results (nothing windowed
    /// off, nothing early-terminated) are stored, keyed by normalized
    /// query + result-relevant engine options + the request's `min_score`
    /// and `order`. A hit can therefore serve **any** narrower
    /// `limit`/`offset` slice of the cached rows without re-evaluating.
    fn run_request(
        &self,
        request: &QueryRequest,
        shard_parallel: bool,
    ) -> Result<QueryOutput, Error> {
        let t0 = std::time::Instant::now();
        let text = request.text.as_str();
        let use_cache = request.cache;
        // Pin the current generation: the whole query — including the
        // result-cache key — runs against this one snapshot, so a
        // concurrent add/compact can neither tear the read nor leak rows
        // across epochs.
        let snap = self.live.current();

        // ---- Front end: compiled-query cache ---------------------------
        let use_compiled = use_cache && self.opts.compiled_cache;
        let mut compiled_hit = false;
        let compiled: Arc<CachedCompile> = match use_compiled
            .then(|| self.caches.get_compiled(text))
            .flatten()
        {
            Some(hit) => {
                compiled_hit = true;
                hit
            }
            None => {
                let parsed = parse_query(text)?;
                let norm = normalize(&parsed)?;
                let cq = CompiledQuery::compile(norm)?;
                let norm_key = format!("{:?}", cq.norm);
                let entry = Arc::new(CachedCompile { cq, norm_key });
                if use_compiled {
                    self.caches.store_compiled(text, Arc::clone(&entry));
                }
                entry
            }
        };
        let normalize_time = t0.elapsed();
        let count_compiled = |profile: &mut Profile| {
            if use_compiled {
                profile.compiled_cache_hits = usize::from(compiled_hit);
                profile.compiled_cache_misses = usize::from(!compiled_hit);
            }
        };

        // ---- Result cache (epoch-keyed) --------------------------------
        // The snapshot epoch leads the key: any published update (adds,
        // compaction, new embeddings) strands every older entry, and two
        // engines sharing one cache can never serve each other's rows.
        // `min_score` and `order` change the row set / sequence, so they
        // join the key; `limit`/`offset` do not — cached entries hold the
        // complete result and any window is sliced from them on a hit.
        // Explain reports require a real evaluation, so explain requests
        // leave the result cache alone entirely.
        let use_results = use_cache && !request.explain && self.caches.results_enabled();
        let result_key = if use_results {
            format!(
                "e{}|{}|ms={:?}|ord={:?}|{}",
                snap.epoch(),
                self.opts.result_fingerprint(),
                request.min_score,
                request.order,
                compiled.norm_key
            )
        } else {
            String::new()
        };
        if use_results {
            if let Some(hit) = self.caches.get_result(&result_key) {
                // Every evaluation stage is skipped: only the front-end
                // timer and the counters of the producing run survive.
                let mut profile = Profile {
                    normalize: normalize_time,
                    candidate_sentences: hit.candidate_sentences,
                    delta_candidates: hit.delta_candidates,
                    raw_tuples: hit.raw_tuples,
                    result_cache_hits: 1,
                    ..Profile::default()
                };
                count_compiled(&mut profile);
                let full = hit.rows.as_ref();
                let start = request.offset.min(full.len());
                let end = match request.limit {
                    Some(k) => start.saturating_add(k).min(full.len()),
                    None => full.len(),
                };
                return Ok(QueryOutput {
                    rows: full[start..end].to_vec(),
                    total_matches: full.len(),
                    truncated: end < full.len(),
                    explain: None,
                    profile,
                });
            }
        }

        // ---- Evaluate --------------------------------------------------
        let exec = ExecParams {
            limit: request.limit,
            offset: request.offset,
            min_score: request.min_score,
            order: request.order,
            deadline: request.deadline.map(|budget| (t0, budget)),
            explain: request.explain,
        };
        let mut out = execute_request(
            &snap,
            &self.opts,
            &compiled.cq,
            normalize_time,
            shard_parallel,
            &exec,
        )?;
        count_compiled(&mut out.profile);
        if use_results {
            out.profile.result_cache_misses = 1;
            // Only complete results are cacheable: a windowed or
            // early-terminated run does not hold the rows it skipped, so
            // serving a wider request from it would drop matches.
            if !out.truncated && out.rows.len() == out.total_matches {
                self.caches.store_result(
                    result_key,
                    CachedResult {
                        rows: Arc::new(out.rows.clone()),
                        candidate_sentences: out.profile.candidate_sentences,
                        delta_candidates: out.profile.delta_candidates,
                        raw_tuples: out.profile.raw_tuples,
                    },
                );
            }
        }
        Ok(out)
    }

    /// Evaluate many queries against the shared snapshot — equivalent to
    /// [`Koko::run_batch`] over default [`QueryRequest`]s. Build the
    /// requests yourself when the batch needs per-query options.
    pub fn query_batch(&self, queries: &[&str]) -> Vec<Result<QueryOutput, Error>> {
        let requests: Vec<QueryRequest> = queries.iter().map(|q| QueryRequest::new(*q)).collect();
        self.run_batch(&requests)
    }

    /// Evaluate many [`QueryRequest`]s against the shared snapshot. With
    /// `opts.parallel` the requests fan out over worker threads (each one
    /// then runs its shard stage sequentially, so thread usage stays
    /// bounded by the batch width); results keep input order and are
    /// identical to calling [`Koko::run`] per request. The batch goes
    /// through the same caches as single queries.
    pub fn run_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryOutput, Error>> {
        // Shard-stage parallelism off: the batch is the fan-out unit.
        if self.opts.parallel && requests.len() > 1 {
            koko_par::par_map(requests, 0, |_, request| self.run_request(request, false))
        } else {
            requests
                .iter()
                .map(|request| self.run_request(request, false))
                .collect()
        }
    }
}

/// Internal per-request execution parameters, derived from a
/// [`QueryRequest`] (or defaulted for the legacy entry points).
#[derive(Debug, Clone, Copy)]
struct ExecParams {
    limit: Option<usize>,
    offset: usize,
    min_score: Option<f64>,
    order: Order,
    /// Query start + wall-clock budget; checked between pipeline stages
    /// and at document boundaries.
    deadline: Option<(std::time::Instant, std::time::Duration)>,
    explain: bool,
}

impl ExecParams {
    /// Today's `Koko::query` semantics: everything, in `DocOrder`, no
    /// deadline, no explain.
    fn unrestricted() -> ExecParams {
        ExecParams {
            limit: None,
            offset: 0,
            min_score: None,
            order: Order::DocOrder,
            deadline: None,
            explain: false,
        }
    }

    /// Rows each shard must find before it may stop scanning documents.
    /// Prefix-based early termination is sound only under `DocOrder`
    /// (shard-local row prefixes are prefixes of the global order);
    /// ranked requests prune through [`ExecParams::heap_cap`] instead.
    fn need_rows(&self) -> Option<usize> {
        match (self.order, self.limit) {
            (Order::DocOrder, Some(k)) => Some(self.offset.saturating_add(k)),
            _ => None,
        }
    }

    /// Heap capacity for the `ScoreDesc` bounded top-k: each shard only
    /// ever needs its best `offset + limit` rows (every row of the global
    /// window is within its own shard's best `offset + limit` under the
    /// same comparator), so a shard-local min-heap of that size plus the
    /// shard score bound drives WAND-style document skipping. `None` for
    /// unlimited or `DocOrder` requests.
    fn heap_cap(&self) -> Option<usize> {
        match (self.order, self.limit) {
            (Order::ScoreDesc, Some(k)) => Some(self.offset.saturating_add(k)),
            _ => None,
        }
    }

    fn check_deadline(&self) -> Result<(), Error> {
        if let Some((start, budget)) = self.deadline {
            let elapsed = start.elapsed();
            if elapsed >= budget {
                return Err(Error::DeadlineExceeded { budget, elapsed });
            }
        }
        Ok(())
    }
}

/// Partial result of evaluating one shard: aggregated rows (each carrying
/// the canonical tuple key the deterministic merge sorts by), the shard's
/// stage timers, and its explain counters.
struct ShardPartial {
    rows: Vec<(String, Row)>,
    /// Rows that survived aggregation in the documents this shard
    /// actually processed — under a ranked top-k this can exceed
    /// `rows.len()` (heap-evicted rows still count toward the
    /// `total_matches` lower bound).
    rows_found: usize,
    profile: Profile,
    early_stopped: bool,
    explain: ShardExplain,
    plans: Vec<String>,
}

/// One entry of the `ScoreDesc` bounded top-k heap. The `BinaryHeap`
/// max-element is the *worst* held row — lowest score, ties resolved to
/// the larger canonical key — so `peek()` is the floor a new row must
/// beat. `total_cmp` keeps the order total (and deterministic) even for
/// pathological NaN scores.
struct HeapRow {
    key: String,
    row: Row,
}

impl Ord for HeapRow {
    fn cmp(&self, other: &HeapRow) -> std::cmp::Ordering {
        other
            .row
            .score
            .total_cmp(&self.row.score)
            .then_with(|| self.key.cmp(&other.key))
    }
}
impl PartialOrd for HeapRow {
    fn partial_cmp(&self, other: &HeapRow) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for HeapRow {
    fn eq(&self, other: &HeapRow) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapRow {}

/// Keep the best `cap` rows under the (score desc, key asc) comparator.
/// Returns without inserting when the candidate cannot beat the floor —
/// rows from later documents carry strictly larger keys, so score ties
/// always resolve against the newcomer.
fn push_bounded(heap: &mut BinaryHeap<HeapRow>, cap: usize, key: String, row: Row) {
    let entry = HeapRow { key, row };
    if heap.len() < cap {
        heap.push(entry);
    } else if let Some(mut worst) = heap.peek_mut() {
        if entry.cmp(&worst) == std::cmp::Ordering::Less {
            *worst = entry;
        }
    }
}

/// The final `ScoreDesc` ordering: descending score, ties keeping their
/// prior (DocOrder) position. `total_cmp` makes the comparator total, so
/// NaN or infinite scores can never panic or destabilize the sort (NaN
/// sorts as larger than +inf, deterministically).
fn sort_rows_score_desc(rows: &mut [Row]) {
    rows.sort_by(|a, b| b.score.total_cmp(&a.score));
}

/// Evaluate a parsed query against a snapshot — the stateless executor.
///
/// `shard_parallel` gates the per-shard fan-out (callers that already run
/// many queries concurrently keep it off). Merging is deterministic: shard
/// partials are combined in shard order and raw tuples are re-sorted with
/// the same comparator the sequential evaluator uses, so the final rows
/// match the single-shard result exactly.
pub fn execute_query(
    snapshot: &Snapshot,
    opts: &EngineOpts,
    parsed: &Query,
    t0: std::time::Instant,
    shard_parallel: bool,
) -> Result<QueryOutput, Error> {
    // ---- Normalize (once, on the calling thread) -----------------------
    let norm = normalize(parsed)?;
    let cq = CompiledQuery::compile(norm)?;
    execute_compiled(snapshot, opts, &cq, t0.elapsed(), shard_parallel)
}

/// [`execute_query`] for an already compiled query: the per-shard stages,
/// merge, and aggregation with default request semantics (everything, in
/// `DocOrder`). `normalize_time` seeds the profile's front-end timer
/// (measured by the caller, who may have hit the compiled cache).
pub fn execute_compiled(
    snapshot: &Snapshot,
    opts: &EngineOpts,
    cq: &CompiledQuery,
    normalize_time: std::time::Duration,
    shard_parallel: bool,
) -> Result<QueryOutput, Error> {
    execute_request(
        snapshot,
        opts,
        cq,
        normalize_time,
        shard_parallel,
        &ExecParams::unrestricted(),
    )
}

/// The request-aware executor every query path funnels into: per-shard
/// DPLI → LoadArticle → GSP/extract → per-document aggregation (with the
/// `min_score` floor and top-k early termination applied inside the
/// shard), then a deterministic merge, the requested ordering, and the
/// `limit`/`offset` window.
///
/// Determinism: each row carries the canonical key of the raw tuple it
/// came from (the same `Debug` rendering the historical evaluator sorted
/// by), and the merge sorts on those keys — so for an unrestricted
/// request the rows are byte-identical (content *and* order) to the
/// pre-request engine, regardless of shard count or parallelism.
fn execute_request(
    snapshot: &Snapshot,
    opts: &EngineOpts,
    cq: &CompiledQuery,
    normalize_time: std::time::Duration,
    shard_parallel: bool,
    exec: &ExecParams,
) -> Result<QueryOutput, Error> {
    let mut profile = Profile {
        normalize: normalize_time,
        ..Profile::default()
    };
    exec.check_deadline()?;

    // ---- Aggregation context (shared read-only by every shard) ---------
    // Descriptor expansion happens once per query, not once per shard.
    let t = std::time::Instant::now();
    let agg = Aggregator::new(
        cq,
        snapshot.embeddings(),
        AggOpts {
            use_descriptors: opts.use_descriptors,
            default_threshold: opts.default_threshold,
            expansion_k: opts.expansion_k,
            expansion_min_sim: opts.expansion_min_sim,
        },
    );
    // Score cache scope: clauses whose conditions never consult the
    // corpus (similarTo / contains / matches / in dict) are cached once
    // for all documents.
    let doc_independent: Vec<bool> = cq
        .norm
        .satisfying
        .iter()
        .map(|clause| !clause.conds.iter().any(|wc| consults_document(&wc.cond)))
        .collect();
    profile.satisfying += t.elapsed();

    // ---- Per-shard: DPLI → LoadArticle → GSP/extract → aggregate -------
    // Base and delta shards fan out uniformly; only the profile records
    // which candidates came from deltas (freshly ingested documents).
    let needed = needed_vars(cq);
    // Fallible materialization: on a mapped snapshot this decodes any
    // not-yet-touched shard, surfacing file corruption as a structured
    // query error instead of a panic.
    let shards = snapshot.try_shards().map_err(Error::Snapshot)?;
    let num_base = snapshot.num_base_shards();
    let threads = if shard_parallel && shards.len() > 1 {
        0
    } else {
        1
    };
    let partials = koko_par::par_map(shards, threads, |i, shard| {
        eval_shard(
            snapshot,
            opts,
            cq,
            &needed,
            &agg,
            &doc_independent,
            shard,
            i,
            i >= num_base,
            exec,
        )
    });

    // ---- Merge (canonical tuple-key sort; byte-compatible with the
    // historical single-threaded evaluator) ------------------------------
    let mut keyed: Vec<(String, Row)> = Vec::new();
    let mut early_stopped = false;
    let mut total_matches = 0usize;
    let mut shard_explains: Vec<ShardExplain> = Vec::new();
    let mut plans: Vec<String> = Vec::new();
    for partial in partials {
        let partial = partial?;
        early_stopped |= partial.early_stopped;
        total_matches += partial.rows_found;
        keyed.extend(partial.rows);
        profile.merge(&partial.profile);
        if exec.explain {
            if plans.is_empty() {
                plans = partial.plans;
            }
            shard_explains.push(partial.explain);
        }
    }
    exec.check_deadline()?;
    // The tail of the row-key work `process_doc` charges to `extract`.
    let t = Instant::now();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let mut rows: Vec<Row> = keyed.into_iter().map(|(_, row)| row).collect();
    if exec.order == Order::ScoreDesc {
        // Stable sort: ties keep their DocOrder position, so the
        // effective key is (score desc, doc, row).
        sort_rows_score_desc(&mut rows);
    }
    profile.extract += t.elapsed();

    // ---- Window ---------------------------------------------------------
    // `total_matches` counts every row that survived aggregation in the
    // processed documents (including rows a ranked shard's bounded heap
    // later evicted) — exact on complete runs, a lower bound whenever a
    // shard stopped early.
    let start = exec.offset.min(rows.len());
    let end = match exec.limit {
        Some(k) => start.saturating_add(k).min(rows.len()),
        None => rows.len(),
    };
    rows.truncate(end);
    rows.drain(..start);
    // Truncation = matches may exist past the window's end. Rows the
    // offset skipped were requested away, so they don't count — a pager
    // advancing `offset` terminates when this goes false.
    let truncated = early_stopped || end < total_matches;
    let explain = exec.explain.then_some(Explain {
        plans,
        shards: shard_explains,
        remote_shards: vec![],
    });

    Ok(QueryOutput {
        rows,
        total_matches,
        truncated,
        explain,
        profile,
    })
}

/// Pulls the lazy DPLI candidate stream ([`dpli::CandidateStream`]) one
/// *document* at a time. Candidates arrive in ascending sid order and the
/// sids of one document are contiguous, so each [`DocBatcher::next_doc`]
/// call collects exactly one document's global sids into `buf` — no
/// shard-wide candidate vector ever materializes. The caller charges the
/// time spent pulling the stream (the galloping intersection) to the DPLI
/// timer.
struct DocBatcher<'a> {
    cands: dpli::CandidateStream<'a>,
    /// First sid of the next document, already pulled from the stream.
    pending: Option<Sid>,
    /// Global sids of the most recently returned document.
    buf: Vec<Sid>,
    /// Distinct candidate documents seen so far; once the stream drains
    /// this is the shard's candidate-document count.
    docs_seen: usize,
    /// The drained stream re-ordered by [`DocBatcher::in_result_order`].
    reordered: Option<std::vec::IntoIter<(u32, Vec<Sid>)>>,
}

impl DocBatcher<'_> {
    /// The next candidate document (global id), with its sids in `buf`.
    fn next_doc(&mut self, shard: &koko_index::Shard) -> Option<u32> {
        if let Some(docs) = &mut self.reordered {
            let (doc, sids) = docs.next()?;
            self.buf = sids;
            return Some(doc);
        }
        let first = self
            .pending
            .take()
            .or_else(|| self.cands.next_sid().map(|s| shard.to_global_sid(s)))?;
        let doc = shard.doc_of_sid(first);
        self.buf.clear();
        self.buf.push(first);
        while let Some(local) = self.cands.next_sid() {
            let sid = shard.to_global_sid(local);
            if shard.doc_of_sid(sid) == doc {
                self.buf.push(sid);
            } else {
                self.pending = Some(sid);
                break;
            }
        }
        self.docs_seen += 1;
        Some(doc)
    }

    /// Serve documents in *result order* from here on. Result order is
    /// the string order of doc ids (the doc id is the canonical tuple
    /// key's first field), not the stream's numeric order, so this drains
    /// the stream up front — sids only: no loads, extraction or scoring.
    fn in_result_order(&mut self, shard: &koko_index::Shard) {
        let mut docs: Vec<(u32, Vec<Sid>)> = Vec::new();
        while let Some(doc) = self.next_doc(shard) {
            docs.push((doc, std::mem::take(&mut self.buf)));
        }
        docs.sort_by_cached_key(|(doc, _)| doc.to_string());
        self.reordered = Some(docs.into_iter());
    }
}

/// Charges a shard's wall time to the stage timers without gaps: every
/// [`StageClock::lap`] adds the time since the previous one to the stage
/// that just ran, so the timers of a shard sum to the time it took.
struct StageClock(Instant);

impl StageClock {
    fn lap(&mut self, stage: &mut Duration) {
        let now = Instant::now();
        *stage += now - self.0;
        self.0 = now;
    }
}

/// Mutable per-shard evaluation state threaded through [`process_doc`]:
/// stage timers and counters, the aggregation caches, and the
/// accumulating results (flat rows, or the bounded top-k heap under a
/// ranked limit).
struct ShardEvalState {
    profile: Profile,
    clock: StageClock,
    /// The canonical keys of the document at hand, end to end; reused from
    /// one document to the next.
    keys: String,
    /// Per satisfying clause: value text → score. A clause whose
    /// conditions all read the value alone keeps its entries for the whole
    /// shard; any other clause's entries can only hit inside the document
    /// that made them and are dropped when the next document starts.
    scores: Vec<std::collections::HashMap<String, f64>>,
    /// Value text → excluded, for the current document.
    excl_cache: std::collections::HashMap<String, bool>,
    rows: Vec<(String, Row)>,
    heap: BinaryHeap<HeapRow>,
    rows_found: usize,
    plans_rendered: Vec<String>,
    docs_processed: usize,
    tuples_total: usize,
}

/// With the heap at capacity, can the given document still change the
/// final top-k? Returns `true` (skip it) exactly when its score upper
/// bound falls below the heap floor, or ties the floor while every
/// canonical key the document could mint loses the tie-break. Sound in
/// *any* visit order: every key of document `d` extends `prefix`
/// (`"RawTuple { doc: d,"`), and `worst.key < prefix` implies `worst.key`
/// is lexicographically smaller than every extension of `prefix`, so a
/// tied newcomer always loses to the held row. A NaN bound compares
/// `false` on both arms and is never skipped on.
fn doc_cannot_improve(heap: &BinaryHeap<HeapRow>, bound: f64, prefix: &str) -> bool {
    heap.peek().is_some_and(|worst| {
        bound < worst.row.score || (bound == worst.row.score && worst.key.as_str() < prefix)
    })
}

/// Why [`DocGate::verdict`] passed over a candidate document.
enum Skip {
    /// The request window is already full (`DocOrder` + limit), or empty.
    Window,
    /// The shard-wide score bound.
    ShardBound,
    /// The document's block score bound.
    BlockBound,
}

/// The one per-document gate every request mode consults before a
/// candidate document is loaded: build-time score bounds (shard-wide, then
/// the document's block) against what the request can still use.
struct DocGate<'a> {
    agg: &'a Aggregator<'a>,
    shard: &'a koko_index::Shard,
    /// The `min_score` floor, as a reason to skip — ranked top-k only: a
    /// complete scan promises to count every row the floor drops
    /// (`min_score_pruned`), so it has to find them.
    score_floor: Option<f64>,
    /// `DocOrder` + limit: rows after which the shard may stop.
    need_rows: Option<usize>,
    /// `ScoreDesc` + limit: capacity of the bounded heap.
    ranked_cap: Option<usize>,
    shard_bound: ShardScoreBound,
    /// Block statistics, when present and when the query's bounds depend
    /// on a vocabulary at all.
    blocks: Option<&'a koko_index::BlockBoundStats>,
    /// Block bounds, computed once per block a candidate document lands
    /// in and capped by the shard bound (a block vocabulary is a subset
    /// of its shard's).
    block_bounds: Vec<Option<ShardScoreBound>>,
    /// Scratch for the canonical key prefix of the document at hand.
    prefix: String,
}

impl<'a> DocGate<'a> {
    fn new(agg: &'a Aggregator<'a>, shard: &'a koko_index::Shard, exec: &ExecParams) -> Self {
        let blocks = shard
            .block_stats()
            .filter(|_| agg.bounds_consult_vocabulary());
        DocGate {
            agg,
            shard,
            score_floor: exec.min_score.filter(|_| exec.heap_cap().is_some()),
            need_rows: exec.need_rows(),
            ranked_cap: exec.heap_cap(),
            shard_bound: agg.shard_score_bound(shard.bound_stats()),
            blocks,
            block_bounds: vec![None; blocks.map_or(0, |b| b.num_blocks())],
            prefix: String::new(),
        }
    }

    /// A bound below every possible row — an infeasible clause, or a score
    /// ceiling under the floor — proves its documents contribute nothing.
    fn row_free(&self, b: &ShardScoreBound) -> bool {
        !b.feasible || self.score_floor.is_some_and(|floor| b.bound < floor)
    }

    /// `None` to evaluate the document; otherwise why it is skipped and
    /// whether skipping it is *exact* (provably no row is lost, so the
    /// run stays complete) or early termination.
    fn verdict(&mut self, st: &ShardEvalState, doc_id: u32) -> Option<(Skip, bool)> {
        use std::fmt::Write as _;

        if self.need_rows.is_some_and(|need| st.rows.len() >= need) {
            return Some((Skip::Window, false));
        }
        if self.row_free(&self.shard_bound) {
            return Some((Skip::ShardBound, true));
        }
        if self.ranked_cap == Some(0) {
            return Some((Skip::Window, false));
        }
        // Heap-floor pruning (WAND-style) applies once the heap is full.
        let heap_full = self.ranked_cap.is_some_and(|cap| st.heap.len() >= cap);
        if heap_full {
            self.prefix.clear();
            let _ = write!(self.prefix, "RawTuple {{ doc: {doc_id},");
            if doc_cannot_improve(&st.heap, self.shard_bound.bound, &self.prefix) {
                return Some((Skip::ShardBound, false));
            }
        }
        // Block-max refinement.
        let bstats = self.blocks?;
        let bi = bstats.block_of_doc(self.shard.to_local_doc(doc_id));
        let (agg, shard_bound) = (self.agg, self.shard_bound.bound);
        let b = *self.block_bounds[bi].get_or_insert_with(|| {
            let mut b = agg.block_score_bound(&bstats.block(bi));
            b.bound = b.bound.min(shard_bound);
            b
        });
        if self.row_free(&b) {
            return Some((Skip::BlockBound, true));
        }
        if heap_full && doc_cannot_improve(&st.heap, b.bound, &self.prefix) {
            return Some((Skip::BlockBound, false));
        }
        None
    }
}

/// Load, extract, dedup and aggregate one candidate document (the
/// historical per-document loop body, identical across all request
/// modes). Appends surviving rows to `st.rows`, or to the bounded heap
/// when `ranked_cap` is set.
///
/// LoadArticle is sentence-granular: of a stored article only the
/// candidate sentences in `sids` are decoded, unless the query's clauses
/// read the rest of it (see [`Article`]). Dropping what was decoded is
/// charged to `load_article` too, and building each sentence's context and
/// the row keys to `extract`.
#[allow(clippy::too_many_arguments)]
fn process_doc(
    snapshot: &Snapshot,
    opts: &EngineOpts,
    cq: &CompiledQuery,
    needed: &[NeededVar],
    agg: &Aggregator<'_>,
    doc_independent: &[bool],
    shard: &koko_index::Shard,
    exec: &ExecParams,
    doc_id: u32,
    sids: &[Sid],
    st: &mut ShardEvalState,
) -> Result<(), Error> {
    let storage = |e: koko_storage::DecodeError| Error::Storage(format!("document {doc_id}: {e}"));

    // ---- LoadArticle from the shard store ------------------------------
    let mut article = if opts.store_backed {
        let view = shard.article(doc_id).map_err(storage)?;
        Article::stored(view, agg.always_consults_document()).map_err(storage)?
    } else {
        // Corpus-borrowing mode materializes the whole corpus on a
        // mapped snapshot — store-backed (the default) does not.
        let corpus = snapshot.try_corpus().map_err(Error::Snapshot)?;
        Article::Corpus(corpus.document(doc_id))
    };

    // ---- GSP + extract -------------------------------------------------
    let mut tuples: Vec<RawTuple<'_>> = Vec::new();
    let first_sid = shard.doc_first_sid(doc_id);
    for &sid in sids {
        // A blob that holds fewer sentences than the index names is a
        // structured error here, never an out-of-bounds index.
        let sentence = article.sentence(sid - first_sid).map_err(storage)?;
        // Decoding this sentence, and dropping the one before it.
        st.clock.lap(&mut st.profile.load_article);
        {
            let ctx = SentCtx::new(&sentence);
            let domains = bind_domains(cq, &ctx);
            st.clock.lap(&mut st.profile.extract);

            let plans = gsp::plan(cq, &domains, ctx.len());
            st.clock.lap(&mut st.profile.gsp);
            if exec.explain && st.plans_rendered.is_empty() && !plans.is_empty() {
                st.plans_rendered = render_plans(cq, &plans);
            }

            for a in gsp::evaluate(cq, &ctx, &domains, &plans, opts.use_gsp) {
                let values: Option<Vec<TupleValue<'_>>> = needed
                    .iter()
                    .map(|var| {
                        a[var.index].map(|span| TupleValue {
                            var: &var.name,
                            sid,
                            span,
                            text: span_text(&sentence, span),
                        })
                    })
                    .collect();
                if let Some(values) = values {
                    tuples.push(RawTuple {
                        doc: doc_id,
                        values,
                    });
                }
            }
        }
        st.clock.lap(&mut st.profile.extract);
    }

    // ---- Canonical per-document sort + dedup ---------------------------
    // Bag semantics with per-sentence duplicates removed. Keys are
    // the historical evaluator's comparator (the tuple's `Debug`
    // rendering), rendered once per tuple into one buffer; duplicates are
    // always intra-document, so per-doc dedup equals the old global dedup.
    // Only a tuple that becomes a row gets a key `String` of its own.
    st.keys.clear();
    let mut keyed: Vec<(std::ops::Range<usize>, RawTuple<'_>)> = tuples
        .into_iter()
        .map(|t| {
            let start = st.keys.len();
            write_key(&mut st.keys, needed, &t);
            (start..st.keys.len(), t)
        })
        .collect();
    let keys = st.keys.as_str();
    keyed.sort_by(|a, b| keys[a.0.clone()].cmp(&keys[b.0.clone()]));
    keyed.dedup_by(|a, b| keys[a.0.clone()] == keys[b.0.clone()]);
    st.profile.raw_tuples += keyed.len();
    st.tuples_total += keyed.len();
    st.clock.lap(&mut st.profile.extract);

    // ---- Aggregate (satisfying + excluding + min_score) ----------------
    for (scores, &shard_wide) in st.scores.iter_mut().zip(doc_independent) {
        if !shard_wide {
            scores.clear();
        }
    }
    st.excl_cache.clear();
    let evidence = agg.evidence(&article);
    let ranked_cap = exec.heap_cap();
    for (key, tuple) in keyed {
        if let Some(row) = aggregate_tuple(
            agg,
            cq,
            exec.min_score,
            &evidence,
            tuple,
            &mut st.scores,
            &mut st.excl_cache,
            &mut st.profile.min_score_pruned,
        ) {
            st.rows_found += 1;
            let key = keys[key].to_owned();
            match ranked_cap {
                Some(cap) => push_bounded(&mut st.heap, cap, key, row),
                None => st.rows.push((key, row)),
            }
        }
    }
    drop(evidence);
    st.clock.lap(&mut st.profile.satisfying);

    // ---- LoadArticle, the rest: drop the article; a completion the
    // satisfying stage asked for is decode time all the same ------------
    let loaded = article.finish().map_err(storage)?;
    st.clock.lap(&mut st.profile.load_article);
    st.profile.load_article += loaded.completion;
    st.profile.satisfying = st.profile.satisfying.saturating_sub(loaded.completion);
    st.profile.sentences_decoded += loaded.sentences_decoded;
    st.docs_processed += 1;
    Ok(())
}

/// DPLI, article loading, GSP/extract and per-document aggregation for
/// one shard. Index lookups run in the shard's local sid space;
/// everything emitted uses global ids. Candidates are *streamed* from the
/// galloping DPLI intersection one document at a time ([`DocBatcher`]) —
/// the hot path never materializes a shard-wide candidate vector.
///
/// Every candidate document passes one gate ([`DocGate`]) before it is
/// touched, whatever the request's order or limit. Two score bounds feed
/// it, both computed from build-time statistics: the shard-wide bound
/// (`bound_skipped_docs`) and — when the snapshot carries block
/// statistics — the document's block bound (`block_bound_skipped_docs`),
/// a per-32-doc-block refinement that keeps pruning inside shards whose
/// union vocabulary looks promising.
///
/// * **Infeasibility** (every mode, unlimited scans included): a shard or
///   block whose bound cannot reach a clause threshold provably holds no
///   row. Its documents are drained count-only: never loaded, extracted,
///   keyed or scored. This is exact, so it never marks `early_stopped`.
///   (A ranked top-k treats a bound under the `min_score` floor the same
///   way.)
/// * **`DocOrder` + limit**: candidate documents are visited in *result
///   order* and everything after the first document boundary past
///   `offset + limit` surviving rows is skipped.
/// * **`ScoreDesc` + limit**: the shard keeps a bounded min-heap of its
///   best `offset + limit` rows; once it is full a document is skipped
///   when its bound provably cannot change the heap
///   ([`doc_cannot_improve`]).
///
/// Returned rows are byte-identical to the ungated full-scan reference in
/// every mode.
#[allow(clippy::too_many_arguments)]
fn eval_shard(
    snapshot: &Snapshot,
    opts: &EngineOpts,
    cq: &CompiledQuery,
    needed: &[NeededVar],
    agg: &Aggregator<'_>,
    doc_independent: &[bool],
    shard: &koko_index::Shard,
    shard_index: usize,
    is_delta: bool,
    exec: &ExecParams,
) -> Result<ShardPartial, Error> {
    let mut st = ShardEvalState {
        profile: Profile::default(),
        clock: StageClock(Instant::now()),
        keys: String::new(),
        scores: vec![Default::default(); doc_independent.len()],
        excl_cache: std::collections::HashMap::new(),
        rows: Vec::new(),
        heap: BinaryHeap::new(),
        rows_found: 0,
        plans_rendered: Vec::new(),
        docs_processed: 0,
        tuples_total: 0,
    };

    // ---- DPLI candidate stream over the shard index --------------------
    let cands = dpli::stream(cq, shard.index());
    st.clock.lap(&mut st.profile.dpli);
    exec.check_deadline()?;
    let mut batcher = DocBatcher {
        cands,
        pending: None,
        buf: Vec::new(),
        docs_seen: 0,
        reordered: None,
    };
    if exec.need_rows().is_some() {
        batcher.in_result_order(shard);
        st.clock.lap(&mut st.profile.dpli);
    }

    // ---- Gate, then evaluate, one candidate document at a time ---------
    // Skipped documents are still pulled from the stream (count-only), so
    // the candidate counters match a full scan's exactly. The gate is the
    // satisfying clauses' bounds at work, and is timed as that stage.
    let mut gate = DocGate::new(agg, shard, exec);
    st.clock.lap(&mut st.profile.satisfying);
    let mut early_stopped = false;
    loop {
        let next = batcher.next_doc(shard);
        st.clock.lap(&mut st.profile.dpli);
        let Some(doc_id) = next else { break };
        let verdict = gate.verdict(&st, doc_id);
        st.clock.lap(&mut st.profile.satisfying);
        if let Some((skip, exact)) = verdict {
            st.profile.docs_skipped += 1;
            st.profile.candidates_skipped += batcher.buf.len();
            match skip {
                Skip::Window => {}
                Skip::ShardBound => st.profile.bound_skipped_docs += 1,
                Skip::BlockBound => st.profile.block_bound_skipped_docs += 1,
            }
            early_stopped |= !exact;
            continue;
        }
        exec.check_deadline()?;
        process_doc(
            snapshot,
            opts,
            cq,
            needed,
            agg,
            doc_independent,
            shard,
            exec,
            doc_id,
            &batcher.buf,
            &mut st,
        )?;
    }

    st.profile.candidate_sentences = batcher.cands.streamed();
    if is_delta {
        st.profile.delta_candidates = batcher.cands.streamed();
    }
    st.profile.gallop_probes = batcher.cands.probes();

    // A ranked shard hands back its heap contents (order irrelevant: the
    // merge re-sorts by canonical key, then by score). The floor is only
    // meaningful when the heap actually filled.
    let heap_floor = exec.heap_cap().and_then(|cap| {
        (cap > 0 && st.heap.len() >= cap).then(|| st.heap.peek().map_or(0.0, |w| w.row.score))
    });
    let heap = std::mem::take(&mut st.heap);
    st.rows.extend(heap.into_iter().map(|h| (h.key, h.row)));
    debug_assert!(st.rows.len() <= st.rows_found);

    let explain = ShardExplain {
        shard: shard_index,
        is_delta,
        lookups: batcher.cands.lookups,
        candidates: batcher.cands.streamed(),
        docs: batcher.docs_seen,
        docs_processed: st.docs_processed,
        tuples: st.tuples_total,
        rows: st.rows.len(),
        min_score_pruned: st.profile.min_score_pruned,
        early_stopped,
        score_bound: gate.shard_bound.bound,
        heap_floor,
        bound_skipped_docs: st.profile.bound_skipped_docs,
        block_bound_skipped_docs: st.profile.block_bound_skipped_docs,
        probes: st.profile.gallop_probes,
        sentences_decoded: st.profile.sentences_decoded,
    };
    Ok(ShardPartial {
        rows: st.rows,
        rows_found: st.rows_found,
        profile: st.profile,
        early_stopped,
        explain,
        plans: st.plans_rendered,
    })
}

/// Score one deduplicated tuple against the satisfying / excluding
/// clauses and the per-request `min_score` floor; `None` means the tuple
/// produces no row. Extracted from the historical post-merge `aggregate`
/// loop — scoring is tuple-local, so running it per document inside each
/// shard yields byte-identical rows.
///
/// Both caches are keyed by the value's exact text: `contains`,
/// `mentions` and `matches` are case-sensitive, so two spellings of one
/// name may score differently and must not share a slot.
#[allow(clippy::too_many_arguments)]
fn aggregate_tuple(
    agg: &Aggregator<'_>,
    cq: &CompiledQuery,
    min_score: Option<f64>,
    evidence: &DocEvidence<'_>,
    t: RawTuple<'_>,
    scores: &mut [std::collections::HashMap<String, f64>],
    excl_cache: &mut std::collections::HashMap<String, bool>,
    min_score_pruned: &mut usize,
) -> Option<Row> {
    let mut row_score = 1.0f64;
    // Satisfying clauses filter by their variable's value.
    for (clause, scores) in cq.norm.satisfying.iter().zip(scores) {
        let Some(v) = t.values.iter().find(|v| v.var == clause.var) else {
            continue;
        };
        let score = match scores.get(&v.text) {
            Some(&score) => score,
            None => {
                let score = agg.score_in(evidence, &v.text, &clause.conds);
                scores.insert(v.text.clone(), score);
                score
            }
        };
        if score < agg.threshold(clause.threshold) {
            return None;
        }
        row_score = score;
    }
    // Excluding conditions drop tuples by any referenced value.
    for v in &t.values {
        if cq.norm.excluding.iter().any(|c| c.var == v.var) {
            let out = match excl_cache.get(&v.text) {
                Some(&out) => out,
                None => {
                    let out = agg.excluded_in(evidence, &v.text);
                    excl_cache.insert(v.text.clone(), out);
                    out
                }
            };
            if out {
                return None;
            }
        }
    }
    // Project outputs.
    let values: Vec<OutValue> = cq
        .norm
        .outputs
        .iter()
        .filter_map(|o| {
            t.values.iter().find(|v| v.var == o.name).map(|v| OutValue {
                name: o.name.clone(),
                text: v.text.clone(),
                sid: v.sid,
                start: v.span.0,
                end: v.span.1,
            })
        })
        .collect();
    if values.len() != cq.norm.outputs.len() {
        return None;
    }
    // The per-request score floor, applied below aggregation: pruned rows
    // never merge, never count toward `limit`, and never reach caches.
    if let Some(floor) = min_score {
        if row_score < floor {
            *min_score_pruned += 1;
            return None;
        }
    }
    Some(Row {
        doc: t.doc,
        values,
        score: row_score,
    })
}

/// Human-readable rendering of GSP's chosen skip plans (for [`Explain`]):
/// one line per horizontal condition, skipped atoms bracketed.
fn render_plans(cq: &CompiledQuery, plans: &[gsp::SkipPlan]) -> Vec<String> {
    plans
        .iter()
        .map(|p| {
            let atoms: Vec<String> = p
                .atoms
                .iter()
                .zip(&p.skip)
                .map(|(&vi, &skipped)| {
                    let name = cq.norm.vars[vi].name.as_str();
                    if skipped {
                        format!("[skip {name}: derived from neighbours]")
                    } else {
                        name.to_string()
                    }
                })
                .collect();
            format!("{} = {}", cq.norm.vars[p.target].name, atoms.join(" + "))
        })
        .collect()
}

/// A variable whose values must survive into tuples.
struct NeededVar {
    /// Position in `cq.norm.vars`.
    index: usize,
    name: String,
    /// What every canonical key renders before this variable's sentence
    /// id: `TupleValue { var: "<name>", sid: `, the name escaped once.
    key_prefix: String,
}

/// Variables whose values must survive into tuples: outputs plus every
/// satisfying / excluding variable.
fn needed_vars(cq: &CompiledQuery) -> Vec<NeededVar> {
    let mut names: Vec<String> = cq.norm.outputs.iter().map(|o| o.name.clone()).collect();
    for s in &cq.norm.satisfying {
        names.push(s.var.clone());
    }
    for e in &cq.norm.excluding {
        names.push(e.var.clone());
    }
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter_map(|name| {
            cq.norm.var(&name).map(|index| NeededVar {
                index,
                key_prefix: format!("TupleValue {{ var: {name:?}, sid: "),
                name,
            })
        })
        .collect()
}

#[derive(Debug, Clone, PartialEq, PartialOrd)]
struct TupleValue<'q> {
    var: &'q str,
    sid: Sid,
    span: (u32, u32),
    text: String,
}

/// One extracted tuple: a value for every [`NeededVar`], in that order.
#[derive(Debug, Clone, PartialEq)]
struct RawTuple<'q> {
    doc: u32,
    values: Vec<TupleValue<'q>>,
}

/// Append the canonical key of `t` — byte for byte `format!("{t:?}")` —
/// to `out`. Result order, dedup and the ranked tie-break are all defined
/// by this rendering, and a `dob` scan spent a fifth of its time producing
/// it through `fmt::Debug`; here only the value text still goes through
/// `{:?}`, so its escaping is the standard library's by construction.
/// Typed `Ord` keys and numeric document order are ROADMAP item 4a; until
/// then this string is the one key type.
fn write_key(out: &mut String, needed: &[NeededVar], t: &RawTuple<'_>) {
    use std::fmt::Write as _;

    out.push_str("RawTuple { doc: ");
    push_decimal(out, t.doc);
    out.push_str(", values: [");
    for (i, (var, v)) in needed.iter().zip(&t.values).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&var.key_prefix);
        push_decimal(out, v.sid);
        out.push_str(", span: (");
        push_decimal(out, v.span.0);
        out.push_str(", ");
        push_decimal(out, v.span.1);
        out.push_str("), text: ");
        let _ = write!(out, "{:?}", v.text);
        out.push_str(" }");
    }
    out.push_str("] }");
}

fn push_decimal(out: &mut String, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

fn span_text(sentence: &koko_nlp::Sentence, span: (u32, u32)) -> String {
    if span.0 >= span.1 {
        return String::new();
    }
    sentence.span_text(span.0, span.1 - 1)
}

/// Convenience: variables used by the engine internals.
pub use koko_lang::NormQuery;

#[allow(unused)]
fn var_kind_name(kind: &NVarKind) -> &'static str {
    match kind {
        NVarKind::Node { .. } => "node",
        NVarKind::Entity { .. } => "entity",
        NVarKind::Span { .. } => "span",
        NVarKind::Subtree { .. } => "subtree",
        NVarKind::Tokens { .. } => "tokens",
        NVarKind::Elastic { .. } => "elastic",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(doc: u32, score: f64) -> Row {
        Row {
            doc,
            values: Vec::new(),
            score,
        }
    }

    #[test]
    fn score_sort_is_total_over_nan_and_infinities() {
        // Pathological scores must neither panic nor destabilize the
        // order: `total_cmp` ranks NaN > +inf > finite > -inf > -NaN.
        let mut rows = vec![
            row(0, 0.5),
            row(1, f64::NEG_INFINITY),
            row(2, f64::NAN),
            row(3, 1.0),
            row(4, f64::INFINITY),
            row(5, -f64::NAN),
            row(6, 0.5),
        ];
        sort_rows_score_desc(&mut rows);
        let docs: Vec<u32> = rows.iter().map(|r| r.doc).collect();
        // NaN first (it is `total_cmp`-greatest), then +inf, the finite
        // scores descending — the 0.5 tie keeping input order (stable
        // sort) — then -inf and -NaN last.
        assert_eq!(docs, vec![2, 4, 3, 0, 6, 1, 5]);
        // Determinism: resorting a rotation produces the same order.
        let mut rotated = rows.clone();
        rotated.rotate_left(3);
        sort_rows_score_desc(&mut rotated);
        let docs2: Vec<u32> = rotated.iter().map(|r| r.doc).collect();
        assert_eq!(docs2[..2], [2, 4]);
        assert_eq!(docs2[5..], [1, 5]);
    }

    #[test]
    fn bounded_heap_keeps_best_rows_and_breaks_ties_by_key() {
        let mut heap: BinaryHeap<HeapRow> = BinaryHeap::new();
        push_bounded(&mut heap, 2, "a".into(), row(0, 0.3));
        push_bounded(&mut heap, 2, "b".into(), row(0, 0.9));
        // Floor is the worst held row.
        assert_eq!(heap.peek().unwrap().row.score, 0.3);
        // Better row evicts the floor.
        push_bounded(&mut heap, 2, "c".into(), row(1, 0.5));
        assert_eq!(heap.peek().unwrap().row.score, 0.5);
        // A score tie loses to the incumbent (larger key = worse), so
        // later documents can never displace equal-scored earlier rows.
        push_bounded(&mut heap, 2, "d".into(), row(2, 0.5));
        let mut kept: Vec<String> = heap.into_iter().map(|h| h.key).collect();
        kept.sort();
        assert_eq!(kept, vec!["b", "c"]);
    }

    #[test]
    fn key_writer_is_byte_identical_to_the_debug_rendering() {
        let needed: Vec<NeededVar> = ["e", "né\"e\\"]
            .into_iter()
            .map(|name| NeededVar {
                index: 0,
                key_prefix: format!("TupleValue {{ var: {name:?}, sid: "),
                name: name.to_string(),
            })
            .collect();
        let mut texts = koko_corpus::wiki::generate(30, 5);
        texts.extend(koko_corpus::cafe::generate(koko_corpus::cafe::Style::Sprudge, 20, 6).texts);
        texts.extend(koko_corpus::tweets::generate(60, 7).texts);
        // What the generators may not produce: every escape class of
        // `<str as Debug>`.
        texts.push("“Zoë’s” café — naïve. It's 5\u{a0}o'clock \\ \"now\".".to_string());
        let corpus = koko_nlp::Pipeline::new().parse_corpus(&texts);
        let mut values: Vec<String> = corpus
            .sentences()
            .flat_map(|(_, s)| {
                let last = s.len().saturating_sub(1) as u32;
                [s.text(), s.span_text(0, 0), s.span_text(last, last)]
            })
            .collect();
        values
            .extend(["", "\n\t\r\0", "\u{7f}\u{200b}\u{301}e\u{fffd}", "'\"\\"].map(String::from));
        assert!(values.iter().any(|v| !v.is_ascii()));
        assert!(values.iter().any(|v| v.contains('"')));

        let mut key = String::new();
        let mut check = |t: &RawTuple<'_>| {
            key.clear();
            write_key(&mut key, &needed, t);
            assert_eq!(key, format!("{t:?}"));
        };
        check(&RawTuple {
            doc: 0,
            values: Vec::new(),
        });
        for (i, text) in values.iter().enumerate() {
            let i = i as u32;
            // Empty spans, and every width of integer.
            let (doc, sid, span) = match i % 3 {
                0 => (i, i * 7, (i % 11, i % 11)),
                1 => (u32::MAX - i, 1_000_000 + i, (0, i)),
                _ => (10u32.pow(i % 10), 9, (99, 100)),
            };
            let value = |var: &'static str, text: &str| TupleValue {
                var,
                sid,
                span,
                text: text.to_string(),
            };
            check(&RawTuple {
                doc,
                values: vec![value("e", text)],
            });
            check(&RawTuple {
                doc,
                values: vec![value("e", text), value("né\"e\\", "")],
            });
        }
    }

    #[test]
    fn bounded_heap_is_nan_safe() {
        let mut heap: BinaryHeap<HeapRow> = BinaryHeap::new();
        for (i, s) in [f64::NAN, 1.0, f64::INFINITY, 0.0].into_iter().enumerate() {
            push_bounded(&mut heap, 2, format!("k{i}"), row(i as u32, s));
        }
        // NaN is `total_cmp`-greatest, so it survives alongside +inf.
        let mut kept: Vec<String> = heap.into_iter().map(|h| h.key).collect();
        kept.sort();
        assert_eq!(kept, vec!["k0", "k2"]);
    }
}
