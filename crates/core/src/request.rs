//! Per-request query options: the [`QueryRequest`] builder and the
//! [`Explain`] report.
//!
//! [`Koko::query`](crate::Koko::query) evaluates with engine-wide defaults;
//! `QueryRequest` is the same execution path with per-call control:
//!
//! ```
//! use koko_core::{Koko, Order, QueryRequest};
//!
//! let koko = Koko::from_texts(&[
//!     "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
//!     "Anna ate some delicious cheesecake that she bought at a grocery store.",
//! ]);
//! let out = QueryRequest::new(koko_lang::queries::EXAMPLE_2_1)
//!     .limit(1)
//!     .order(Order::DocOrder)
//!     .run(&koko)
//!     .unwrap();
//! assert_eq!(out.rows.len(), 1);
//! assert!(out.truncated, "a second match exists");
//! ```
//!
//! # Row-ordering contract
//!
//! Result *rows* (content, order, scores) are a deterministic function
//! of the corpus, the query, and the request — independent of shard
//! count, parallelism, caches, and incremental-ingest history. (The
//! bookkeeping fields are looser on early-terminated runs:
//! `total_matches` is a lower bound and `truncated` errs conservative,
//! and how far a scan got may depend on shard layout and cache state;
//! both are exact whenever no `limit` is in play.)
//!
//! * [`Order::DocOrder`] (the default) returns rows grouped by document —
//!   documents ordered by the lexicographic order of their decimal ids
//!   (the engine's historical tuple order, kept byte-for-byte stable) —
//!   and, within a document, in extraction order (the engine's canonical
//!   tuple sort). This is exactly the order [`Koko::query`] has always
//!   produced.
//! * [`Order::ScoreDesc`] stably re-sorts that sequence by descending
//!   score: ties keep their `DocOrder` position, so the effective key is
//!   (score desc, doc, row).
//!
//! Under either order, `limit(k)` returns a *prefix* of the unlimited
//! run: rows `offset .. offset + k` of the full sequence.
//!
//! [`Koko::query`]: crate::Koko::query

use crate::engine::{Koko, QueryOutput};
use crate::error::Error;
use std::time::Duration;

/// Row ordering of a [`QueryRequest`]'s results (see the
/// [module docs](self) for the exact contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Order {
    /// Document order, then within-document extraction order — byte-wise
    /// identical to the historical [`Koko::query`](crate::Koko::query)
    /// ordering. Supports top-k early termination.
    #[default]
    DocOrder,
    /// Highest score first; ties broken stably by `DocOrder` position,
    /// i.e. (score desc, doc, row). With a `limit`, each shard runs a
    /// bounded-heap top-k driven by WAND-style score upper bounds: once
    /// `offset + limit` rows are held, documents whose shard bound cannot
    /// beat the worst held score are skipped without being loaded or
    /// extracted (visible in
    /// [`Profile::bound_skipped_docs`](crate::Profile::bound_skipped_docs)).
    /// Returned rows are byte-identical to the full-scan reference.
    ScoreDesc,
}

/// One query with per-request evaluation options — the single entry path
/// every other query API ([`Koko::query`], [`Koko::query_with_cache`],
/// [`Koko::query_batch`], the wire protocol, the CLI) is built on.
///
/// The builder is consuming: start from [`QueryRequest::new`], chain
/// options, finish with [`QueryRequest::run`]. A default request (no
/// options touched) answers byte-identically to [`Koko::query`].
///
/// [`Koko::query`]: crate::Koko::query
/// [`Koko::query_with_cache`]: crate::Koko::query_with_cache
/// [`Koko::query_batch`]: crate::Koko::query_batch
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    pub(crate) text: String,
    pub(crate) limit: Option<usize>,
    pub(crate) offset: usize,
    pub(crate) min_score: Option<f64>,
    pub(crate) order: Order,
    pub(crate) deadline: Option<Duration>,
    pub(crate) cache: bool,
    pub(crate) explain: bool,
}

impl QueryRequest {
    /// A request for `text` with default semantics (everything returned,
    /// `DocOrder`, caches consulted, no deadline, no explain report).
    pub fn new(text: impl Into<String>) -> QueryRequest {
        QueryRequest {
            text: text.into(),
            limit: None,
            offset: 0,
            min_score: None,
            order: Order::DocOrder,
            deadline: None,
            cache: true,
            explain: false,
        }
    }

    /// The query text this request evaluates.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Return at most `k` rows (after [`QueryRequest::offset`]). This is
    /// *early termination*, not post-filtering. Under [`Order::DocOrder`]
    /// each shard stops loading, extracting and scoring documents as soon
    /// as it has `offset + k` surviving rows. Under [`Order::ScoreDesc`]
    /// each shard keeps a bounded min-heap of its best `offset + k` rows
    /// and skips documents whose score upper bound cannot beat the heap
    /// floor. Skipped work is visible in [`Profile::docs_skipped`] /
    /// [`Profile::candidates_skipped`] / [`Profile::bound_skipped_docs`].
    ///
    /// [`Profile::docs_skipped`]: crate::Profile::docs_skipped
    /// [`Profile::candidates_skipped`]: crate::Profile::candidates_skipped
    /// [`Profile::bound_skipped_docs`]: crate::Profile::bound_skipped_docs
    pub fn limit(mut self, k: usize) -> QueryRequest {
        self.limit = Some(k);
        self
    }

    /// Skip the first `n` rows of the ordered result — pagination's page
    /// start. Skipped rows still count toward
    /// [`QueryOutput::total_matches`] but do not set
    /// [`QueryOutput::truncated`] (only matches past the *end* of the
    /// window do), so advancing the offset until `truncated` is `false`
    /// walks every match exactly once.
    ///
    /// [`QueryOutput::total_matches`]: crate::QueryOutput::total_matches
    /// [`QueryOutput::truncated`]: crate::QueryOutput::truncated
    pub fn offset(mut self, n: usize) -> QueryRequest {
        self.offset = n;
        self
    }

    /// Drop rows whose aggregated score is below `s`. The floor is
    /// applied inside the aggregation stage — below the merge, the
    /// limit/offset window and the result cache — so pruned rows are
    /// never materialized, never count toward `limit`, and are tallied in
    /// [`Profile::min_score_pruned`].
    ///
    /// [`Profile::min_score_pruned`]: crate::Profile::min_score_pruned
    pub fn min_score(mut self, s: f64) -> QueryRequest {
        self.min_score = Some(s);
        self
    }

    /// Row ordering (default [`Order::DocOrder`]).
    pub fn order(mut self, order: Order) -> QueryRequest {
        self.order = order;
        self
    }

    /// Abandon the query with [`Error::DeadlineExceeded`] once `budget`
    /// wall-clock has elapsed (measured from [`QueryRequest::run`]). The
    /// check runs between pipeline stages and at document boundaries in
    /// the extraction loop; a `Duration::ZERO` budget always fails at the
    /// first check.
    ///
    /// [`Error::DeadlineExceeded`]: crate::Error::DeadlineExceeded
    pub fn deadline(mut self, budget: Duration) -> QueryRequest {
        self.deadline = Some(budget);
        self
    }

    /// Consult and fill the compiled-query and result caches (default
    /// `true`). `false` bypasses both for this call only — nothing is
    /// read, written, or counted.
    pub fn cache(mut self, use_cache: bool) -> QueryRequest {
        self.cache = use_cache;
        self
    }

    /// Attach an [`Explain`] report to the output: the chosen skip plan,
    /// per-shard candidate/row counts, and early-termination decisions
    /// (per-stage timings live in [`Profile`](crate::Profile) as always).
    /// Explain forces a real evaluation, so the result cache is not
    /// consulted for this call (the compiled-query cache still is).
    pub fn explain(mut self, explain: bool) -> QueryRequest {
        self.explain = explain;
        self
    }

    /// Evaluate this request against an engine. Equivalent to
    /// [`Koko::run`](crate::Koko::run).
    pub fn run(&self, koko: &Koko) -> Result<QueryOutput, Error> {
        koko.run(self)
    }
}

/// Where a query's time and pruning went — attached to
/// [`QueryOutput::explain`](crate::QueryOutput::explain) by
/// [`QueryRequest::explain`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Explain {
    /// Human-readable rendering of the skip plan GSP chose for the first
    /// planned candidate sentence (one line per horizontal condition;
    /// empty when the query has none or no candidate reached planning).
    pub plans: Vec<String>,
    /// Per-shard evaluation counters, in shard order (base shards first,
    /// then deltas).
    pub shards: Vec<ShardExplain>,
    /// Per-worker fan-out accounting when the query was answered by a
    /// cluster coordinator (one entry per worker contacted, in shard-map
    /// order). Always empty for single-node execution, so single-node
    /// explain output is byte-identical to what it was before clustering
    /// existed.
    pub remote_shards: Vec<RemoteShardExplain>,
}

impl Explain {
    /// Candidate sentences across all shards (DPLI output).
    pub fn total_candidates(&self) -> usize {
        self.shards.iter().map(|s| s.candidates).sum()
    }

    /// Whether any shard stopped early because the limit was reached.
    pub fn early_terminated(&self) -> bool {
        self.shards.iter().any(|s| s.early_stopped)
    }

    /// Workers that answered (no error), when this report came from a
    /// cluster coordinator. Zero for single-node execution.
    pub fn healthy_workers(&self) -> usize {
        self.remote_shards
            .iter()
            .filter(|w| w.error.is_none())
            .count()
    }

    /// Workers that failed (timeout, disconnect, refused) — in partial
    /// mode their shards are missing from the returned rows.
    pub fn failed_workers(&self) -> usize {
        self.remote_shards.len() - self.healthy_workers()
    }
}

/// One worker's slice of a coordinator fan-out, attached to
/// [`Explain::remote_shards`] by the cluster coordinator. Mirrors
/// [`ShardExplain`] one level up: a worker serves a contiguous range of
/// documents (a subset of base/delta shards) and this records what its
/// round-trip contributed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoteShardExplain {
    /// Worker name from the shard map (e.g. `"w0"`).
    pub worker: String,
    /// Address the reply actually came from (primary or replica).
    pub addr: String,
    /// First global document id this worker owns.
    pub doc_base: u32,
    /// Number of documents this worker serves.
    pub docs: u32,
    /// Rows the worker contributed to the merged result.
    pub rows: usize,
    /// Wall-clock round-trip of the worker call as seen by the
    /// coordinator (enqueue to reply), in milliseconds.
    pub rtt_ms: f64,
    /// Structured error when the worker failed: `"timeout"`,
    /// `"disconnect"`, `"unavailable"`, or the worker's own error text.
    /// `None` on a healthy reply.
    pub error: Option<String>,
    /// Retries spent before the reply (0 = first attempt answered).
    pub retries: usize,
}

/// One shard's slice of an [`Explain`] report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardExplain {
    /// Shard id (position in the snapshot's shard list).
    pub shard: usize,
    /// Whether this is an append-only delta shard (live ingest).
    pub is_delta: bool,
    /// Index lookups DPLI performed (dominant paths only).
    pub lookups: usize,
    /// Candidate sentences DPLI produced for this shard.
    pub candidates: usize,
    /// Distinct candidate documents those sentences live in.
    pub docs: usize,
    /// Documents actually loaded + extracted (< `docs` iff the shard
    /// terminated early or a score bound proved some documents row-free).
    pub docs_processed: usize,
    /// Deduplicated raw tuples extracted from the processed documents.
    pub tuples: usize,
    /// Rows this shard handed to the merge. Equal to the rows that
    /// survived aggregation (threshold + `min_score`), except under a
    /// ranked top-k, where only the shard's best `offset + limit` rows
    /// are kept.
    pub rows: usize,
    /// Rows dropped by the request's `min_score` floor.
    pub min_score_pruned: usize,
    /// True when the shard stopped before `docs` ran out because the
    /// requested `offset + limit` rows were already found (`DocOrder`),
    /// or because no remaining document could beat the top-k heap floor
    /// (`ScoreDesc`). Skipping documents proven row-free is not stopping
    /// early: it loses no row and leaves this false.
    pub early_stopped: bool,
    /// Upper bound on any row score this shard could produce, derived
    /// from the compiled query plus the shard's bound statistics (`1.0`
    /// or the weights-only sum when statistics are absent, i.e. the
    /// snapshot has no `BOUNDS` section for the shard). `0.0` when the bound proves the shard row-free.
    pub score_bound: f64,
    /// The `ScoreDesc` top-k heap floor when the shard finished with a
    /// full heap — the score a document had to beat to matter. `None`
    /// when the heap never filled or the request was not a ranked top-k.
    pub heap_floor: Option<f64>,
    /// Candidate documents skipped because [`ShardExplain::score_bound`]
    /// proved the shard row-free (any request mode) or unable to beat
    /// [`ShardExplain::heap_floor`] (ranked top-k). Subset of the
    /// skipped-document totals in [`Profile`](crate::Profile).
    pub bound_skipped_docs: usize,
    /// Candidate documents skipped by the *block-max* refinement: the
    /// document's 32-doc block bound proved it row-free (any request
    /// mode) or unable to beat the heap floor (ranked top-k) while the
    /// shard-wide bound alone could not.
    /// Disjoint from [`ShardExplain::bound_skipped_docs`]; zero when the
    /// snapshot carries no block statistics (no `BLOCKS` section for the
    /// shard).
    pub block_bound_skipped_docs: usize,
    /// Galloping probes the DPLI candidate stream performed while
    /// intersecting this shard's posting cursors (exponential probe +
    /// binary search positions inspected).
    pub probes: usize,
    /// Sentences LoadArticle decoded for this shard (see
    /// [`Profile::sentences_decoded`](crate::Profile::sentences_decoded)).
    pub sentences_decoded: usize,
}
