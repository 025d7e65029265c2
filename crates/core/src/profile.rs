//! Per-stage wall-clock profiling: the six columns of Table 2
//! (Normalize, DPLI, LoadArticle, GSP, extract, satisfying).

use std::time::Duration;

/// Accumulated stage timings for one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Profile {
    /// Parse + normalize the query text (§4.1), on the calling thread.
    pub normalize: Duration,
    /// Dominant-path index lookups producing candidate sentences (§4.2).
    pub dpli: Duration,
    /// Decoding candidate sentences — and, where a clause reads the rest
    /// of the document, whole articles — from the document store, and
    /// dropping them again.
    pub load_article: Duration,
    /// Generating skip plans (§4.3).
    pub gsp: Duration,
    /// Binding domains + extracting tuples from candidate sentences, and
    /// rendering, sorting and deduplicating the canonical row keys.
    pub extract: Duration,
    /// Scoring satisfying/excluding clauses and aggregating evidence;
    /// includes deriving the score bounds documents are skipped on.
    pub satisfying: Duration,
    /// Number of candidate sentences DPLI produced.
    pub candidate_sentences: usize,
    /// Sentences LoadArticle decoded from the document store. Equal to the
    /// candidate sentences of the documents actually processed when no
    /// clause reads beyond them; an article decoded whole (a
    /// `followed by` / `preceded by` / `near` / descriptor condition
    /// consulted the document) counts all of its sentences. Zero when
    /// articles are borrowed from the in-memory corpus
    /// (`store_backed: false`) and on a result-cache hit.
    pub sentences_decoded: usize,
    /// The subset of [`Profile::candidate_sentences`] that came from
    /// *delta* shards — documents ingested live since the last
    /// compaction. Zero on a fully compacted (or never-updated) index.
    pub delta_candidates: usize,
    /// Number of result rows before aggregation filtering.
    pub raw_tuples: usize,
    /// Candidate documents never loaded or extracted: those after a
    /// [`QueryRequest::limit`](crate::QueryRequest::limit) was satisfied
    /// (top-k early termination), plus the bound-driven skips counted in
    /// [`Profile::bound_skipped_docs`] and
    /// [`Profile::block_bound_skipped_docs`]. An unlimited run can report
    /// skips too — documents proven row-free — and is complete all the
    /// same.
    pub docs_skipped: usize,
    /// Candidate sentences inside those skipped documents — extraction
    /// work avoided entirely.
    pub candidates_skipped: usize,
    /// Candidate documents skipped on their *shard's* score upper bound.
    /// In every request mode: the documents of a shard whose bound proves
    /// it row-free (a satisfying clause cannot reach its threshold
    /// anywhere in it) — exact, no row is lost. Under `ScoreDesc` top-k
    /// also: documents whose shard bound could not beat the worst score
    /// already in the bounded heap (WAND-style pruning), or lies under the
    /// `min_score` floor. A subset of [`Profile::docs_skipped`].
    pub bound_skipped_docs: usize,
    /// Candidate documents skipped by the *block-max* refinement: the
    /// document's 32-doc block bound (a tighter, per-block analogue of the
    /// shard bound) proved it row-free — in every request mode — or, under
    /// `ScoreDesc` top-k, unable to beat the heap floor, while the
    /// shard-wide bound alone could not. Disjoint from
    /// [`Profile::bound_skipped_docs`]; both are subsets of
    /// [`Profile::docs_skipped`].
    pub block_bound_skipped_docs: usize,
    /// Galloping probes the DPLI candidate stream performed: sorted-list
    /// positions inspected while intersecting posting cursors
    /// (exponential probe + binary search). The streamed analogue of a
    /// comparison count — lower means the skips paid off.
    pub gallop_probes: usize,
    /// Rows whose aggregated score fell below
    /// [`QueryRequest::min_score`](crate::QueryRequest::min_score) and were
    /// dropped inside the aggregation stage (never merged or returned).
    /// Every such row on a run that did not terminate early.
    pub min_score_pruned: usize,
    /// Compiled-query cache hits for this execution (0 or 1 per query;
    /// accumulates under [`Profile::merge`]).
    pub compiled_cache_hits: usize,
    /// Compiled-query cache misses (the query was parsed + normalized +
    /// compiled from scratch).
    pub compiled_cache_misses: usize,
    /// Result-cache hits: the rows were served straight from the LRU and
    /// every evaluation stage (DPLI, LoadArticle, GSP, extract,
    /// satisfying) was skipped — their timers stay zero.
    pub result_cache_hits: usize,
    /// Result-cache misses while the result cache was enabled (0 when it
    /// is off or bypassed).
    pub result_cache_misses: usize,
    /// Workers a cluster coordinator fanned this query out to (0 for
    /// single-node execution — every pre-cluster profile shape is
    /// preserved exactly).
    pub remote_shards: usize,
    /// Wall-clock spent waiting on worker round-trips at the coordinator
    /// (max over concurrently outstanding workers per fan-out, summed by
    /// [`Profile::merge`] like every other stage timer). Zero for
    /// single-node execution.
    pub remote_wait: Duration,
}

impl Profile {
    /// Total across all stages.
    pub fn total(&self) -> Duration {
        self.normalize + self.dpli + self.load_article + self.gsp + self.extract + self.satisfying
    }

    /// One formatted row matching the Table 2 layout (seconds).
    pub fn table_row(&self) -> String {
        fn s(d: Duration) -> f64 {
            d.as_secs_f64()
        }
        format!(
            "{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
            s(self.normalize),
            s(self.dpli),
            s(self.load_article),
            s(self.gsp),
            s(self.extract),
            s(self.satisfying)
        )
    }

    /// Merge another profile into this one: stage timers and counters
    /// accumulate field-by-field. This is how the sharded executor folds
    /// per-shard timings into the query profile (so `extract` measured on
    /// shard 3 adds to — rather than overwrites — shard 0's), and how the
    /// benches average over repeated runs. Under parallel execution the
    /// merged durations are *CPU time summed across workers*, which can
    /// exceed wall-clock time.
    pub fn merge(&mut self, other: &Profile) {
        self.normalize += other.normalize;
        self.dpli += other.dpli;
        self.load_article += other.load_article;
        self.gsp += other.gsp;
        self.extract += other.extract;
        self.satisfying += other.satisfying;
        self.candidate_sentences += other.candidate_sentences;
        self.sentences_decoded += other.sentences_decoded;
        self.delta_candidates += other.delta_candidates;
        self.raw_tuples += other.raw_tuples;
        self.docs_skipped += other.docs_skipped;
        self.candidates_skipped += other.candidates_skipped;
        self.bound_skipped_docs += other.bound_skipped_docs;
        self.block_bound_skipped_docs += other.block_bound_skipped_docs;
        self.gallop_probes += other.gallop_probes;
        self.min_score_pruned += other.min_score_pruned;
        self.compiled_cache_hits += other.compiled_cache_hits;
        self.compiled_cache_misses += other.compiled_cache_misses;
        self.result_cache_hits += other.result_cache_hits;
        self.result_cache_misses += other.result_cache_misses;
        self.remote_shards += other.remote_shards;
        self.remote_wait += other.remote_wait;
    }

    /// Merge another profile into this one (alias of [`Profile::merge`],
    /// kept for the benches' averaging loops).
    pub fn add(&mut self, other: &Profile) {
        self.merge(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rows() {
        let p = Profile {
            normalize: Duration::from_millis(1),
            dpli: Duration::from_millis(2),
            extract: Duration::from_millis(3),
            ..Profile::default()
        };
        assert_eq!(p.total(), Duration::from_millis(6));
        let row = p.table_row();
        assert_eq!(row.split('\t').count(), 6);
        let mut q = Profile::default();
        q.add(&p);
        q.add(&p);
        assert_eq!(q.total(), Duration::from_millis(12));
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = Profile {
            normalize: Duration::from_millis(1),
            dpli: Duration::from_millis(2),
            load_article: Duration::from_millis(3),
            gsp: Duration::from_millis(4),
            extract: Duration::from_millis(5),
            satisfying: Duration::from_millis(6),
            candidate_sentences: 10,
            sentences_decoded: 8,
            delta_candidates: 4,
            raw_tuples: 20,
            docs_skipped: 1,
            candidates_skipped: 2,
            bound_skipped_docs: 5,
            block_bound_skipped_docs: 6,
            gallop_probes: 7,
            min_score_pruned: 3,
            compiled_cache_hits: 1,
            compiled_cache_misses: 0,
            result_cache_hits: 0,
            result_cache_misses: 1,
            remote_shards: 2,
            remote_wait: Duration::from_millis(7),
        };
        let b = Profile {
            normalize: Duration::from_millis(10),
            dpli: Duration::from_millis(20),
            load_article: Duration::from_millis(30),
            gsp: Duration::from_millis(40),
            extract: Duration::from_millis(50),
            satisfying: Duration::from_millis(60),
            candidate_sentences: 100,
            sentences_decoded: 80,
            delta_candidates: 7,
            raw_tuples: 200,
            docs_skipped: 10,
            candidates_skipped: 20,
            bound_skipped_docs: 50,
            block_bound_skipped_docs: 60,
            gallop_probes: 70,
            min_score_pruned: 30,
            compiled_cache_hits: 2,
            compiled_cache_misses: 3,
            result_cache_hits: 4,
            result_cache_misses: 5,
            remote_shards: 3,
            remote_wait: Duration::from_millis(70),
        };
        a.merge(&b);
        assert_eq!(a.normalize, Duration::from_millis(11));
        assert_eq!(a.satisfying, Duration::from_millis(66));
        assert_eq!(a.candidate_sentences, 110);
        assert_eq!(a.sentences_decoded, 88);
        assert_eq!(a.delta_candidates, 11);
        assert_eq!(a.raw_tuples, 220);
        assert_eq!(a.docs_skipped, 11);
        assert_eq!(a.candidates_skipped, 22);
        assert_eq!(a.bound_skipped_docs, 55);
        assert_eq!(a.block_bound_skipped_docs, 66);
        assert_eq!(a.gallop_probes, 77);
        assert_eq!(a.min_score_pruned, 33);
        assert_eq!(a.compiled_cache_hits, 3);
        assert_eq!(a.compiled_cache_misses, 3);
        assert_eq!(a.result_cache_hits, 4);
        assert_eq!(a.result_cache_misses, 6);
        assert_eq!(a.remote_shards, 5);
        assert_eq!(a.remote_wait, Duration::from_millis(77));
        assert_eq!(a.total(), Duration::from_millis(231));
    }
}
