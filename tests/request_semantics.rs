//! The [`QueryRequest`] semantics contract, enforced over real corpora:
//!
//! * **Prefix property** — under either [`Order`], `limit(k).offset(n)`
//!   returns exactly rows `n .. n + k` of the unlimited run (top-k early
//!   termination may skip work, never change rows).
//! * **Row ordering** — `DocOrder` is byte-identical to the historical
//!   `Koko::query` order; `ScoreDesc` is sorted by descending score and
//!   stable (ties keep their `DocOrder` position).
//! * **`min_score`** — equivalent to post-filtering the full run by
//!   `score >= s`, but applied inside aggregation (pruned rows are
//!   counted, not returned).
//! * **Default request** — byte-identical to `Koko::query`, including
//!   totals (`total_matches == rows.len()`, `truncated == false`).
//! * **Result-cache slicing** — a cached full result serves any narrower
//!   limit/offset slice; a truncated run never poisons the cache.
//! * **Deadlines** — a zero budget fails with the structured error and
//!   no partial rows.

use koko::{queries, EngineOpts, Error, Koko, Order, QueryRequest, Row};
use proptest::prelude::*;

mod common;

const PAPER_QUERIES: &[&str] = &[
    queries::EXAMPLE_2_1,
    queries::EXAMPLE_2_3,
    queries::TITLE,
    queries::DATE_OF_BIRTH,
    queries::CHOCOLATE,
];

fn render_rows(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|r| format!("doc={} score={:.6} values={:?}", r.doc, r.score, r.values))
        .collect()
}

fn engine(texts: &[String], shards: usize, cache: usize) -> Koko {
    Koko::from_texts_with_opts(
        texts,
        EngineOpts {
            num_shards: shards,
            result_cache: cache,
            ..EngineOpts::default()
        },
    )
}

/// Assert the full prefix/window contract of one (engine, query, order)
/// against the unlimited run.
fn assert_window_contract(koko: &Koko, query: &str, order: Order, context: &str) {
    let full = QueryRequest::new(query)
        .order(order)
        .run(koko)
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(full.total_matches, full.rows.len(), "{context}");
    assert!(!full.truncated, "{context}");
    let full_rendered = render_rows(&full.rows);

    let windows: &[(usize, usize)] = &[
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 1),
        (1, 3),
        (2, 2),
        (0, full.rows.len()),
        (0, full.rows.len() + 3),
        (full.rows.len(), 2),
        (full.rows.len() + 5, 1),
    ];
    for &(offset, k) in windows {
        let out = QueryRequest::new(query)
            .order(order)
            .offset(offset)
            .limit(k)
            .run(koko)
            .unwrap_or_else(|e| panic!("{context} offset={offset} k={k}: {e}"));
        let start = offset.min(full_rendered.len());
        let end = (start + k).min(full_rendered.len());
        assert_eq!(
            render_rows(&out.rows),
            full_rendered[start..end],
            "{context}: limit({k}).offset({offset}) must be a window of the unlimited run"
        );
        // Totals: exact when nothing was skipped, a lower bound (that
        // still covers the returned window) when early-terminated.
        if out.truncated {
            assert!(out.total_matches >= end, "{context}");
            assert!(out.total_matches <= full.rows.len(), "{context}");
        } else {
            assert_eq!(out.total_matches, full.rows.len(), "{context}");
            assert_eq!(
                end - start,
                full.rows.len().saturating_sub(start).min(k),
                "{context}"
            );
        }
    }
}

#[test]
fn default_request_is_byte_identical_to_query() {
    let texts = koko::corpus::wiki::generate(12, 4242);
    for shards in [1, 3] {
        let koko = engine(&texts, shards, 0);
        for q in PAPER_QUERIES {
            let legacy = koko.query(q).unwrap();
            let req = QueryRequest::new(*q).run(&koko).unwrap();
            assert_eq!(render_rows(&legacy.rows), render_rows(&req.rows), "{q}");
            assert_eq!(req.total_matches, req.rows.len(), "{q}");
            assert!(!req.truncated, "{q}");
            assert!(req.explain.is_none(), "{q}");
            assert_eq!(legacy.total_matches, legacy.rows.len(), "{q}");
            assert_eq!(
                legacy.profile.candidate_sentences, req.profile.candidate_sentences,
                "{q}"
            );
            assert_eq!(legacy.profile.raw_tuples, req.profile.raw_tuples, "{q}");
            // A complete scan may still skip documents — those a score
            // bound proves row-free (`docs_skipped` counts them) — but it
            // never terminates early and is never truncated.
            assert!(!legacy.truncated, "{q}");
            let explained = QueryRequest::new(*q).explain(true).run(&koko).unwrap();
            assert!(!explained.explain.unwrap().early_terminated(), "{q}");
            assert_eq!(
                explained.profile.docs_skipped,
                explained.profile.bound_skipped_docs + explained.profile.block_bound_skipped_docs,
                "{q}: only bound-proven skips on an unlimited run"
            );
        }
    }
}

#[test]
fn limit_is_a_prefix_under_both_orders() {
    let texts = koko::corpus::wiki::generate(14, 99);
    for shards in [1, 4] {
        let koko = engine(&texts, shards, 0);
        for q in PAPER_QUERIES {
            for order in [Order::DocOrder, Order::ScoreDesc] {
                assert_window_contract(&koko, q, order, &format!("{q} shards={shards}"));
            }
        }
    }
}

#[test]
fn score_desc_is_sorted_and_stable() {
    let texts = koko::corpus::wiki::generate(16, 7);
    let koko = engine(&texts, 2, 0);
    for q in PAPER_QUERIES {
        let doc_order = QueryRequest::new(*q).run(&koko).unwrap();
        let scored = QueryRequest::new(*q)
            .order(Order::ScoreDesc)
            .run(&koko)
            .unwrap();
        assert_eq!(scored.rows.len(), doc_order.rows.len(), "{q}");
        // Sorted by descending score.
        for pair in scored.rows.windows(2) {
            assert!(pair[0].score >= pair[1].score, "{q}: not sorted");
        }
        // Stable: ties keep their DocOrder position. Reconstruct via a
        // stable sort over the DocOrder run and compare byte-for-byte.
        let mut expected = doc_order.rows.clone();
        expected.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
        assert_eq!(
            render_rows(&scored.rows),
            render_rows(&expected),
            "{q}: ScoreDesc must be the stable sort of the DocOrder run"
        );
    }
}

#[test]
fn min_score_equals_post_filtering_but_prunes_inside() {
    let texts = koko::corpus::wiki::generate(14, 4242);
    let koko = engine(&texts, 2, 0);
    for q in PAPER_QUERIES {
        let full = koko.query(q).unwrap();
        // Thresholds drawn from the actual score distribution, plus the
        // extremes.
        let mut floors: Vec<f64> = full.rows.iter().map(|r| r.score).collect();
        floors.push(0.0);
        floors.push(2.0);
        for floor in floors {
            let out = QueryRequest::new(*q).min_score(floor).run(&koko).unwrap();
            let expected: Vec<&Row> = full.rows.iter().filter(|r| r.score >= floor).collect();
            assert_eq!(
                render_rows(&out.rows),
                expected
                    .iter()
                    .map(|r| format!("doc={} score={:.6} values={:?}", r.doc, r.score, r.values))
                    .collect::<Vec<_>>(),
                "{q} floor={floor}"
            );
            assert_eq!(out.total_matches, expected.len(), "{q} floor={floor}");
            assert!(!out.truncated, "{q} floor={floor}");
            assert_eq!(
                out.profile.min_score_pruned,
                full.rows.len() - expected.len(),
                "{q} floor={floor}: every dropped row is counted"
            );
        }
    }
}

#[test]
fn top_k_early_termination_skips_documents() {
    // A corpus where every document matches: limit(1) must stop after the
    // first match and record the untouched candidates.
    let texts: Vec<String> = (0..30)
        .map(|_| {
            "Anna ate some delicious cheesecake that she bought at a grocery store.".to_string()
        })
        .collect();
    let koko = engine(&texts, 1, 0);
    let full = koko.query(queries::EXAMPLE_2_1).unwrap();
    assert_eq!(full.rows.len(), 30);
    let limited = QueryRequest::new(queries::EXAMPLE_2_1)
        .limit(1)
        .run(&koko)
        .unwrap();
    assert_eq!(limited.rows.len(), 1);
    assert!(limited.truncated);
    assert_eq!(render_rows(&limited.rows), render_rows(&full.rows[..1]));
    assert!(
        limited.profile.docs_skipped >= 25,
        "early termination must skip most documents (skipped {})",
        limited.profile.docs_skipped
    );
    assert!(limited.profile.candidates_skipped >= 25);
    assert!(
        limited.profile.raw_tuples < full.profile.raw_tuples,
        "skipped documents were never extracted"
    );
    // ScoreDesc prunes too: EXAMPLE_2_1 has no satisfying clause, so
    // every row scores exactly the shard bound (1.0) — after the first
    // document fills the heap, no later document can beat the floor
    // (score ties lose to the incumbent's smaller key).
    let scored = QueryRequest::new(queries::EXAMPLE_2_1)
        .limit(1)
        .order(Order::ScoreDesc)
        .run(&koko)
        .unwrap();
    assert_eq!(scored.rows.len(), 1);
    assert!(scored.truncated);
    assert_eq!(render_rows(&scored.rows), render_rows(&full.rows[..1]));
    assert!(
        scored.profile.bound_skipped_docs >= 25,
        "the score bound must skip most documents (skipped {})",
        scored.profile.bound_skipped_docs
    );
    assert_eq!(
        scored.profile.docs_skipped,
        scored.profile.bound_skipped_docs
    );
    assert!(scored.profile.candidates_skipped >= 25);
    assert!(
        scored.total_matches >= 1,
        "total_matches stays a lower bound under ranked early termination"
    );
}

#[test]
fn cached_full_results_serve_narrower_slices() {
    let texts: Vec<String> = (0..8)
        .map(|_| {
            "Anna ate some delicious cheesecake that she bought at a grocery store.".to_string()
        })
        .collect();
    let koko = engine(&texts, 1, 16);
    let full = koko.query(queries::EXAMPLE_2_1).unwrap();
    assert_eq!(full.profile.result_cache_misses, 1);
    // Any narrower window is a hit on the cached full result.
    for (offset, k) in [(0, 3), (2, 2), (5, 10), (0, 0)] {
        let out = QueryRequest::new(queries::EXAMPLE_2_1)
            .offset(offset)
            .limit(k)
            .run(&koko)
            .unwrap();
        assert_eq!(out.profile.result_cache_hits, 1, "offset={offset} k={k}");
        let end = (offset + k).min(full.rows.len());
        let start = offset.min(full.rows.len());
        assert_eq!(
            render_rows(&out.rows),
            render_rows(&full.rows[start..end]),
            "offset={offset} k={k}"
        );
        assert_eq!(out.total_matches, full.rows.len());
        assert_eq!(out.truncated, end < full.rows.len());
    }
}

#[test]
fn truncated_results_never_poison_the_cache() {
    let texts: Vec<String> = (0..10)
        .map(|_| {
            "Anna ate some delicious cheesecake that she bought at a grocery store.".to_string()
        })
        .collect();
    let koko = engine(&texts, 1, 16);
    // Cold limited query: evaluates (miss), early-terminates, must NOT be
    // stored — the follow-up unlimited query has to see every row.
    let limited = QueryRequest::new(queries::EXAMPLE_2_1)
        .limit(2)
        .run(&koko)
        .unwrap();
    assert!(limited.truncated);
    assert_eq!(limited.profile.result_cache_misses, 1);
    let full = koko.query(queries::EXAMPLE_2_1).unwrap();
    assert_eq!(
        full.profile.result_cache_hits, 0,
        "truncated entry must not serve the unlimited request"
    );
    assert_eq!(full.rows.len(), 10);
    // Now the full result is cached; the limited request hits and slices.
    let again = QueryRequest::new(queries::EXAMPLE_2_1)
        .limit(2)
        .run(&koko)
        .unwrap();
    assert_eq!(again.profile.result_cache_hits, 1);
    assert_eq!(render_rows(&again.rows), render_rows(&full.rows[..2]));
    // min_score and order are part of the key: no false sharing.
    let floored = QueryRequest::new(queries::EXAMPLE_2_1)
        .min_score(0.5)
        .run(&koko)
        .unwrap();
    assert_eq!(floored.profile.result_cache_hits, 0, "different key");
    let scored = QueryRequest::new(queries::EXAMPLE_2_1)
        .order(Order::ScoreDesc)
        .run(&koko)
        .unwrap();
    assert_eq!(scored.profile.result_cache_hits, 0, "different key");
}

#[test]
fn zero_deadline_fails_structurally_with_no_partial_rows() {
    let koko = engine(&koko::corpus::wiki::generate(6, 1), 2, 16);
    let err = QueryRequest::new(queries::EXAMPLE_2_1)
        .deadline(std::time::Duration::ZERO)
        .run(&koko)
        .unwrap_err();
    match err {
        Error::DeadlineExceeded { budget, elapsed } => {
            assert_eq!(budget, std::time::Duration::ZERO);
            assert!(elapsed >= budget);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // A generous deadline answers identically to no deadline at all.
    let with = QueryRequest::new(queries::EXAMPLE_2_1)
        .deadline(std::time::Duration::from_secs(3600))
        .run(&koko)
        .unwrap();
    let without = koko.query(queries::EXAMPLE_2_1).unwrap();
    assert_eq!(render_rows(&with.rows), render_rows(&without.rows));
}

#[test]
fn explain_reports_are_consistent_with_the_profile() {
    let texts = koko::corpus::wiki::generate(10, 4242);
    let koko = engine(&texts, 3, 16);
    for q in PAPER_QUERIES {
        let out = QueryRequest::new(*q).explain(true).run(&koko).unwrap();
        let explain = out.explain.as_ref().unwrap_or_else(|| panic!("{q}"));
        assert_eq!(explain.shards.len(), koko.num_shards(), "{q}");
        assert_eq!(
            explain.total_candidates(),
            out.profile.candidate_sentences,
            "{q}"
        );
        let rows_total: usize = explain.shards.iter().map(|s| s.rows).sum();
        assert_eq!(rows_total, out.rows.len(), "{q}");
        let tuples_total: usize = explain.shards.iter().map(|s| s.tuples).sum();
        assert_eq!(tuples_total, out.profile.raw_tuples, "{q}");
        assert!(!explain.early_terminated(), "{q}: unlimited run");
        // Explain never changes the rows.
        assert_eq!(
            render_rows(&out.rows),
            render_rows(&koko.query_with_cache(q, false).unwrap().rows),
            "{q}"
        );
        // TITLE has a horizontal condition, so a skip plan must be
        // rendered when candidates reached the planner.
        if *q == queries::TITLE && out.profile.candidate_sentences > 0 {
            assert!(!explain.plans.is_empty(), "{q}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The ranked-top-k contract: bounded-heap `ScoreDesc` with WAND-style
    /// bound pruning returns rows byte-identical (content, order, scores)
    /// to windowing the full-scan reference — across random corpora,
    /// shard counts, limits, offsets and `min_score` floors — and a
    /// snapshot without bound statistics (no `BOUNDS` or `BLOCKS`
    /// sections) answers identically via the conservative bound, just
    /// with less pruning.
    #[test]
    fn ranked_topk_is_byte_identical_to_full_scan(
        (n_docs, corpus_seed) in (1usize..14, 0u64..400),
        (shards, qi) in (1usize..5, 0usize..5),
        (offset, k) in (0usize..6, 1usize..8),
        floor_half in 0u32..4, // min_score = half * 0.25
    ) {
        let texts = koko::corpus::wiki::generate(n_docs, corpus_seed);
        let koko = engine(&texts, shards, 0);
        let q = PAPER_QUERIES[qi];
        let floor = f64::from(floor_half) * 0.25;
        let ctx = format!(
            "{q} docs={n_docs} seed={corpus_seed} shards={shards} floor={floor} offset={offset} k={k}"
        );

        // Full-scan reference: no limit ⇒ the heap never engages.
        let full = QueryRequest::new(q)
            .order(Order::ScoreDesc)
            .min_score(floor)
            .run(&koko)
            .unwrap();
        prop_assert!(!full.truncated, "{}", &ctx);
        let start = offset.min(full.rows.len());
        let end = (start + k).min(full.rows.len());
        let expected = render_rows(&full.rows[start..end]);

        let ranked = QueryRequest::new(q)
            .order(Order::ScoreDesc)
            .min_score(floor)
            .offset(offset)
            .limit(k)
            .run(&koko)
            .unwrap();
        prop_assert_eq!(render_rows(&ranked.rows), expected.clone(), "{}", &ctx);
        if ranked.truncated {
            prop_assert!(
                ranked.total_matches >= end && ranked.total_matches <= full.rows.len(),
                "{}: truncated totals stay a covering lower bound", &ctx
            );
        } else {
            prop_assert_eq!(ranked.total_matches, full.rows.len(), "{}", &ctx);
        }

        // Conservative-bound path: the same request against a snapshot
        // with its statistics sections stripped must answer
        // byte-identically.
        let pid = std::process::id();
        let saved = std::env::temp_dir().join(format!(
            "koko_ranked_{pid}_{n_docs}_{corpus_seed}_{shards}.koko"
        ));
        let path = std::env::temp_dir().join(format!(
            "koko_ranked_nostats_{pid}_{n_docs}_{corpus_seed}_{shards}.koko"
        ));
        koko.save(&saved).unwrap();
        common::strip_sections(
            &saved,
            &path,
            &[koko::storage::SEC_BOUNDS, koko::storage::SEC_BLOCKS],
        );
        let stats_less = Koko::open(&path).unwrap();
        std::fs::remove_file(&saved).ok();
        std::fs::remove_file(&path).ok();
        prop_assert!(
            stats_less
                .snapshot()
                .shards()
                .iter()
                .all(|s| s.bound_stats().is_none() && s.block_stats().is_none()),
            "{}: stripped file must load without stats", &ctx
        );
        let out = QueryRequest::new(q)
            .order(Order::ScoreDesc)
            .min_score(floor)
            .offset(offset)
            .limit(k)
            .run(&stats_less)
            .unwrap();
        prop_assert_eq!(render_rows(&out.rows), expected, "{} (statistics-free path)", &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any corpus, any shard count, either order, any window: `limit(k)`
    /// after `offset(n)` equals rows `n..n+k` of the unlimited run, and
    /// `min_score` equals post-filtering — including both combined.
    #[test]
    fn windows_and_floors_match_the_unlimited_run(
        (n_docs, corpus_seed) in (1usize..14, 0u64..400),
        (shards, qi) in (1usize..5, 0usize..5),
        (offset, k) in (0usize..6, 0usize..8),
        (floor_half, score_desc) in (0u32..4, any::<bool>()), // min_score = half * 0.25
    ) {
        let texts = koko::corpus::wiki::generate(n_docs, corpus_seed);
        let koko = engine(&texts, shards, 0);
        let q = PAPER_QUERIES[qi];
        let order = if score_desc { Order::ScoreDesc } else { Order::DocOrder };
        let floor = f64::from(floor_half) * 0.25;

        let full = QueryRequest::new(q).order(order).run(&koko).unwrap();
        let filtered: Vec<&Row> = full.rows.iter().filter(|r| r.score >= floor).collect();
        let windowed = QueryRequest::new(q)
            .order(order)
            .min_score(floor)
            .offset(offset)
            .limit(k)
            .run(&koko)
            .unwrap();
        let start = offset.min(filtered.len());
        let end = (start + k).min(filtered.len());
        let expected: Vec<String> = filtered[start..end]
            .iter()
            .map(|r| format!("doc={} score={:.6} values={:?}", r.doc, r.score, r.values))
            .collect();
        prop_assert_eq!(
            render_rows(&windowed.rows),
            expected,
            "{} docs={} seed={} shards={} order={:?} floor={} offset={} k={}",
            q, n_docs, corpus_seed, shards, order, floor, offset, k
        );
        if !windowed.truncated {
            prop_assert_eq!(windowed.total_matches, filtered.len());
        } else {
            prop_assert!(windowed.total_matches <= filtered.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The streamed executor (galloping DPLI intersection + block-max
    /// pruning) returns rows byte-identical — content, order, scores —
    /// to the force-materialized reference (the unlimited run, windowed
    /// by hand), across random corpora, shard counts, both orders,
    /// limits, offsets and `min_score` floors. The contract holds on
    /// the in-memory engine (block statistics present), on a reloaded
    /// v4 snapshot, and on the same snapshot with its `SEC_BLOCKS`
    /// sections stripped (shard bounds only — no block-max pruning);
    /// `total_matches` must agree whenever the run is not truncated.
    #[test]
    fn blockmax_streaming_matches_materialized_reference(
        (n_docs, corpus_seed) in (1usize..14, 0u64..400),
        (shards, qi) in (1usize..5, 0usize..5),
        (offset, k) in (0usize..6, 1usize..8),
        (floor_half, score_desc) in (0u32..4, any::<bool>()), // min_score = half * 0.25
    ) {
        let texts = koko::corpus::wiki::generate(n_docs, corpus_seed);
        let koko = engine(&texts, shards, 0);
        let q = PAPER_QUERIES[qi];
        let order = if score_desc { Order::ScoreDesc } else { Order::DocOrder };
        let floor = f64::from(floor_half) * 0.25;
        let ctx = format!(
            "{q} docs={n_docs} seed={corpus_seed} shards={shards} order={order:?} floor={floor} offset={offset} k={k}"
        );

        // Force-materialized reference: no limit ⇒ neither the bounded
        // heap nor any bound pruning engages; window it by hand.
        let full = QueryRequest::new(q)
            .order(order)
            .min_score(floor)
            .run(&koko)
            .unwrap();
        prop_assert!(!full.truncated, "{}", &ctx);
        let start = offset.min(full.rows.len());
        let end = (start + k).min(full.rows.len());
        let expected = render_rows(&full.rows[start..end]);

        let check = |engine: &Koko, label: &str| -> Result<(), TestCaseError> {
            let out = QueryRequest::new(q)
                .order(order)
                .min_score(floor)
                .offset(offset)
                .limit(k)
                .run(engine)
                .unwrap();
            prop_assert_eq!(
                render_rows(&out.rows),
                expected.clone(),
                "{} [{}]",
                &ctx,
                label
            );
            if !out.truncated {
                prop_assert_eq!(out.total_matches, full.rows.len(), "{} [{}]", &ctx, label);
            }
            Ok(())
        };
        check(&koko, "in-memory")?;

        let pid = std::process::id();
        let v4 = std::env::temp_dir().join(format!(
            "koko_blockmax_{pid}_{n_docs}_{corpus_seed}_{shards}.koko"
        ));
        koko.save(&v4).unwrap();
        let reloaded = Koko::open(&v4).unwrap();
        prop_assert!(
            reloaded.snapshot().shards().iter().all(|s| s.block_stats().is_some()),
            "{}: v4 saves must carry block statistics", &ctx
        );
        check(&reloaded, "v4 mmap")?;

        let no_blocks = std::env::temp_dir().join(format!(
            "koko_blockmax_nb_{pid}_{n_docs}_{corpus_seed}_{shards}.koko"
        ));
        // Without `SEC_BLOCKS` the file still carries per-shard bound
        // statistics, but the block-max refinement has nothing to work
        // with — the shape a pre-block-stats v4 writer produced.
        common::strip_sections(&v4, &no_blocks, &[koko::storage::SEC_BLOCKS]);
        let stripped = Koko::open(&no_blocks).unwrap();
        std::fs::remove_file(&v4).ok();
        std::fs::remove_file(&no_blocks).ok();
        prop_assert!(
            stripped
                .snapshot()
                .shards()
                .iter()
                .all(|s| s.block_stats().is_none() && s.bound_stats().is_some()),
            "{}: stripped file must keep shard bounds but lose blocks", &ctx
        );
        check(&stripped, "v4 blocks-stripped")?;
    }
}
