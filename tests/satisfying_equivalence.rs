//! The evidence gate must be invisible in the answer: an engine whose
//! shards carry bound statistics (so row-free shards and blocks are
//! skipped before LoadArticle in every request mode) returns exactly what
//! the same snapshot returns with its statistics sections stripped — the
//! stats-less path, where nothing can be proven and every candidate
//! document is evaluated.
//!
//! Covers Example 2.3, the Figure 9 and Figure 10 queries, a `min_score`
//! request and clause-free / value-only queries; unrestricted, `DocOrder`
//! limit + offset and `ScoreDesc` limit; 1 / 2 / 4 shards; a one-shot
//! build, delta shards left by `add_texts`, and the `save` → `open` mmap.

use koko::core::{EngineOpts, Koko, Order, QueryOutput, QueryRequest};
use koko::queries;
use koko::storage::{SEC_BLOCKS, SEC_BOUNDS};

mod common;

/// Wiki articles and tweets with the cafe posts clustered at the end, so
/// whole blocks (and, sharded, whole shards) lack the cafe vocabulary.
fn mixed_texts() -> Vec<String> {
    let mut texts = koko::corpus::wiki::generate(70, 4242);
    texts.extend(koko::corpus::tweets::generate(40, 7).texts);
    texts.extend(koko::corpus::cafe::generate(koko::corpus::cafe::Style::Barista, 14, 4243).texts);
    texts
}

fn opts(num_shards: usize) -> EngineOpts {
    EngineOpts {
        num_shards,
        ..EngineOpts::default()
    }
}

/// Rows in full — text, spans, sids, docs, the score's bits — and order.
fn render(out: &QueryOutput) -> Vec<String> {
    out.rows
        .iter()
        .map(|r| {
            format!(
                "doc={} score={:016x} values={:?}",
                r.doc,
                r.score.to_bits(),
                r.values
            )
        })
        .collect()
}

struct Probe {
    label: &'static str,
    text: String,
    min_score: Option<f64>,
}

fn probes() -> Vec<Probe> {
    let probe = |label, text: &str, min_score| Probe {
        label,
        text: text.to_string(),
        min_score,
    };
    vec![
        probe("example 2.3", queries::EXAMPLE_2_3, None),
        probe("example 2.3, min_score", queries::EXAMPLE_2_3, Some(1.5)),
        probe("figure 9, τ=0.5", &queries::cafe_query(0.5), None),
        probe("figure 9, τ=0.9", &queries::cafe_query(0.9), None),
        probe("figure 10", &queries::facility_query(0.8), None),
        probe("title (clause-free)", queries::TITLE, None),
        probe("title, min_score", queries::TITLE, Some(1.0)),
        probe("date of birth (value-only)", queries::DATE_OF_BIRTH, None),
        probe("chocolate (value-only)", queries::CHOCOLATE, None),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Unrestricted,
    DocOrderWindow { offset: usize, limit: usize },
    Ranked { limit: usize },
}

const MODES: [Mode; 5] = [
    Mode::Unrestricted,
    Mode::DocOrderWindow {
        offset: 3,
        limit: 5,
    },
    Mode::DocOrderWindow {
        offset: 0,
        limit: 1000,
    },
    Mode::Ranked { limit: 5 },
    Mode::Ranked { limit: 1000 },
];

fn request(probe: &Probe, mode: Mode) -> QueryRequest {
    let mut req = QueryRequest::new(probe.text.as_str()).cache(false);
    if let Some(floor) = probe.min_score {
        req = req.min_score(floor);
    }
    match mode {
        Mode::Unrestricted => req,
        Mode::DocOrderWindow { offset, limit } => req.offset(offset).limit(limit),
        Mode::Ranked { limit } => req.order(Order::ScoreDesc).limit(limit),
    }
}

/// Every probe in every mode: `gated` against the statistics-free
/// `ungated` engine over the same shards.
fn assert_same_answers(gated: &Koko, ungated: &Koko, ctx: &str) {
    for probe in probes() {
        for mode in MODES {
            let ctx = format!("{} {mode:?} [{ctx}]", probe.label);
            let req = request(&probe, mode);
            let got = req.clone().run(gated).unwrap();
            let want = req.run(ungated).unwrap();
            assert_eq!(render(&got), render(&want), "{ctx}");
            match mode {
                // A ranked top-k stops on heap-floor bounds, which
                // statistics tighten: how much of the corpus was counted
                // may differ, the rows may not.
                Mode::Ranked { .. } => {
                    if !got.truncated && !want.truncated {
                        assert_eq!(got.total_matches, want.total_matches, "{ctx}");
                    }
                }
                _ => {
                    assert_eq!(got.total_matches, want.total_matches, "{ctx}");
                    assert_eq!(got.truncated, want.truncated, "{ctx}");
                    assert_eq!(
                        want.profile.bound_skipped_docs + want.profile.block_bound_skipped_docs,
                        0,
                        "{ctx}: nothing is provable without statistics"
                    );
                }
            }
        }
    }
}

#[test]
fn gated_engines_answer_like_the_statistics_free_snapshot() {
    let texts = mixed_texts();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for shards in [1, 2, 4] {
        // One-shot build, and the same corpus with its tail — the cafe
        // posts among it — arriving through `add_texts` (delta shards).
        let batch = Koko::from_texts_with_opts(&texts, opts(shards));
        let live = Koko::from_texts_with_opts(&texts[..90], opts(shards));
        live.add_texts(&texts[90..115]);
        live.add_texts(&texts[115..]);
        assert_eq!(live.num_delta_shards(), 1, "adds extend the open delta");

        for (built, label) in [(&batch, "batch"), (&live, "live")] {
            let ctx = format!("{label}, {shards} shards");
            let full = dir.join(format!("koko_sat_eq_{pid}_{shards}_{label}.koko"));
            let bare = dir.join(format!("koko_sat_eq_{pid}_{shards}_{label}_bare.koko"));
            built.save(&full).unwrap();
            // No `SEC_BOUNDS`, no `SEC_BLOCKS`: shards load with no
            // statistics at all.
            common::strip_sections(&full, &bare, &[SEC_BOUNDS, SEC_BLOCKS]);
            let mapped = Koko::open(&full).unwrap();
            let ungated = Koko::open(&bare).unwrap();
            std::fs::remove_file(&full).ok();
            std::fs::remove_file(&bare).ok();
            assert_eq!(ungated.num_shards(), built.num_shards(), "{ctx}");
            assert!(
                ungated
                    .snapshot()
                    .shards()
                    .iter()
                    .all(|s| s.bound_stats().is_none() && s.block_stats().is_none()),
                "{ctx}: the reference must carry no statistics"
            );

            assert_same_answers(built, &ungated, &format!("{ctx}, in memory"));
            assert_same_answers(&mapped, &ungated, &format!("{ctx}, mmap"));

            // The gate did engage — on a complete scan, exactly.
            let scan = QueryRequest::new(queries::EXAMPLE_2_3)
                .cache(false)
                .explain(true)
                .run(built)
                .unwrap();
            assert!(scan.profile.docs_skipped > 50, "{ctx}: {:?}", scan.profile);
            assert_eq!(
                scan.profile.docs_skipped,
                scan.profile.bound_skipped_docs + scan.profile.block_bound_skipped_docs,
                "{ctx}"
            );
            if label == "batch" {
                // (The live layout's cafe-free documents fill whole shards.)
                assert!(scan.profile.block_bound_skipped_docs > 0, "{ctx}");
            }
            assert!(!scan.truncated, "{ctx}");
            assert!(!scan.explain.unwrap().early_terminated(), "{ctx}");
            let reference = QueryRequest::new(queries::EXAMPLE_2_3)
                .cache(false)
                .run(&ungated)
                .unwrap();
            assert_eq!(reference.profile.docs_skipped, 0, "{ctx}");
            assert!(
                scan.profile.raw_tuples < reference.profile.raw_tuples,
                "{ctx}: skipped documents are never extracted"
            );
        }
    }
}

#[test]
fn the_gate_costs_value_only_queries_nothing() {
    // Their bounds cannot depend on a vocabulary, so no document is ever
    // skipped on their account and a complete scan touches all of them.
    let koko = Koko::from_texts_with_opts(&mixed_texts(), opts(2));
    for q in [queries::CHOCOLATE, queries::TITLE, queries::DATE_OF_BIRTH] {
        let out = QueryRequest::new(q).explain(true).run(&koko).unwrap();
        assert_eq!(out.profile.docs_skipped, 0, "{q}");
        let explain = out.explain.unwrap();
        for s in &explain.shards {
            assert_eq!(s.docs_processed, s.docs, "{q}");
        }
    }
}
