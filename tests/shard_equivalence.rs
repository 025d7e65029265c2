//! Sharded/parallel execution must be *byte-identical* (rows, order,
//! scores) to the sequential single-shard evaluator — the correctness
//! contract of the sharded architecture. Exercises 1-document, empty,
//! shard-boundary (docs == shards, docs < shards, docs % shards != 0) and
//! generator corpora across the paper's query set, plus `query_batch`.

use koko::core::{EngineOpts, Koko};
use koko::nlp::Pipeline;
use koko::{queries, Corpus, QueryOutput};

fn opts(num_shards: usize, parallel: bool) -> EngineOpts {
    EngineOpts {
        num_shards,
        parallel,
        ..EngineOpts::default()
    }
}

/// Render rows with full content so comparisons cover text, spans, sids,
/// docs, scores — and ORDER (no sorting here on purpose).
fn render(out: &QueryOutput) -> Vec<String> {
    out.rows
        .iter()
        .map(|r| format!("doc={} score={:.6} values={:?}", r.doc, r.score, r.values))
        .collect()
}

fn assert_equivalent(corpus: &Corpus, queries: &[&str], shard_counts: &[usize]) {
    let sequential = Koko::from_corpus_with_opts(corpus.clone(), opts(1, false));
    for &k in shard_counts {
        let sharded = Koko::from_corpus_with_opts(corpus.clone(), opts(k, true));
        for q in queries {
            let a = sequential
                .query(q)
                .unwrap_or_else(|e| panic!("seq {q}: {e}"));
            let b = sharded
                .query(q)
                .unwrap_or_else(|e| panic!("shard {q}: {e}"));
            assert_eq!(
                render(&a),
                render(&b),
                "rows differ (shards={k}) for query: {q}"
            );
            assert_eq!(
                a.profile.candidate_sentences, b.profile.candidate_sentences,
                "candidate count differs (shards={k}) for query: {q}"
            );
            assert_eq!(
                a.profile.raw_tuples, b.profile.raw_tuples,
                "raw tuple count differs (shards={k}) for query: {q}"
            );
        }
    }
}

const PAPER_QUERIES: &[&str] = &[
    queries::EXAMPLE_2_1,
    queries::EXAMPLE_2_3,
    queries::TITLE,
    queries::DATE_OF_BIRTH,
    queries::CHOCOLATE,
];

#[test]
fn empty_corpus() {
    let corpus = Corpus::new(Vec::new());
    assert_equivalent(&corpus, PAPER_QUERIES, &[2, 4]);
}

#[test]
fn single_document_corpus() {
    let corpus = Pipeline::new()
        .parse_corpus(&["I ate a chocolate ice cream, which was delicious, and also ate a pie."]);
    // More shards than documents: the layer must clamp, not crash.
    assert_equivalent(&corpus, PAPER_QUERIES, &[1, 2, 8]);
}

#[test]
fn shard_boundary_corpora() {
    let texts = koko::corpus::wiki::generate(6, 99);
    let corpus = Pipeline::new().parse_corpus(&texts);
    // docs == shards, docs % shards != 0, docs < shards.
    assert_equivalent(&corpus, PAPER_QUERIES, &[6, 4, 16]);
}

#[test]
fn wiki_corpus_all_scaleup_queries() {
    let texts = koko::corpus::wiki::generate(40, 4242);
    let corpus = Pipeline::new().parse_corpus(&texts);
    assert_equivalent(&corpus, PAPER_QUERIES, &[2, 3, 7]);
}

#[test]
fn happydb_corpus_synthetic_queries() {
    // The gsp_equivalence-style corpus: HappyDB sentences with generated
    // span queries of mixed atom counts.
    let texts = koko::corpus::happydb::generate(30, 13);
    let corpus = Pipeline::new().parse_corpus(&texts);
    let generated = koko::corpus::synthetic_span::generate(&corpus, 3);
    let sample: Vec<&str> = generated
        .iter()
        .filter(|q| q.atoms <= 3)
        .step_by(11)
        .map(|q| q.text.as_str())
        .collect();
    assert!(sample.len() >= 8, "need a meaningful query sample");
    assert_equivalent(&corpus, &sample, &[3, 5]);
}

#[test]
fn store_backed_and_in_memory_paths_agree_when_sharded() {
    let texts = koko::corpus::wiki::generate(12, 7);
    let corpus = Pipeline::new().parse_corpus(&texts);
    let stored = Koko::from_corpus_with_opts(corpus.clone(), opts(4, true));
    let borrowed = Koko::from_corpus_with_opts(
        corpus,
        EngineOpts {
            store_backed: false,
            ..opts(4, true)
        },
    );
    for q in PAPER_QUERIES {
        assert_eq!(
            render(&stored.query(q).unwrap()),
            render(&borrowed.query(q).unwrap()),
            "store-backed vs in-memory rows differ for: {q}"
        );
    }
}

#[test]
fn query_batch_matches_individual_queries() {
    let texts = koko::corpus::wiki::generate(15, 21);
    let corpus = Pipeline::new().parse_corpus(&texts);
    for k in [1, 3] {
        let koko = Koko::from_corpus_with_opts(corpus.clone(), opts(k, true));
        let batch = koko.query_batch(PAPER_QUERIES);
        assert_eq!(batch.len(), PAPER_QUERIES.len());
        for (q, out) in PAPER_QUERIES.iter().zip(batch) {
            let individual = koko.query(q).unwrap();
            assert_eq!(
                render(&individual),
                render(&out.unwrap()),
                "batch result differs (shards={k}) for: {q}"
            );
        }
    }
    // Errors surface per slot without poisoning the batch.
    let koko = Koko::from_corpus_with_opts(corpus, opts(2, true));
    let mixed = koko.query_batch(&["not a query", queries::TITLE]);
    assert!(mixed[0].is_err());
    assert!(mixed[1].is_ok());
}

#[test]
fn resharding_via_with_opts_preserves_results() {
    let texts = koko::corpus::wiki::generate(10, 5);
    let corpus = Pipeline::new().parse_corpus(&texts);
    let base = Koko::from_corpus_with_opts(corpus, opts(1, false));
    let expected = render(&base.query(queries::TITLE).unwrap());
    let resharded = base.with_opts(opts(5, true));
    assert_eq!(resharded.num_shards(), 5);
    assert_eq!(render(&resharded.query(queries::TITLE).unwrap()), expected);
}

#[test]
fn values_differing_only_in_case_are_scored_separately() {
    // `contains` is case-sensitive, and this clause is document-independent
    // (one score slot per value per *shard*): a slot keyed by the folded
    // text would let whichever spelling a shard sees first answer for the
    // others, so rows would depend on shard count and document order.
    let q = r#"extract x:Entity from "t" if () satisfying x (str(x) contains "Cafe" {1}) with threshold 0.8"#;
    let mut texts = vec![
        "Anna visited Copper Cafe in Portland.",
        "Anna visited Copper cafe in Portland.",
        "Anna visited COPPER CAFE in Portland.",
    ];
    for reversed in [false, true] {
        if reversed {
            texts.reverse();
        }
        let corpus = Pipeline::new().parse_corpus(&texts);
        assert_equivalent(&corpus, &[q], &[1, 3]);
        let out = Koko::from_corpus_with_opts(corpus, opts(3, true))
            .query(q)
            .unwrap();
        assert_eq!(out.distinct("x"), ["Copper Cafe"], "reversed={reversed}");
        assert_eq!(out.rows.len(), 1, "reversed={reversed}");
    }
}
