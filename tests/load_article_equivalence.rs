//! Sentence-granular LoadArticle must be invisible in the answer: an engine
//! that decodes only the candidate sentences of each stored article (and
//! the rest of it only when a clause asks for document evidence) returns
//! exactly what the same snapshot returns when every article is read as a
//! whole parsed `Document` (`store_backed: false`, which never goes through
//! the article view at all).
//!
//! Covers chocolate / title / date of birth (value-only clauses: candidates
//! only), Example 2.3 and the Figure 9 query (whole article up front), a
//! selective query whose clause reads the document, and a query that
//! completes articles lazily from its excluding condition; unrestricted,
//! `DocOrder` window and `ScoreDesc` limit; 1 / 2 / 4 shards; a one-shot
//! build and delta shards left by `add_texts`; in memory and `save` →
//! `open` mmap. The last test damages stored articles and checks that
//! queries fail structured, not with a panic.

use koko::core::{EngineOpts, Error, Koko, Order, QueryOutput, QueryRequest};
use koko::queries;
use koko::storage::SEC_STORE;

mod common;

/// Candidates are the sentences that say "coffee"; the clause reads the
/// article around them, so LoadArticle decodes those articles whole.
const COFFEE_EVIDENCE: &str = r#"
extract x:Entity from "input.txt" if (/ROOT:{ c = //"coffee" })
satisfying x
(x near "coffee" {1})
with threshold 0.2
"#;

/// The satisfying clause reads the value alone; only a value that passes
/// it reaches the excluding condition, which reads the document — so some
/// articles are completed after their candidate sentences, most never.
const LAZY_EXCLUDING: &str = r#"
extract x:Entity from "input.txt" if ()
satisfying x
(str(x) contains "Cafe" {1}) or
(str(x) contains "Roasters" {1})
with threshold 0.5
excluding (x ", a cafe")
"#;

fn mixed_texts() -> Vec<String> {
    // (80 articles of seed 5 are the fewest that hold a chocolate row.)
    let mut texts = koko::corpus::wiki::generate(80, 5);
    texts.extend(koko::corpus::tweets::generate(20, 7).texts);
    texts.extend(koko::corpus::cafe::generate(koko::corpus::cafe::Style::Barista, 12, 4243).texts);
    texts
}

fn opts(num_shards: usize) -> EngineOpts {
    EngineOpts {
        num_shards,
        ..EngineOpts::default()
    }
}

/// The same live index read through whole parsed documents.
fn whole_documents(koko: &Koko) -> Koko {
    let mut whole = koko.clone();
    whole.opts.store_backed = false;
    whole
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

/// What LoadArticle should decode for a query, relative to the candidate
/// sentences of the documents it processed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Decodes {
    /// Exactly those candidates.
    Candidates,
    /// Whole articles: at least their candidates (every sentence that
    /// holds an entity is one under `if ()`).
    Whole,
    /// Whole articles that hold sentences DPLI did not name.
    Beyond,
}

fn probes() -> Vec<(&'static str, String, Decodes)> {
    vec![
        ("chocolate", queries::CHOCOLATE.into(), Decodes::Candidates),
        ("title", queries::TITLE.into(), Decodes::Candidates),
        (
            "date of birth",
            queries::DATE_OF_BIRTH.into(),
            Decodes::Candidates,
        ),
        ("example 2.3", queries::EXAMPLE_2_3.into(), Decodes::Whole),
        ("figure 9", queries::cafe_query(0.5), Decodes::Whole),
        ("coffee evidence", COFFEE_EVIDENCE.into(), Decodes::Beyond),
        ("lazy excluding", LAZY_EXCLUDING.into(), Decodes::Beyond),
    ]
}

fn requests(text: &str) -> [(&'static str, QueryRequest); 3] {
    let req = || QueryRequest::new(text).cache(false);
    [
        ("unrestricted", req()),
        ("doc-order window", req().offset(3).limit(5)),
        ("ranked limit", req().order(Order::ScoreDesc).limit(5)),
    ]
}

/// Every probe in every mode: the sentence-granular engine against the
/// same shards read through whole documents.
fn assert_same_answers(granular: &Koko, ctx: &str) {
    assert!(granular.opts.store_backed);
    let whole = whole_documents(granular);
    for (label, text, decodes) in probes() {
        for (mode, req) in requests(&text) {
            let ctx = format!("{label}, {mode} [{ctx}]");
            let got = req.clone().run(granular).unwrap();
            let want = req.run(&whole).unwrap();
            assert_eq!(render(&got), render(&want), "{ctx}");
            assert_eq!(got.total_matches, want.total_matches, "{ctx}");
            assert_eq!(got.truncated, want.truncated, "{ctx}");
            let (p, q) = (&got.profile, &want.profile);
            assert_eq!(p.candidate_sentences, q.candidate_sentences, "{ctx}");
            assert_eq!(p.candidates_skipped, q.candidates_skipped, "{ctx}");
            assert_eq!(p.raw_tuples, q.raw_tuples, "{ctx}");
            assert_eq!(q.sentences_decoded, 0, "{ctx}: nothing to decode");
            let processed = p.candidate_sentences - p.candidates_skipped;
            match decodes {
                Decodes::Candidates => assert_eq!(p.sentences_decoded, processed, "{ctx}"),
                Decodes::Whole => assert!(p.sentences_decoded >= processed, "{ctx}: {p:?}"),
                Decodes::Beyond => assert!(p.sentences_decoded > processed, "{ctx}: {p:?}"),
            }
        }
    }
}

#[test]
fn sentence_granular_engines_answer_like_whole_documents() {
    let texts = mixed_texts();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    // One reference for every layout: a single shard, sequential, whole
    // parsed documents.
    let reference = Koko::from_texts_with_opts(
        &texts,
        EngineOpts {
            num_shards: 1,
            parallel: false,
            store_backed: false,
            ..EngineOpts::default()
        },
    );
    for shards in [1, 2, 4] {
        // One-shot build, and the same corpus with its tail — the cafe
        // posts among it — arriving through `add_texts` (delta shards).
        let batch = Koko::from_texts_with_opts(&texts, opts(shards));
        let live = Koko::from_texts_with_opts(&texts[..70], opts(shards));
        live.add_texts(&texts[70..95]);
        live.add_texts(&texts[95..]);
        assert!(live.num_delta_shards() > 0);

        for (built, label) in [(&batch, "batch"), (&live, "live")] {
            let ctx = format!("{label}, {shards} shards");
            let path = dir.join(format!("koko_load_eq_{pid}_{shards}_{label}.koko"));
            built.save(&path).unwrap();
            let mapped = Koko::open(&path).unwrap();
            std::fs::remove_file(&path).ok();

            assert_same_answers(built, &format!("{ctx}, in memory"));
            assert_same_answers(&mapped, &format!("{ctx}, mmap"));

            // Layout-independent: complete answers equal the reference's.
            for (label, text, _) in probes() {
                let req = QueryRequest::new(text.as_str()).cache(false);
                let want = req.clone().run(&reference).unwrap();
                assert!(!want.rows.is_empty(), "{label}: a probe must find rows");
                for engine in [built, &mapped] {
                    let got = req.clone().run(engine).unwrap();
                    assert_eq!(render(&got), render(&want), "{label} [{ctx}]");
                    assert_eq!(got.total_matches, want.total_matches, "{label} [{ctx}]");
                }
            }
        }
    }
}

#[test]
fn lazy_completion_decodes_exactly_the_articles_that_reach_it() {
    // Document 0 holds a value that passes the satisfying clause, so its
    // excluding condition runs and completes the article (4 sentences);
    // document 1's entities never get that far.
    let koko = Koko::from_texts_with_opts(
        &[
            "Copper Kettle Cafe, a cafe in town, serves coffee. Blue Door Cafe is nice. \
             We love it. Anna ate cake.",
            "Anna met Bob. It rained. Bob left early.",
        ],
        opts(1),
    );
    let out = QueryRequest::new(LAZY_EXCLUDING)
        .explain(true)
        .run(&koko)
        .unwrap();
    let texts: Vec<&str> = out.rows.iter().map(|r| r.values[0].text.as_str()).collect();
    assert_eq!(texts, ["Blue Door Cafe"]);
    let candidates = out.profile.candidate_sentences;
    assert!(
        (2..7).contains(&candidates),
        "sentences with an entity: {candidates}"
    );
    assert_eq!(out.profile.sentences_decoded, candidates + 4);
    let shard = &out.explain.unwrap().shards[0];
    assert_eq!(shard.sentences_decoded, candidates + 4);
}

/// The blobs of one `SEC_STORE` section (`u32` count, then `u32` length +
/// bytes each), edited and written back.
fn edit_store(section: &[u8], edit: impl Fn(usize, &mut Vec<u8>)) -> Vec<u8> {
    let u32_at = |at: usize| u32::from_le_bytes(section[at..at + 4].try_into().unwrap()) as usize;
    let mut out = section[..4].to_vec();
    let mut at = 4;
    for i in 0..u32_at(0) {
        let len = u32_at(at);
        let mut blob = section[at + 4..at + 4 + len].to_vec();
        at += 4 + len;
        edit(i, &mut blob);
        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        out.extend_from_slice(&blob);
    }
    assert_eq!(at, section.len());
    out
}

#[test]
fn a_blob_that_disagrees_with_the_index_is_a_structured_error() {
    // Twelve two-sentence biographies: sentence 0 answers Title, sentence
    // 1 DateOfBirth.
    let texts: Vec<String> = (0..12)
        .map(|i| {
            format!(
                "Cyd Charisse had been called Sid for years. Vera Alys was born in 19{:02}.",
                10 + i
            )
        })
        .collect();
    let built = Koko::from_texts_with_opts(&texts, opts(1));
    let title = built.query(queries::TITLE).unwrap();
    let dob = built.query(queries::DATE_OF_BIRTH).unwrap();
    assert_eq!((title.rows.len(), dob.rows.len()), (12, 12));

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path = dir.join(format!("koko_load_eq_{pid}_intact.koko"));
    let cut_path = dir.join(format!("koko_load_eq_{pid}_cut.koko"));
    let lowered_path = dir.join(format!("koko_load_eq_{pid}_lowered.koko"));
    built.save(&path).unwrap();
    const DAMAGED: usize = 5;
    let rewrite_store = |dst: &std::path::Path, edit: &dyn Fn(&mut Vec<u8>)| {
        common::rewrite_sections(&path, dst, |entry, bytes| {
            Some(if entry.kind == SEC_STORE {
                edit_store(bytes, |i, blob| {
                    if i == DAMAGED {
                        edit(blob)
                    }
                })
            } else {
                bytes.to_vec()
            })
        });
    };
    // One blob cut short inside its second sentence…
    rewrite_store(&cut_path, &|blob| blob.truncate(blob.len() - 20));
    // …and one whose header claims a sentence fewer than the shard's sid
    // range was built over.
    rewrite_store(&lowered_path, &|blob| {
        blob[4..8].copy_from_slice(&1u32.to_le_bytes())
    });

    // Checksums are valid, so both files open. The cut article fails the
    // query that walks into the damage, by document id…
    let cut = Koko::open(&cut_path).unwrap();
    match cut.query(queries::DATE_OF_BIRTH) {
        Err(Error::Storage(msg)) => assert!(msg.contains(&format!("document {DAMAGED}")), "{msg}"),
        other => panic!("expected a storage error, got {other:?}"),
    }
    // …the engine survives it, other documents still answer, and so does
    // the damaged article's intact first sentence.
    let first = QueryRequest::new(queries::DATE_OF_BIRTH)
        .limit(1)
        .run(&cut)
        .unwrap();
    assert_eq!(render(&first), render(&dob)[..1]);
    assert_eq!(
        render(&cut.query(queries::TITLE).unwrap()),
        render(&title),
        "sentence 0 of every article decodes without touching the damage"
    );
    // Read as whole documents, the same file refuses structurally too.
    assert!(whole_documents(&cut).query(queries::TITLE).is_err());

    // The lowered count no longer adds up to the shard's sentence range:
    // the shard is refused when a query first touches it.
    let lowered = Koko::open(&lowered_path).unwrap();
    for q in [queries::TITLE, queries::DATE_OF_BIRTH] {
        match lowered.query(q) {
            Err(Error::Snapshot(_) | Error::Storage(_)) => {}
            other => panic!("expected a structured error, got {other:?}"),
        }
    }
    for p in [&path, &cut_path, &lowered_path] {
        std::fs::remove_file(p).ok();
    }
}
