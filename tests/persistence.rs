//! Storage-layer integration: indices and parsed articles survive a
//! round-trip through the on-disk format ("Indices can be persisted for
//! subsequent use", §3) — the `.koko` snapshot, the one format KOKO
//! persists.

use koko::nlp::Pipeline;

#[test]
fn query_results_identical_before_and_after_persistence() {
    let texts = koko::corpus::wiki::generate(15, 88);
    let corpus = Pipeline::new().parse_corpus(&texts);

    let koko_a = koko::Koko::from_corpus(corpus.clone());
    let out_a = koko_a.query(koko::queries::DATE_OF_BIRTH).unwrap();

    // Persist the engine, reopen it, and also rebuild an engine from the
    // documents decoded out of the reopened snapshot's stores.
    let path = std::env::temp_dir().join(format!("koko_it_requery_{}.koko", std::process::id()));
    koko_a.save(&path).unwrap();
    let reopened = koko::Koko::open(&path).unwrap();
    let docs: Vec<koko::Document> = (0..reopened.num_documents() as u32)
        .map(|i| reopened.snapshot().load_document(i).unwrap())
        .collect();
    for (i, doc) in docs.iter().enumerate() {
        assert_eq!(doc, corpus.document(i as u32));
    }
    let koko_b = koko::Koko::from_corpus(koko::Corpus::new(docs));

    let key = |o: &koko::QueryOutput| {
        let mut v: Vec<String> = o
            .rows
            .iter()
            .map(|r| format!("{}:{:?}", r.doc, r.values))
            .collect();
        v.sort();
        v
    };
    let out_reopened = reopened.query(koko::queries::DATE_OF_BIRTH).unwrap();
    let out_b = koko_b.query(koko::queries::DATE_OF_BIRTH).unwrap();
    assert_eq!(key(&out_a), key(&out_reopened));
    assert_eq!(key(&out_a), key(&out_b));
    std::fs::remove_file(&path).ok();
}
