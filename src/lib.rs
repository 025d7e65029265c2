//! # KOKO — Scalable Semantic Querying of Text
//!
//! A from-scratch Rust reproduction of *Scalable Semantic Querying of Text*
//! (Wang, Feng, Golshan, Halevy, Mihaila, Oiwa, Tan — VLDB 2018,
//! arXiv:1805.01083): a declarative information-extraction engine whose
//! query language combines surface-text conditions, XPath-like conditions
//! over dependency parse trees, and a semantic-similarity operator with
//! document-level evidence aggregation — scaled by a multi-index (inverted
//! word/entity indices + compressed hierarchy indices) and a skip-plan
//! heuristic. The query language is documented in `docs/QUERYLANG.md`.
//!
//! This facade crate re-exports the public API; see the workspace crates
//! for internals:
//!
//! * [`nlp`] — the NLP preprocessing substrate (tokenizer, tagger,
//!   dependency parser, NER, clause decomposition);
//! * [`regex`] — the regular-expression engine used by query conditions;
//! * [`embed`] — paraphrase embeddings + descriptor expansion;
//! * [`storage`] — the embedded store (codec, posting-list tables,
//!   closure tables, document store, the `.koko` snapshot container);
//! * [`index`] — the KOKO multi-index and the three §6.2 baselines;
//! * [`lang`] — the query language (lexer/parser/AST/normalizer);
//! * [`core`] — the sharded evaluation engine (Snapshot, parallel
//!   executor, persistence, DPLI, GSP, aggregation);
//! * [`corpus`] — synthetic corpora + the SyntheticTree/SyntheticSpan
//!   benchmarks;
//! * [`baselines`] — CRF, IKE, NELL and Odin re-implementations;
//! * [`serve`] — the concurrent query server (NDJSON-over-TCP protocol,
//!   worker pool over one shared snapshot, load-generating client); see
//!   `docs/SERVING.md`;
//! * [`cluster`] — the multi-node layer: a coordinator that owns the
//!   shard map, fans queries out to worker servers over the wire
//!   protocol, and merges replies byte-identically to single-node
//!   execution; see `docs/CLUSTER.md`.
//!
//! The engine is sharded: the corpus is partitioned into contiguous
//! document ranges, each with its own index and document store
//! ([`index::Shard`]), ingested and queried in parallel. Results are
//! byte-identical to sequential evaluation regardless of the shard count
//! (`EngineOpts::num_shards`; 0 = one per core).
//!
//! # Quickstart
//!
//! ```
//! use koko::Koko;
//!
//! let koko = Koko::from_texts(&[
//!     "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
//! ]);
//! let out = koko
//!     .query(
//!         r#"extract e:Entity, d:Str from input.txt if
//!            (/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious",
//!                     d = (b.subtree) } (b) in (e))"#,
//!     )
//!     .unwrap();
//! assert_eq!(out.rows[0].values[0].text, "chocolate ice cream");
//! ```
//!
//! Per-request control — top-k, score floors, deadlines, explain plans —
//! goes through the [`QueryRequest`] builder (see `docs/API.md`):
//!
//! ```
//! use koko::{Koko, QueryRequest};
//!
//! let koko = Koko::from_texts(&[
//!     "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
//!     "Anna ate some delicious cheesecake that she bought at a grocery store.",
//! ]);
//! let out = QueryRequest::new(koko::queries::EXAMPLE_2_1)
//!     .limit(1)
//!     .min_score(0.0)
//!     .run(&koko)
//!     .unwrap();
//! assert_eq!(out.rows.len(), 1);
//! assert!(out.truncated, "a second match exists");
//! ```
//!
//! # Build once, query many times
//!
//! Ingest (NLP parsing + index construction) dominates cold-start cost.
//! [`Snapshot::save`](core::Snapshot::save) persists the fully built
//! engine state to a single `.koko` file; [`Koko::open`] maps it back
//! without re-running any build step, with byte-identical query results:
//!
//! ```
//! use koko::Koko;
//!
//! let built = Koko::from_texts(&["Anna ate some delicious cheesecake."]);
//! let path = std::env::temp_dir().join("facade_doctest.koko");
//! built.save(&path).unwrap();
//!
//! let loaded = Koko::open(&path).unwrap();
//! let q = koko::queries::EXAMPLE_2_1;
//! assert_eq!(loaded.query(q).unwrap().rows, built.query(q).unwrap().rows);
//! # std::fs::remove_file(&path).ok();
//! ```

#![deny(missing_docs)]

pub use koko_baselines as baselines;
pub use koko_cluster as cluster;
pub use koko_core as core;
pub use koko_corpus as corpus;
pub use koko_embed as embed;
pub use koko_index as index;
pub use koko_lang as lang;
pub use koko_nlp as nlp;
pub use koko_regex as regex;
pub use koko_serve as serve;
pub use koko_storage as storage;

pub use koko_core::{
    AddReport, CacheStats, CompactReport, EngineOpts, Error, Explain, Koko, LiveIndex, Order,
    OutValue, Profile, QueryOutput, QueryRequest, RemoteShardExplain, Row, ShardExplain, Snapshot,
};
pub use koko_lang::{normalize, parse_query, queries};
pub use koko_nlp::{Corpus, Document, Pipeline, Sentence};
