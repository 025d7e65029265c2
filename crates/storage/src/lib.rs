//! `koko-storage` — the embedded storage substrate standing in for the
//! paper's PostgreSQL backend (§4, §6.2.1).
//!
//! KOKO stores four things in its DBMS: the inverted word/entity tables
//! (`W`, `E`), the closure-table form of the two hierarchy indices
//! (`PL`, `POS`), and the parsed articles themselves (loaded back during
//! query evaluation — the `LoadArticle` stage of Table 2). This crate
//! provides the same capabilities as an embedded library:
//!
//! * [`codec`] — a compact binary serialization format (built on `bytes`)
//!   for the whole data model, so article loads pay a real
//!   deserialization cost like the paper's DBMS reads;
//! * [`table`] — ordered posting-list tables with byte accounting (the
//!   B-tree indexes every scheme in Figure 6 is charged for);
//! * [`closure`] — the Closure Table representation of hierarchy indices
//!   (Karwin \[25\]), kept as the reference the hierarchy lookups are
//!   tested against;
//! * [`docstore`] — the parsed-article store with per-document lazy decode;
//! * [`article`] — a borrowed view of one stored article that decodes the
//!   sentences asked for and steps over the rest;
//! * [`snapshot_file`] / [`section`] — the `.koko` container, one format
//!   (version 4): a 26-byte header and offset-indexed, per-section
//!   checksummed sections — the single on-disk form of an index;
//! * [`mmap`] / [`view`] — zero-dep memory mapping plus alignment-aware
//!   borrowed-view decoding, so snapshots open in O(sections) and serve
//!   fixed-width arrays straight from the page cache.

pub mod article;
pub mod closure;
pub mod codec;
pub mod docstore;
pub mod mmap;
pub mod section;
pub mod snapshot_file;
pub mod table;
pub mod view;

pub use article::{ArticleView, SentenceCursor};
pub use closure::{ClosureRow, ClosureTable};
pub use codec::{Codec, DecodeError};
pub use docstore::DocStore;
pub use mmap::Mmap;
pub use section::{
    append_sections, write_sectioned_file, SectionEntry, SectionTable, SectionWriter,
    SectionedFile, SEC_BLOCKS, SEC_BOUNDS, SEC_EMBED, SEC_MANIFEST, SEC_ROUTER, SEC_SHARD,
    SEC_STORE,
};
pub use snapshot_file::{
    is_snapshot_file, SnapshotFileError, SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use table::MultiMap;
pub use view::{SharedBytes, U64View, ViewCursor};
