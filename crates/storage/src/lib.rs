//! `koko-storage` — the embedded storage substrate standing in for the
//! paper's PostgreSQL backend (§4, §6.2.1).
//!
//! KOKO stores four things in its DBMS: the inverted word/entity tables
//! (`W`, `E`), the closure-table form of the two hierarchy indices
//! (`PL`, `POS`), and the parsed articles themselves (loaded back during
//! query evaluation — the `LoadArticle` stage of Table 2). This crate
//! provides the same capabilities as an embedded library:
//!
//! * [`codec`] — a compact, versioned binary serialization format (built on
//!   `bytes`) for the whole data model, so article loads pay a real
//!   deserialization cost like the paper's DBMS reads;
//! * [`table`] — ordered tables with range scans and byte accounting (the
//!   B-tree indexes every scheme in Figure 6 is charged for);
//! * [`closure`] — the Closure Table representation of hierarchy indices
//!   (Karwin \[25\]);
//! * [`docstore`] — the parsed-article store with per-document lazy decode;
//! * [`article`] — a borrowed view of one stored article that decodes the
//!   sentences asked for and steps over the rest;
//! * [`db`] — a named collection of the above with directory persistence;
//! * [`snapshot_file`] / [`section`] — the `.koko` container: payload
//!   framing (v1–3) and the offset-indexed sectioned layout (v4);
//! * [`mmap`] / [`view`] — zero-dep memory mapping plus alignment-aware
//!   borrowed-view decoding, so sectioned snapshots open in O(sections)
//!   and serve fixed-width arrays straight from the page cache.

pub mod article;
pub mod closure;
pub mod codec;
pub mod db;
pub mod docstore;
pub mod mmap;
pub mod section;
pub mod snapshot_file;
pub mod table;
pub mod view;

pub use article::{ArticleView, SentenceCursor};
pub use closure::{ClosureRow, ClosureTable};
pub use codec::{Codec, DecodeError};
pub use db::Db;
pub use docstore::DocStore;
pub use mmap::Mmap;
pub use section::{
    append_sections, write_sectioned_file, SectionEntry, SectionTable, SectionWriter,
    SectionedFile, SECTIONED_VERSION, SEC_BLOCKS, SEC_BOUNDS, SEC_EMBED, SEC_MANIFEST, SEC_ROUTER,
    SEC_SHARD, SEC_STORE,
};
pub use snapshot_file::{
    is_snapshot_file, read_snapshot_file, read_snapshot_file_versioned, read_snapshot_version,
    write_snapshot_file, SnapshotFileError, MAX_PAYLOAD_SNAPSHOT_VERSION, MIN_SNAPSHOT_VERSION,
    SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use table::{MultiMap, OrderedTable};
pub use view::{SharedBytes, U64View, ViewCursor};
