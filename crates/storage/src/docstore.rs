//! The parsed-article store.
//!
//! Articles live *encoded*; reading one back pays a real decode cost, which
//! is what the paper's `LoadArticle` stage (Table 2 — more than 50% of query
//! time) measures when KOKO pulls candidate articles out of PostgreSQL.
//! There are two ways in: [`DocStore::view`] hands out a borrowed
//! [`ArticleView`] that decodes only the sentences asked for — the query
//! path, whose cost follows the candidate sentences DPLI named — and
//! [`DocStore::load`] decodes the whole [`Document`] (corpus rebuilds,
//! compaction, and queries whose clauses read the rest of the article).
//!
//! Each blob is either owned (built in memory, or decoded by copy) or a
//! [`SharedBytes`] view into a memory-mapped snapshot section — in the
//! mapped case an article's bytes stay in the page cache until a view or
//! a load touches that one document. Both backings encode
//! byte-identically, so snapshots never re-encode articles.

use crate::article::ArticleView;
use crate::codec::{take, Codec, DecodeError};
use crate::view::{SharedBytes, ViewCursor};
use bytes::BytesMut;
use koko_nlp::Document;

/// One encoded document's bytes: owned, or a zero-copy view into a
/// shared (usually memory-mapped) backing. Equality is by content, so a
/// store decoded from a mapping compares equal to the store that wrote
/// it.
#[derive(Debug, Clone)]
enum BlobBytes {
    Owned(Vec<u8>),
    Mapped(SharedBytes),
}

impl BlobBytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            BlobBytes::Owned(v) => v,
            BlobBytes::Mapped(b) => b.as_slice(),
        }
    }
}

impl PartialEq for BlobBytes {
    fn eq(&self, other: &BlobBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for BlobBytes {}

/// Append-only store of encoded documents, addressed by document index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocStore {
    blobs: Vec<BlobBytes>,
}

impl DocStore {
    pub fn new() -> DocStore {
        DocStore::default()
    }

    /// Encode and append a document; returns its store index.
    pub fn put(&mut self, doc: &Document) -> u32 {
        self.blobs.push(BlobBytes::Owned(doc.to_bytes()));
        (self.blobs.len() - 1) as u32
    }

    /// Decode the whole of document `idx`.
    pub fn load(&self, idx: u32) -> Result<Document, DecodeError> {
        self.view(idx)?.document()
    }

    /// Document `idx` as a borrowed [`ArticleView`]: only its 8-byte header
    /// is read here. Decoding sentences through the view is the
    /// `LoadArticle` cost — and, for a mapped store, the point where the
    /// document's pages fault in.
    pub fn view(&self, idx: u32) -> Result<ArticleView<'_>, DecodeError> {
        let blob = self
            .blobs
            .get(idx as usize)
            .ok_or_else(|| DecodeError(format!("no document {idx}")))?;
        ArticleView::new(blob.as_slice())
            .map_err(|e| DecodeError(format!("document {idx}: {}", e.0)))
    }

    /// The raw encoded bytes of document `idx`, without decoding.
    pub fn blob_bytes(&self, idx: u32) -> Option<&[u8]> {
        self.blobs.get(idx as usize).map(|b| b.as_slice())
    }

    /// Peek document `idx`'s sentence count without decoding the article.
    ///
    /// The `Document` frame is `id (u32 LE)` then its sentence list,
    /// which the codec prefixes with a `u32 LE` count — bytes 4..8. The
    /// sharded engine uses this to rebuild per-document sentence offsets
    /// from a mapped store in O(docs) instead of decoding every article.
    pub fn sentence_count(&self, idx: u32) -> Result<u32, DecodeError> {
        Ok(self.view(idx)?.num_sentences())
    }

    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Total encoded bytes.
    pub fn approx_bytes(&self) -> usize {
        self.blobs.iter().map(|b| b.as_slice().len()).sum()
    }

    /// Borrowed-view decode: same wire format as [`Codec::decode`], but
    /// every blob becomes a sub-view of `bytes` instead of a copy. Used
    /// by the snapshot open paths so article payloads stay un-faulted
    /// until first load.
    pub fn decode_view(bytes: SharedBytes) -> Result<DocStore, DecodeError> {
        let mut c = ViewCursor::new(bytes);
        let count = c.u32()? as usize;
        let mut blobs = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let len = c.u32()? as usize;
            blobs.push(BlobBytes::Mapped(c.take(len)?));
        }
        c.finish()?;
        Ok(DocStore { blobs })
    }
}

/// A store serializes as its blob list — `count:u32`, then per document
/// `len:u32` and that many bytes — copied verbatim, so snapshot
/// encode/decode never re-encodes articles. The wire format is the same
/// whether blobs are owned or mapped.
impl Codec for DocStore {
    fn encode(&self, buf: &mut BytesMut) {
        (self.blobs.len() as u32).encode(buf);
        for b in &self.blobs {
            let s = b.as_slice();
            (s.len() as u32).encode(buf);
            buf.extend_from_slice(s);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let count = u32::decode(input)? as usize;
        // Guard against corrupt huge counts: cap the pre-allocation.
        let mut blobs = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let len = u32::decode(input)? as usize;
            blobs.push(BlobBytes::Owned(take(input, len)?.to_vec()));
        }
        Ok(DocStore { blobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koko_nlp::Pipeline;

    #[test]
    fn codec_round_trip_preserves_blobs() {
        let p = Pipeline::new();
        let mut store = DocStore::new();
        for i in 0..3 {
            store.put(&p.parse_document(i, "Anna ate cake. The cafe was busy."));
        }
        let back = DocStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn view_decode_matches_owned_decode() {
        let p = Pipeline::new();
        let mut store = DocStore::new();
        for i in 0..4 {
            store.put(&p.parse_document(i, "Anna ate cake. The cafe was busy. Bob left."));
        }
        let bytes = store.to_bytes();
        let viewed = DocStore::decode_view(SharedBytes::from_vec(bytes.clone())).unwrap();
        assert_eq!(viewed, store);
        // Re-encode from the viewed store is byte-identical.
        assert_eq!(viewed.to_bytes(), bytes);
        assert_eq!(viewed.load(2).unwrap(), store.load(2).unwrap());
        assert_eq!(viewed.approx_bytes(), store.approx_bytes());
        // Truncated views fail structurally.
        assert!(
            DocStore::decode_view(SharedBytes::from_vec(bytes[..bytes.len() - 1].to_vec()))
                .is_err()
        );
        // Trailing bytes are rejected like Codec::from_bytes.
        let mut long = bytes.clone();
        long.push(0);
        assert!(DocStore::decode_view(SharedBytes::from_vec(long)).is_err());
    }

    #[test]
    fn sentence_count_peek_matches_decode() {
        let p = Pipeline::new();
        let mut store = DocStore::new();
        store.put(&p.parse_document(0, "Anna ate cake. The cafe was busy. Bob left."));
        store.put(&p.parse_document(1, "One sentence only."));
        for i in 0..2 {
            assert_eq!(
                store.sentence_count(i).unwrap() as usize,
                store.load(i).unwrap().sentences.len()
            );
        }
        assert!(store.sentence_count(2).is_err());
    }

    #[test]
    fn put_load_round_trip() {
        let p = Pipeline::new();
        let mut store = DocStore::new();
        let d0 = p.parse_document(0, "Anna ate cake.");
        let d1 = p.parse_document(1, "go Falcons! at Riverside Arena tonight.");
        assert_eq!(store.put(&d0), 0);
        assert_eq!(store.put(&d1), 1);
        assert_eq!(store.load(0).unwrap(), d0);
        assert_eq!(store.load(1).unwrap(), d1);
        assert!(store.load(2).is_err());
        assert!(store.approx_bytes() > 0);
    }

    #[test]
    fn file_persistence() {
        // A store persists as a snapshot's `SEC_STORE` section; reopened
        // through the mapping, its blobs are views into the file.
        use crate::section::{write_sectioned_file, SectionWriter, SectionedFile, SEC_STORE};
        let p = Pipeline::new();
        let mut store = DocStore::new();
        for i in 0..5 {
            store.put(&p.parse_document(i, "The cafe serves espresso. The barista was happy."));
        }
        let dir = std::env::temp_dir().join("koko_docstore_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("docs.koko");
        let mut w = SectionWriter::new();
        w.add_section(SEC_STORE, 0, &store.to_bytes());
        write_sectioned_file(&path, &w.finish()).unwrap();
        let sf = SectionedFile::open_mmap(&path).unwrap();
        let bytes = sf
            .section_bytes(&sf.require(SEC_STORE, 0).unwrap())
            .unwrap();
        let back = DocStore::decode_view(bytes).unwrap();
        assert_eq!(back.len(), 5);
        assert_eq!(back, store);
        assert_eq!(back.load(3).unwrap(), store.load(3).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
