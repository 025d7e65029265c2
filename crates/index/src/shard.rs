//! The sharded index layer: contiguous document partitions, each with its
//! own [`KokoIndex`] and [`DocStore`], plus the [`ShardRouter`] that maps
//! global document / sentence ids onto shards.
//!
//! Sharding is KOKO's unit of parallelism (the shape Table 2's scale-up
//! experiment demands): index builds run per shard on worker threads, and
//! the query executor fans out over shards and merges partial results.
//! Because every document lives entirely inside one shard, all
//! per-sentence and per-document computations (index lookups, GSP
//! extraction, evidence aggregation) are shard-local; the only global
//! coordination required is id translation, which the router does in
//! O(log #shards).
//!
//! Ids come in two spaces:
//!
//! * **global** — document indices and [`Sid`]s over the whole corpus, as
//!   produced by [`Corpus`]; everything outside the shard layer speaks
//!   global ids.
//! * **local** — 0-based ids within one shard; each shard's `KokoIndex`
//!   and `DocStore` speak local ids. [`Shard::to_global_sid`] and friends
//!   translate.

use crate::koko::KokoIndex;
use koko_nlp::{Corpus, Document, Sid};
use koko_storage::{
    codec::fnv1a64, ArticleView, Codec, DecodeError, DocStore, SharedBytes, U64View,
};
use std::ops::Range;

/// Cheap per-shard statistics for bounding aggregation scores *before*
/// any document is loaded or extracted — the max-score/WAND-style side
/// table behind `ScoreDesc` top-k pruning.
///
/// Today it is the shard's lower-cased token vocabulary as a sorted,
/// deduplicated FNV-1a64 hash set: `has_token` answers "could this word
/// possibly occur anywhere in the shard?" in `O(log |vocab|)`. A score
/// bound derived from it is *necessary-condition* sound: a `false`
/// answer proves the condition can never fire in this shard, while a
/// `true` answer stays conservative (hash collisions and phrase order
/// are ignored — they can only make the bound looser, never unsound).
///
/// Stats are computed at shard build time and persisted as their own
/// `SEC_BOUNDS` snapshot section, outside the shard's meta section; a
/// shard decoded from a file without that section simply has no stats
/// and queries fall back to the conservative bound.
#[derive(Debug, Clone, Default)]
pub struct ShardBoundStats {
    /// Sorted, deduplicated FNV-1a64 hashes of every distinct lower-cased
    /// token in the shard.
    token_hashes: HashStore,
}

/// Backing for the hash array: owned (built, or copied out of a
/// misaligned section) or a zero-copy `u64` view into a mapped section.
#[derive(Debug, Clone)]
enum HashStore {
    Owned(Vec<u64>),
    View(U64View),
}

impl Default for HashStore {
    fn default() -> Self {
        HashStore::Owned(Vec::new())
    }
}

impl PartialEq for ShardBoundStats {
    fn eq(&self, other: &ShardBoundStats) -> bool {
        self.hashes() == other.hashes()
    }
}
impl Eq for ShardBoundStats {}

impl ShardBoundStats {
    fn hashes(&self) -> &[u64] {
        match &self.token_hashes {
            HashStore::Owned(v) => v,
            HashStore::View(v) => v.as_slice(),
        }
    }
    /// Collect the token vocabulary of `docs` (the documents of one
    /// shard). Deterministic: depends only on the documents' tokens.
    pub fn from_docs(docs: &[std::sync::Arc<Document>]) -> ShardBoundStats {
        let mut token_hashes: Vec<u64> = docs
            .iter()
            .flat_map(|d| d.sentences.iter())
            .flat_map(|s| s.tokens.iter())
            .map(|t| fnv1a64(t.lower.as_bytes()))
            .collect();
        token_hashes.sort_unstable();
        token_hashes.dedup();
        ShardBoundStats {
            token_hashes: HashStore::Owned(token_hashes),
        }
    }

    /// Whether the (lower-cased) word could occur in the shard. `false`
    /// is a proof of absence; `true` is merely "not impossible".
    pub fn has_token(&self, lower: &str) -> bool {
        self.hashes()
            .binary_search(&fnv1a64(lower.as_bytes()))
            .is_ok()
    }

    /// Whether every word of a (lower-cased) sequence could occur in the
    /// shard — the feasibility gate for phrase/proximity conditions. An
    /// empty sequence is infeasible (no condition matches on nothing).
    pub fn has_all_tokens<'a, I: IntoIterator<Item = &'a str>>(&self, words: I) -> bool {
        let mut any = false;
        for w in words {
            any = true;
            if !self.has_token(w) {
                return false;
            }
        }
        any
    }

    /// Distinct tokens tracked (diagnostics only).
    pub fn num_tokens(&self) -> usize {
        self.hashes().len()
    }

    /// Encode as a `SEC_BOUNDS` section: `count (u64 LE)` then the
    /// sorted hashes as raw `u64 LE`s starting at byte 8. Because the
    /// section writer 8-aligns section starts, the hash array sits
    /// 8-aligned in the file and a mapped open can serve it as a
    /// [`U64View`] without copying.
    pub fn encode_section(&self) -> Vec<u8> {
        let hashes = self.hashes();
        let mut out = Vec::with_capacity(8 + hashes.len() * 8);
        out.extend_from_slice(&(hashes.len() as u64).to_le_bytes());
        for h in hashes {
            out.extend_from_slice(&h.to_le_bytes());
        }
        out
    }

    /// Decode a `SEC_BOUNDS` section, serving the hash array as a
    /// zero-copy view when the backing is 8-aligned (mapped sections
    /// are) and falling back to an owned copy otherwise. Sortedness is
    /// validated in O(n) either way — hostile bytes must yield errors,
    /// not unsound bounds.
    pub fn decode_section(bytes: SharedBytes) -> Result<ShardBoundStats, DecodeError> {
        if bytes.len() < 8 {
            return Err(DecodeError(format!(
                "bounds section too short ({} bytes)",
                bytes.len()
            )));
        }
        let count = u64::from_le_bytes(bytes.as_slice()[..8].try_into().expect("sized"));
        let body = bytes.slice(8..bytes.len());
        if count.checked_mul(8) != Some(body.len() as u64) {
            return Err(DecodeError(format!(
                "bounds section declares {count} hashes but holds {} bytes",
                body.len()
            )));
        }
        let token_hashes = match U64View::new(body.clone()) {
            Some(view) => HashStore::View(view),
            None => HashStore::Owned(
                body.as_slice()
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("sized")))
                    .collect(),
            ),
        };
        let stats = ShardBoundStats { token_hashes };
        if stats.hashes().windows(2).any(|w| w[0] >= w[1]) {
            return Err(DecodeError(
                "bound stats token hashes are not sorted and distinct".into(),
            ));
        }
        Ok(stats)
    }
}

/// A token-vocabulary view that can answer "could this word occur in the
/// covered document range?" — the interface score-bound derivation is
/// generic over, so one bound formula serves both shard-level
/// ([`ShardBoundStats`]) and block-level ([`BlockVocab`]) statistics.
///
/// `false` must be a proof of absence; `true` merely "not impossible"
/// (hash collisions stay conservative).
pub trait TokenVocab {
    /// Whether the (lower-cased) word could occur in the covered range.
    fn has_token(&self, lower: &str) -> bool;

    /// Whether every word of a (lower-cased) sequence could occur in the
    /// covered range. An empty sequence is infeasible (no condition
    /// matches on nothing).
    fn has_all_tokens<'a, I: IntoIterator<Item = &'a str>>(&self, words: I) -> bool {
        let mut any = false;
        for w in words {
            any = true;
            if !self.has_token(w) {
                return false;
            }
        }
        any
    }
}

impl TokenVocab for ShardBoundStats {
    fn has_token(&self, lower: &str) -> bool {
        ShardBoundStats::has_token(self, lower)
    }
}

/// Documents per block-max block: each block of this many consecutive
/// local documents gets its own token vocabulary in [`BlockBoundStats`].
/// Small enough that one high-scoring document only "protects" its own
/// 32-doc neighbourhood from pruning — shards here typically hold a few
/// hundred documents, so this keeps several blocks per shard even at
/// small corpus scales; large enough that the per-block vocabularies
/// stay a small fraction of the shard's index size.
pub const BLOCK_DOCS: u32 = 32;

/// Per-block token statistics — the block-max refinement of
/// [`ShardBoundStats`]. The shard's documents are partitioned into fixed
/// blocks of [`BLOCK_DOCS`] consecutive local docs; each block records
/// its own sorted, deduplicated FNV-1a64 token-hash vocabulary, so the
/// ranked executor can bound the best score any document *in that block*
/// could reach and skip whole doc ranges that survive the coarser shard
/// bound.
///
/// Layout is one flat `u64` array (zero-copy out of a mapped
/// `SEC_BLOCKS` section):
///
/// ```text
/// [ block_size, num_blocks,
///   offsets[0..=num_blocks],   // hash-array offsets, offsets[0] == 0
///   hashes[..] ]               // per-block sorted distinct hashes
/// ```
///
/// Like the shard stats, blocks are *necessary-condition* sound and live
/// outside [`Shard`]'s meta section; a snapshot without a blocks section
/// loads with `None` and queries fall back to shard-level bounds only —
/// byte-identical answers, just less pruning.
#[derive(Debug, Clone, Default)]
pub struct BlockBoundStats {
    /// The flat `u64` words described above.
    words: HashStore,
}

impl PartialEq for BlockBoundStats {
    fn eq(&self, other: &BlockBoundStats) -> bool {
        self.words() == other.words()
    }
}
impl Eq for BlockBoundStats {}

impl BlockBoundStats {
    fn words(&self) -> &[u64] {
        match &self.words {
            HashStore::Owned(v) => v,
            HashStore::View(v) => v.as_slice(),
        }
    }

    /// Collect per-block vocabularies for `docs` (the documents of one
    /// shard), `block_size` consecutive docs per block. Deterministic:
    /// depends only on the documents' tokens and the block size.
    pub fn from_docs(docs: &[std::sync::Arc<Document>], block_size: u32) -> BlockBoundStats {
        assert!(block_size >= 1, "block size must be positive");
        let num_blocks = docs.len().div_ceil(block_size as usize);
        let mut words: Vec<u64> = Vec::with_capacity(2 + num_blocks + 1);
        words.push(block_size as u64);
        words.push(num_blocks as u64);
        words.push(0); // offsets[0]
        let offsets_at = words.len() - 1;
        let mut hashes: Vec<u64> = Vec::new();
        for chunk in docs.chunks(block_size as usize) {
            let mut block: Vec<u64> = chunk
                .iter()
                .flat_map(|d| d.sentences.iter())
                .flat_map(|s| s.tokens.iter())
                .map(|t| fnv1a64(t.lower.as_bytes()))
                .collect();
            block.sort_unstable();
            block.dedup();
            hashes.extend_from_slice(&block);
            words.push(hashes.len() as u64);
        }
        debug_assert_eq!(words.len() - offsets_at, num_blocks + 1);
        words.extend_from_slice(&hashes);
        BlockBoundStats {
            words: HashStore::Owned(words),
        }
    }

    /// Documents per block.
    pub fn block_size(&self) -> u32 {
        self.words()[0] as u32
    }

    /// Number of blocks (`ceil(num_docs / block_size)`).
    pub fn num_blocks(&self) -> usize {
        self.words()[1] as usize
    }

    /// The block containing *local* document `local_doc`.
    pub fn block_of_doc(&self, local_doc: u32) -> usize {
        (local_doc / self.block_size()) as usize
    }

    fn offsets(&self) -> &[u64] {
        &self.words()[2..2 + self.num_blocks() + 1]
    }

    fn hashes(&self) -> &[u64] {
        &self.words()[2 + self.num_blocks() + 1..]
    }

    /// The token vocabulary of one block, as a [`TokenVocab`] the bound
    /// derivation can use in place of the shard-level stats.
    pub fn block(&self, block: usize) -> BlockVocab<'_> {
        let offsets = self.offsets();
        BlockVocab {
            hashes: &self.hashes()[offsets[block] as usize..offsets[block + 1] as usize],
        }
    }

    /// Total distinct (block, token) pairs tracked (diagnostics only).
    pub fn num_tokens(&self) -> usize {
        self.hashes().len()
    }

    /// Encode as a `SEC_BLOCKS` section: the flat `u64` array as raw
    /// LE words. Section starts are 8-aligned, so a mapped open serves
    /// the whole array as a [`U64View`] without copying.
    pub fn encode_section(&self) -> Vec<u8> {
        let words = self.words();
        let mut out = Vec::with_capacity(words.len() * 8);
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decode a `SEC_BLOCKS` section, zero-copy when the backing is
    /// 8-aligned (mapped sections are) with an owned-copy fallback.
    /// Every structural invariant — offset monotonicity, hash-array
    /// extent, per-block sortedness — is validated in O(n): hostile
    /// bytes must yield errors, not unsound bounds.
    pub fn decode_section(bytes: SharedBytes) -> Result<BlockBoundStats, DecodeError> {
        if !bytes.len().is_multiple_of(8) {
            return Err(DecodeError(format!(
                "blocks section length {} is not a multiple of 8",
                bytes.len()
            )));
        }
        let words = match U64View::new(bytes.clone()) {
            Some(view) => HashStore::View(view),
            None => HashStore::Owned(
                bytes
                    .as_slice()
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("sized")))
                    .collect(),
            ),
        };
        let stats = BlockBoundStats { words };
        let words = stats.words();
        if words.len() < 3 {
            return Err(DecodeError(format!(
                "blocks section holds {} words, need at least 3",
                words.len()
            )));
        }
        if words[0] == 0 || words[0] > u32::MAX as u64 {
            return Err(DecodeError(format!("bad block size {}", words[0])));
        }
        let num_blocks = words[1];
        let header_words = (num_blocks as usize)
            .checked_add(3)
            .filter(|&n| n <= words.len());
        if header_words.is_none() {
            return Err(DecodeError(format!(
                "blocks section declares {num_blocks} blocks but holds {} words",
                words.len()
            )));
        }
        let offsets = stats.offsets();
        let hashes = stats.hashes();
        if offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || *offsets.last().expect("nonempty") != hashes.len() as u64
        {
            return Err(DecodeError(
                "blocks section offsets are not a monotone cover of the hash array".into(),
            ));
        }
        for b in 0..stats.num_blocks() {
            if stats.block(b).hashes.windows(2).any(|w| w[0] >= w[1]) {
                return Err(DecodeError(format!(
                    "block {b} token hashes are not sorted and distinct"
                )));
            }
        }
        Ok(stats)
    }
}

/// One block's token vocabulary — a borrowed [`TokenVocab`] over the
/// block's sorted hash slice. See [`BlockBoundStats::block`].
#[derive(Debug, Clone, Copy)]
pub struct BlockVocab<'a> {
    hashes: &'a [u64],
}

impl TokenVocab for BlockVocab<'_> {
    fn has_token(&self, lower: &str) -> bool {
        self.hashes
            .binary_search(&fnv1a64(lower.as_bytes()))
            .is_ok()
    }
}

/// One contiguous document partition with its own index and store.
#[derive(Debug, Clone)]
pub struct Shard {
    id: usize,
    /// Global document range `[start, end)` this shard covers.
    docs: Range<u32>,
    /// Global sentence-id range `[start, end)` this shard covers.
    sids: Range<Sid>,
    /// Multi-index over the shard's sentences, in *local* sid space.
    index: KokoIndex,
    /// Encoded articles, addressed by *local* document index.
    store: DocStore,
    /// Score-bound statistics (see [`ShardBoundStats`]). Always present
    /// on built shards; `None` after decoding a snapshot without a
    /// `SEC_BOUNDS` section (queries then use the conservative bound).
    /// Stored in its own section, outside the shard's meta section.
    bounds: Option<ShardBoundStats>,
    /// Block-max statistics (see [`BlockBoundStats`]). Always present on
    /// built shards; `None` after decoding a snapshot without a blocks
    /// section (queries then prune at shard granularity only). Stored in
    /// its own section, like `bounds`.
    blocks: Option<BlockBoundStats>,
    /// *Local* first-sentence-id per local document, plus one sentinel
    /// holding the shard's sentence count — the shard-local analogue of
    /// `Corpus::doc_first_sid`, so the executor can translate sid↔doc
    /// without materializing a global `Corpus`. Derived state (from
    /// documents at build, from store blob headers at decode), never
    /// persisted.
    doc_sid_starts: Vec<Sid>,
}

impl Shard {
    /// Build the index and document store for global docs `docs` of
    /// `corpus`. Pure: shard builds can run concurrently on `&Corpus`.
    pub fn build(id: usize, corpus: &Corpus, docs: Range<u32>) -> Shard {
        let sid_start = if docs.is_empty() {
            0
        } else {
            corpus.doc_sids(docs.start).start
        };
        let slice = &corpus.documents()[docs.start as usize..docs.end as usize];
        Shard::build_from_docs(id, slice, docs.start, sid_start)
    }

    /// Build a shard directly from already-parsed documents occupying the
    /// global ranges `[doc_start, doc_start + docs.len())` /
    /// `[sid_start, sid_start + Σ sentences)` — the **delta shard** path:
    /// incremental ingest appends documents past the end of an existing
    /// corpus, where no enclosing `Corpus` exists yet. Produces exactly
    /// the shard [`Shard::build`] would for the same documents at the same
    /// position, so delta shards are indistinguishable from base shards to
    /// the query executor. Documents are shared, never copied.
    pub fn build_from_docs(
        id: usize,
        docs: &[std::sync::Arc<Document>],
        doc_start: u32,
        sid_start: Sid,
    ) -> Shard {
        let n_sents: usize = docs.iter().map(|d| d.sentences.len()).sum();
        let doc_range = doc_start..doc_start + docs.len() as u32;
        let sids = sid_start..sid_start + n_sents as Sid;
        // The local corpus re-bases sentence ids to 0; document payloads
        // (including their global `Document::id`) are untouched.
        let local = Corpus::from_shared(docs.to_vec());
        let index = KokoIndex::build(&local);
        let mut store = DocStore::new();
        for d in docs {
            store.put(d);
        }
        let bounds = Some(ShardBoundStats::from_docs(docs));
        let blocks = Some(BlockBoundStats::from_docs(docs, BLOCK_DOCS));
        let mut doc_sid_starts = Vec::with_capacity(docs.len() + 1);
        let mut at: Sid = 0;
        for d in docs {
            doc_sid_starts.push(at);
            at += d.sentences.len() as Sid;
        }
        doc_sid_starts.push(at);
        Shard {
            id,
            docs: doc_range,
            sids,
            index,
            store,
            bounds,
            blocks,
            doc_sid_starts,
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    /// Global document range `[start, end)`.
    pub fn doc_range(&self) -> Range<u32> {
        self.docs.clone()
    }

    /// Global sentence-id range `[start, end)`.
    pub fn sid_range(&self) -> Range<Sid> {
        self.sids.clone()
    }

    pub fn num_documents(&self) -> usize {
        self.docs.len()
    }

    pub fn num_sentences(&self) -> usize {
        self.sids.len()
    }

    /// The shard-local multi-index (local sid space).
    pub fn index(&self) -> &KokoIndex {
        &self.index
    }

    /// The shard-local document store (local doc indices).
    pub fn store(&self) -> &DocStore {
        &self.store
    }

    pub fn to_global_sid(&self, local: Sid) -> Sid {
        self.sids.start + local
    }

    pub fn to_local_sid(&self, global: Sid) -> Sid {
        debug_assert!(self.sids.contains(&global));
        global - self.sids.start
    }

    pub fn to_global_doc(&self, local: u32) -> u32 {
        self.docs.start + local
    }

    pub fn to_local_doc(&self, global: u32) -> u32 {
        debug_assert!(self.docs.contains(&global));
        global - self.docs.start
    }

    /// Decode one whole article by *global* document id (corpus rebuilds
    /// and compaction; queries go through [`Shard::article`]).
    pub fn load_document(&self, global_doc: u32) -> Result<Document, DecodeError> {
        self.store.load(self.to_local_doc(global_doc))
    }

    /// One article by *global* document id as a borrowed view — the
    /// per-shard `LoadArticle` path: the executor decodes the candidate
    /// sentences through it, and the rest of the article only if a clause
    /// asks for document evidence.
    pub fn article(&self, global_doc: u32) -> Result<ArticleView<'_>, DecodeError> {
        self.store.view(self.to_local_doc(global_doc))
    }

    /// The *global* document owning *global* sentence `sid` — the
    /// shard-local replacement for `Corpus::doc_of`, so the default
    /// (store-backed) query path never materializes a global corpus.
    /// `O(log docs)`; sids of empty documents resolve to the following
    /// non-empty owner, exactly as in `Corpus::doc_of`.
    pub fn doc_of_sid(&self, sid: Sid) -> u32 {
        let local = self.to_local_sid(sid);
        let idx = self.doc_sid_starts.partition_point(|&s| s <= local) - 1;
        self.docs.start + idx as u32
    }

    /// The *global* first sentence id of *global* document `global_doc`
    /// (the shard-local replacement for `Corpus::doc_sids(d).start`).
    pub fn doc_first_sid(&self, global_doc: u32) -> Sid {
        self.sids.start + self.doc_sid_starts[self.to_local_doc(global_doc) as usize]
    }

    /// Approximate footprint of the shard's index structures.
    pub fn approx_index_bytes(&self) -> usize {
        self.index.approx_bytes()
    }

    /// Score-bound statistics, if available. Built shards always carry
    /// them; shards decoded from a snapshot without a `SEC_BOUNDS`
    /// section return `None` and the executor falls back to the
    /// conservative (weights-only) bound.
    pub fn bound_stats(&self) -> Option<&ShardBoundStats> {
        self.bounds.as_ref()
    }

    /// Block-max statistics, if available. Built shards always carry
    /// them; shards decoded from snapshots without a blocks section
    /// return `None` and the ranked executor prunes at shard granularity
    /// only.
    pub fn block_stats(&self) -> Option<&BlockBoundStats> {
        self.blocks.as_ref()
    }

    /// Encode the `SEC_SHARD` section: the shard's identity + ranges +
    /// index frame, *without* the document store (which gets its own
    /// `SEC_STORE` section so article bytes can stay unmaterialized in
    /// the mapping until first load) and without the statistics (their
    /// own optional sections).
    pub fn encode_meta_section(&self) -> Vec<u8> {
        let mut buf = bytes::BytesMut::new();
        (self.id as u64).encode(&mut buf);
        self.docs.start.encode(&mut buf);
        self.docs.end.encode(&mut buf);
        self.sids.start.encode(&mut buf);
        self.sids.end.encode(&mut buf);
        self.index.encode(&mut buf);
        buf.to_vec()
    }

    /// Rebuild a shard from its snapshot sections: the `SEC_SHARD` meta
    /// bytes, the `SEC_STORE` bytes (decoded as zero-copy views into the
    /// backing), and optional pre-decoded bounds / block-max stats.
    ///
    /// Every structural inconsistency is a structured error: trailing
    /// meta bytes, inverted ranges, a store whose document count
    /// disagrees with the doc range, an index whose sentence count
    /// disagrees with the sid range, and blocks that do not cover the
    /// shard's documents exactly. Per-document sentence offsets are
    /// rebuilt in O(docs) from the store's blob headers without decoding
    /// articles.
    pub fn decode_sections(
        meta: &[u8],
        store_bytes: SharedBytes,
        bounds: Option<ShardBoundStats>,
        blocks: Option<BlockBoundStats>,
    ) -> Result<Shard, DecodeError> {
        let input = &mut &meta[..];
        let id = u64::decode(input)? as usize;
        let docs = u32::decode(input)?..u32::decode(input)?;
        let sids = Sid::decode(input)?..Sid::decode(input)?;
        let index = KokoIndex::decode(input)?;
        if !input.is_empty() {
            return Err(DecodeError(format!(
                "shard {id} meta section has {} trailing bytes",
                input.len()
            )));
        }
        let store = DocStore::decode_view(store_bytes)?;
        if docs.start > docs.end || sids.start > sids.end {
            return Err(DecodeError(format!(
                "shard {id} has inverted ranges (docs {docs:?}, sids {sids:?})"
            )));
        }
        if store.len() != docs.len() {
            return Err(DecodeError(format!(
                "shard {id} stores {} documents for a range of {}",
                store.len(),
                docs.len()
            )));
        }
        if index.num_sentences() as usize != sids.len() {
            // Local sids map 1:1 onto the shard's global sid range; a
            // larger index would emit sids past the corpus end mid-query.
            return Err(DecodeError(format!(
                "shard {id} index covers {} sentences for a sid range of {}",
                index.num_sentences(),
                sids.len()
            )));
        }
        let mut doc_sid_starts = Vec::with_capacity(store.len() + 1);
        let mut at: Sid = 0;
        for local in 0..store.len() as u32 {
            doc_sid_starts.push(at);
            at += store.sentence_count(local)? as Sid;
        }
        doc_sid_starts.push(at);
        if at as usize != sids.len() {
            return Err(DecodeError(format!(
                "shard {id} documents hold {at} sentences for a sid range of {}",
                sids.len()
            )));
        }
        if let Some(b) = &blocks {
            let expected = docs.len().div_ceil(b.block_size() as usize);
            if b.num_blocks() != expected {
                return Err(DecodeError(format!(
                    "shard {id} blocks section covers {} blocks for {} documents \
                     at block size {} (expected {expected})",
                    b.num_blocks(),
                    docs.len(),
                    b.block_size()
                )));
            }
        }
        Ok(Shard {
            id,
            docs,
            sids,
            index,
            store,
            bounds,
            blocks,
            doc_sid_starts,
        })
    }
}

/// The router serializes its boundary arrays directly (it could be rebuilt
/// from the shard list, but persisting it keeps load independent of shard
/// decode order and costs a few bytes).
impl Codec for ShardRouter {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.doc_starts.encode(buf);
        self.sid_starts.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let router = ShardRouter {
            doc_starts: Vec::decode(input)?,
            sid_starts: Vec::decode(input)?,
        };
        if router.doc_starts.is_empty() || router.sid_starts.len() != router.doc_starts.len() {
            return Err(DecodeError("malformed shard router".into()));
        }
        Ok(router)
    }
}

/// Plan contiguous, sentence-balanced document ranges for `num_shards`
/// shards (`0` = one per available core). Never returns an empty range
/// except for the single shard of an empty corpus; the shard count is
/// clamped to the document count.
pub fn plan_shards(corpus: &Corpus, num_shards: usize) -> Vec<Range<u32>> {
    let n_docs = corpus.num_documents() as u32;
    if n_docs == 0 {
        let empty: Range<u32> = 0..0;
        return vec![empty];
    }
    let k = koko_par::resolve_threads(num_shards, n_docs as usize) as u32;
    let total_sents = corpus.num_sentences() as u64;

    let mut ranges = Vec::with_capacity(k as usize);
    let mut start = 0u32;
    for i in 0..k {
        // Cut shard i at the first doc whose prefix sentence count reaches
        // the i+1-th quantile, but always leave ≥1 doc per remaining shard.
        let remaining_shards = k - i;
        let max_end = n_docs - (remaining_shards - 1);
        let target = total_sents * (i as u64 + 1) / k as u64;
        let mut end = start + 1;
        while end < max_end && (corpus.doc_sids(end - 1).end as u64) < target {
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, n_docs);
    ranges
}

/// Build all shards for `corpus`, in parallel when `threads != 1`
/// (`0` = auto). Deterministic: shard boundaries and contents depend only
/// on the corpus and the shard count.
pub fn build_shards(corpus: &Corpus, num_shards: usize, threads: usize) -> Vec<Shard> {
    let plan = plan_shards(corpus, num_shards);
    koko_par::par_map(&plan, threads, |i, range| {
        Shard::build(i, corpus, range.clone())
    })
}

/// Maps global document / sentence ids to shard indices by binary search
/// over the (sorted, disjoint) shard boundaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardRouter {
    /// `doc_starts[i]` is shard i's first global doc; one extra sentinel
    /// holds the total doc count. Same layout for sids.
    doc_starts: Vec<u32>,
    sid_starts: Vec<Sid>,
}

impl ShardRouter {
    /// Compute the routing tables from a shard list. Generic over the
    /// element's ownership (`Shard`, `Arc<Shard>`, …) because the live
    /// engine shares base shards across generations behind `Arc` — this is
    /// the "router remapping" step run after every delta append/compaction.
    pub fn from_shards<S: std::borrow::Borrow<Shard>>(shards: &[S]) -> ShardRouter {
        let mut doc_starts: Vec<u32> = shards.iter().map(|s| s.borrow().docs.start).collect();
        let mut sid_starts: Vec<Sid> = shards.iter().map(|s| s.borrow().sids.start).collect();
        doc_starts.push(shards.last().map_or(0, |s| s.borrow().docs.end));
        sid_starts.push(shards.last().map_or(0, |s| s.borrow().sids.end));
        ShardRouter {
            doc_starts,
            sid_starts,
        }
    }

    pub fn num_shards(&self) -> usize {
        self.doc_starts.len() - 1
    }

    /// Total documents routed (the sentinel entry) — lets callers report
    /// corpus size without materializing any shard or corpus.
    pub fn num_documents(&self) -> usize {
        *self.doc_starts.last().unwrap_or(&0) as usize
    }

    /// Total sentences routed (the sentinel entry).
    pub fn num_sentences(&self) -> usize {
        *self.sid_starts.last().unwrap_or(&0) as usize
    }

    /// The global document range shard `shard` is expected to cover.
    /// Lazily-materialized shards are validated against this on first
    /// touch (the sectioned-snapshot replacement for the old whole-file
    /// contiguity check).
    pub fn doc_range_of(&self, shard: usize) -> Range<u32> {
        self.doc_starts[shard]..self.doc_starts[shard + 1]
    }

    /// The global sentence-id range shard `shard` is expected to cover.
    pub fn sid_range_of(&self, shard: usize) -> Range<Sid> {
        self.sid_starts[shard]..self.sid_starts[shard + 1]
    }

    /// Structural validation for routers decoded from untrusted bytes:
    /// boundaries must start at zero and be non-decreasing, or id
    /// translation would hand out overlapping/negative ranges.
    pub fn validate_contiguous(&self) -> Result<(), DecodeError> {
        if self.doc_starts.first() != Some(&0) || self.sid_starts.first() != Some(&0) {
            return Err(DecodeError("shard router does not start at zero".into()));
        }
        if self.doc_starts.windows(2).any(|w| w[0] > w[1])
            || self.sid_starts.windows(2).any(|w| w[0] > w[1])
        {
            return Err(DecodeError("shard router boundaries decrease".into()));
        }
        Ok(())
    }

    /// Shard containing global document `doc`.
    pub fn shard_of_doc(&self, doc: u32) -> usize {
        debug_assert!(doc < *self.doc_starts.last().unwrap_or(&0));
        self.doc_starts.partition_point(|&s| s <= doc) - 1
    }

    /// Shard containing global sentence `sid`.
    pub fn shard_of_sid(&self, sid: Sid) -> usize {
        debug_assert!(sid < *self.sid_starts.last().unwrap_or(&0));
        self.sid_starts.partition_point(|&s| s <= sid) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koko_nlp::Pipeline;

    fn corpus(n: usize) -> Corpus {
        let texts: Vec<String> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    format!("Anna ate cake number {i}. She was happy. The cafe was busy.")
                } else {
                    format!("The barista poured latte {i}.")
                }
            })
            .collect();
        Pipeline::new().parse_corpus(&texts)
    }

    #[test]
    fn plan_covers_corpus_contiguously() {
        let c = corpus(17);
        for k in [1, 2, 3, 5, 16, 17, 40] {
            let plan = plan_shards(&c, k);
            assert_eq!(plan.first().unwrap().start, 0);
            assert_eq!(plan.last().unwrap().end, 17);
            assert!(plan.len() <= 17);
            for w in plan.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
            }
            assert!(plan.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn empty_corpus_gets_one_empty_shard() {
        let c = Corpus::new(Vec::new());
        let shards = build_shards(&c, 4, 1);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].num_documents(), 0);
        assert_eq!(shards[0].num_sentences(), 0);
        assert_eq!(shards[0].index().num_sentences(), 0);
    }

    #[test]
    fn shard_indices_partition_the_global_index() {
        let c = corpus(9);
        let global = KokoIndex::build(&c);
        let shards = build_shards(&c, 3, 1);
        assert_eq!(shards.len(), 3);
        // Every shard's sentence count sums to the corpus total.
        let total: usize = shards.iter().map(Shard::num_sentences).sum();
        assert_eq!(total, c.num_sentences());
        // Word postings, translated to global sids, union to the global
        // index's postings.
        for word in ["ate", "latte", "busy"] {
            let mut global_sids: Vec<Sid> = global
                .word_refs(word)
                .iter()
                .map(|&r| global.posting(r).sid)
                .collect();
            global_sids.dedup();
            let mut sharded: Vec<Sid> = shards
                .iter()
                .flat_map(|s| {
                    s.index()
                        .word_refs(word)
                        .iter()
                        .map(|&r| s.to_global_sid(s.index().posting(r).sid))
                        .collect::<Vec<_>>()
                })
                .collect();
            sharded.sort_unstable();
            sharded.dedup();
            assert_eq!(sharded, global_sids, "word {word}");
        }
    }

    #[test]
    fn router_roundtrips_every_id() {
        let c = corpus(11);
        let shards = build_shards(&c, 4, 2);
        let router = ShardRouter::from_shards(&shards);
        assert_eq!(router.num_shards(), shards.len());
        for doc in 0..c.num_documents() as u32 {
            let s = &shards[router.shard_of_doc(doc)];
            assert!(s.doc_range().contains(&doc));
            assert_eq!(s.to_global_doc(s.to_local_doc(doc)), doc);
        }
        for sid in 0..c.num_sentences() as Sid {
            let s = &shards[router.shard_of_sid(sid)];
            assert!(s.sid_range().contains(&sid));
            assert_eq!(s.to_global_sid(s.to_local_sid(sid)), sid);
        }
    }

    #[test]
    fn shard_documents_load_back() {
        let c = corpus(7);
        let shards = build_shards(&c, 3, 0);
        for (di, doc) in c.documents().iter().enumerate() {
            let router = ShardRouter::from_shards(&shards);
            let s = &shards[router.shard_of_doc(di as u32)];
            assert_eq!(&s.load_document(di as u32).unwrap(), doc.as_ref());
        }
    }

    /// A shard's persisted form: its meta and store sections.
    fn sections(shard: &Shard) -> (Vec<u8>, Vec<u8>) {
        (shard.encode_meta_section(), shard.store().to_bytes())
    }

    /// Round-trip a shard through its sections, statistics included.
    fn reload(shard: &Shard) -> Shard {
        let (meta, store) = sections(shard);
        Shard::decode_sections(
            &meta,
            SharedBytes::from_vec(store),
            shard.bound_stats().cloned(),
            shard.block_stats().cloned(),
        )
        .unwrap()
    }

    #[test]
    fn shard_codec_round_trip_preserves_lookups() {
        let c = corpus(9);
        for shard in build_shards(&c, 3, 1) {
            let back = reload(&shard);
            assert_eq!(sections(&back), sections(&shard), "byte-identical");
            assert_eq!(back.bound_stats(), shard.bound_stats());
            assert_eq!(back.block_stats(), shard.block_stats());
            assert_eq!(back.id(), shard.id());
            assert_eq!(back.doc_range(), shard.doc_range());
            assert_eq!(back.sid_range(), shard.sid_range());
            assert_eq!(back.store().len(), shard.store().len());
            assert_eq!(back.approx_index_bytes(), shard.approx_index_bytes());
            for word in ["ate", "latte", "busy", "cafe"] {
                assert_eq!(back.index().word_refs(word), shard.index().word_refs(word));
            }
            for doc in shard.doc_range() {
                assert_eq!(
                    back.load_document(doc).unwrap(),
                    shard.load_document(doc).unwrap()
                );
            }
        }
    }

    #[test]
    fn router_codec_round_trip() {
        let c = corpus(11);
        let shards = build_shards(&c, 4, 1);
        let router = ShardRouter::from_shards(&shards);
        let back = ShardRouter::from_bytes(&router.to_bytes()).unwrap();
        assert_eq!(back.num_shards(), router.num_shards());
        for doc in 0..c.num_documents() as u32 {
            assert_eq!(back.shard_of_doc(doc), router.shard_of_doc(doc));
        }
        for sid in 0..c.num_sentences() as Sid {
            assert_eq!(back.shard_of_sid(sid), router.shard_of_sid(sid));
        }
    }

    #[test]
    fn corrupt_shard_bytes_error_not_panic() {
        let c = corpus(4);
        let shard = build_shards(&c, 1, 1).remove(0);
        let (meta, store) = sections(&shard);
        let decode = |meta: &[u8], store: &[u8]| {
            Shard::decode_sections(meta, SharedBytes::from_vec(store.to_vec()), None, None)
        };
        assert!(decode(&meta, &store).is_ok());
        for cut in 0..meta.len().min(64) {
            assert!(decode(&meta[..cut], &store).is_err(), "meta cut {cut}");
        }
        for cut in 0..store.len().min(64) {
            assert!(decode(&meta, &store[..cut]).is_err(), "store cut {cut}");
        }
        // Inverted document range is rejected structurally.
        let mut bad = meta.clone();
        bad[8..12].copy_from_slice(&9u32.to_le_bytes()); // docs.start
        bad[12..16].copy_from_slice(&1u32.to_le_bytes()); // docs.end
        assert!(decode(&bad, &store).is_err());
    }

    #[test]
    fn delta_build_matches_batch_build_at_same_position() {
        let c = corpus(10);
        // A delta shard built straight from documents 6..10 must equal the
        // shard a batch build would place there.
        let batch = Shard::build(3, &c, 6..10);
        let docs = &c.documents()[6..10];
        let sid_start = c.doc_sids(6).start;
        let delta = Shard::build_from_docs(3, docs, 6, sid_start);
        assert_eq!(delta.doc_range(), batch.doc_range());
        assert_eq!(delta.sid_range(), batch.sid_range());
        assert_eq!(sections(&delta), sections(&batch), "byte-identical shard");
    }

    #[test]
    fn regrown_delta_shard_equals_one_shot_build() {
        // The live grow path: an open delta over docs 2..5 absorbing docs
        // 5..8 is rebuilt from the shared documents at the same position —
        // byte-identical to building the union in one shot.
        let c = corpus(8);
        let sid_start = c.doc_sids(2).start;
        let first = Shard::build_from_docs(1, &c.documents()[2..5], 2, sid_start);
        let grown = Shard::build_from_docs(first.id(), &c.documents()[2..8], 2, sid_start);
        let oneshot = Shard::build_from_docs(1, &c.documents()[2..8], 2, sid_start);
        assert_eq!(sections(&grown), sections(&oneshot));
        assert_eq!(grown.num_documents(), 6);
        for doc in grown.doc_range() {
            assert_eq!(
                grown.load_document(doc).unwrap(),
                *c.documents()[doc as usize]
            );
        }
    }

    #[test]
    fn empty_delta_shard_builds_and_grows_from_nothing() {
        let c = corpus(3);
        let empty = Shard::build_from_docs(0, &[], 0, 0);
        assert_eq!(empty.num_documents(), 0);
        assert_eq!(empty.num_sentences(), 0);
        let grown = Shard::build_from_docs(empty.id(), c.documents(), 0, 0);
        let oneshot = Shard::build(0, &c, 0..3);
        assert_eq!(sections(&grown), sections(&oneshot));
    }

    #[test]
    fn router_from_arc_shards_matches_owned() {
        let c = corpus(9);
        let owned = build_shards(&c, 3, 1);
        let arcs: Vec<std::sync::Arc<Shard>> =
            owned.iter().cloned().map(std::sync::Arc::new).collect();
        assert_eq!(
            ShardRouter::from_shards(&owned),
            ShardRouter::from_shards(&arcs)
        );
    }

    #[test]
    fn bound_stats_answer_vocabulary_membership() {
        let c = corpus(6);
        let shard = build_shards(&c, 1, 1).remove(0);
        let stats = shard.bound_stats().expect("built shards carry stats");
        // Tokens from both document flavors, queried lower-cased.
        assert!(stats.has_token("anna"));
        assert!(stats.has_token("latte"));
        assert!(stats.has_token("busy"));
        assert!(!stats.has_token("zeppelin"));
        assert!(stats.has_all_tokens(["anna", "ate", "cake"]));
        assert!(!stats.has_all_tokens(["anna", "zeppelin"]));
        // Empty sequences are infeasible, not vacuously present.
        assert!(!stats.has_all_tokens(std::iter::empty::<&str>()));
        assert!(stats.num_tokens() > 0);
    }

    #[test]
    fn bound_stats_codec_round_trip_and_rejects_unsorted() {
        // The owned-copy path: a section whose hash array is not 8-aligned
        // in its backing decodes by copying, with the same checks as the
        // zero-copy view path.
        let misaligned = |section: &[u8]| {
            // Place the section one byte past an 8-aligned address.
            let mut padded = vec![0u8; 16 + section.len()];
            let skip = 9 - padded.as_ptr() as usize % 8;
            padded[skip..skip + section.len()].copy_from_slice(section);
            SharedBytes::from_vec(padded).slice(skip..skip + section.len())
        };
        let c = corpus(5);
        let stats = ShardBoundStats::from_docs(c.documents());
        let back = ShardBoundStats::decode_section(misaligned(&stats.encode_section())).unwrap();
        assert!(matches!(back.token_hashes, HashStore::Owned(_)));
        assert_eq!(back, stats);
        assert_eq!(back.encode_section(), stats.encode_section());
        // Unsorted or duplicated hashes are corrupt.
        for hashes in [[3u64, 1, 2].as_slice(), &[1, 1]] {
            let mut sec = (hashes.len() as u64).to_le_bytes().to_vec();
            sec.extend(hashes.iter().flat_map(|h| h.to_le_bytes()));
            assert!(ShardBoundStats::decode_section(misaligned(&sec)).is_err());
        }
    }

    #[test]
    fn bound_stats_stay_out_of_the_shard_frame() {
        // Statistics live in their own optional sections: a shard decoded
        // without them has none, and its meta and store sections are the
        // same bytes as the shard that had them.
        let c = corpus(4);
        let shard = build_shards(&c, 1, 1).remove(0);
        assert!(shard.bound_stats().is_some());
        assert!(shard.block_stats().is_some());
        let (meta, store) = sections(&shard);
        let stripped =
            Shard::decode_sections(&meta, SharedBytes::from_vec(store), None, None).unwrap();
        assert!(stripped.bound_stats().is_none());
        assert!(stripped.block_stats().is_none());
        assert_eq!(sections(&stripped), sections(&shard));
    }

    #[test]
    fn doc_sid_translation_matches_the_corpus() {
        let c = corpus(11);
        let shards = build_shards(&c, 4, 1);
        let router = ShardRouter::from_shards(&shards);
        for sid in 0..c.num_sentences() as Sid {
            let s = &shards[router.shard_of_sid(sid)];
            assert_eq!(s.doc_of_sid(sid), c.doc_of(sid), "sid {sid}");
        }
        for doc in 0..c.num_documents() as u32 {
            let s = &shards[router.shard_of_doc(doc)];
            assert_eq!(s.doc_first_sid(doc), c.doc_sids(doc).start, "doc {doc}");
        }
        // Decoded shards rebuild the same translation from blob headers.
        for shard in &shards {
            let back = reload(shard);
            for sid in back.sid_range() {
                assert_eq!(back.doc_of_sid(sid), shard.doc_of_sid(sid));
            }
            for doc in back.doc_range() {
                assert_eq!(back.doc_first_sid(doc), shard.doc_first_sid(doc));
            }
        }
    }

    #[test]
    fn section_decode_rejects_trailing_meta_and_miscounted_blocks() {
        let c = corpus(9);
        for shard in build_shards(&c, 3, 1) {
            let store = || SharedBytes::from_vec(shard.store().to_bytes());
            // Trailing meta bytes are rejected.
            let mut long = shard.encode_meta_section();
            long.push(0);
            assert!(Shard::decode_sections(&long, store(), None, None).is_err());
            // A blocks section that does not cover the doc range exactly
            // is rejected (here: block stats for one doc too few).
            if shard.num_documents() > 1 {
                let c = corpus(shard.num_documents() - 1);
                let wrong = BlockBoundStats::from_docs(c.documents(), 1);
                assert!(Shard::decode_sections(
                    &shard.encode_meta_section(),
                    store(),
                    None,
                    Some(wrong)
                )
                .is_err());
            }
        }
    }

    #[test]
    fn bounds_section_round_trip_and_hostile_input() {
        let c = corpus(6);
        let stats = ShardBoundStats::from_docs(c.documents());
        let sec = stats.encode_section();
        let back = ShardBoundStats::decode_section(SharedBytes::from_vec(sec.clone())).unwrap();
        assert_eq!(back, stats);
        // Re-encoding a view-backed stats is identical.
        assert_eq!(back.encode_section(), sec);
        // Count disagreeing with the body length is structural.
        let mut bad = sec.clone();
        bad[0] ^= 0x01;
        assert!(ShardBoundStats::decode_section(SharedBytes::from_vec(bad)).is_err());
        // Unsorted hashes are rejected even through the view path.
        let mut unsorted = Vec::new();
        unsorted.extend_from_slice(&2u64.to_le_bytes());
        unsorted.extend_from_slice(&9u64.to_le_bytes());
        unsorted.extend_from_slice(&3u64.to_le_bytes());
        assert!(ShardBoundStats::decode_section(SharedBytes::from_vec(unsorted)).is_err());
        // Too-short section.
        assert!(ShardBoundStats::decode_section(SharedBytes::from_vec(vec![1, 2, 3])).is_err());
    }

    #[test]
    fn block_stats_partition_the_vocabulary_by_doc_range() {
        let c = corpus(7);
        // Block size 3 over 7 docs: blocks cover docs [0..3), [3..6), [6..7).
        let stats = BlockBoundStats::from_docs(c.documents(), 3);
        assert_eq!(stats.block_size(), 3);
        assert_eq!(stats.num_blocks(), 3);
        assert_eq!(stats.block_of_doc(0), 0);
        assert_eq!(stats.block_of_doc(2), 0);
        assert_eq!(stats.block_of_doc(3), 1);
        assert_eq!(stats.block_of_doc(6), 2);
        // Doc 6 is an "Anna" doc (6 % 3 == 0) alone in the last block:
        // its block sees "anna" but not "latte"; block 1 (docs 3..6,
        // flavors latte/latte... doc 3 is Anna) sees both.
        assert!(stats.block(2).has_token("anna"));
        assert!(!stats.block(2).has_token("latte"));
        assert!(stats.block(1).has_token("anna"));
        assert!(stats.block(1).has_token("latte"));
        // The empty phrase stays infeasible at block granularity too.
        assert!(!stats.block(0).has_all_tokens(std::iter::empty::<&str>()));
        assert!(stats.block(0).has_all_tokens(["anna", "ate", "cake"]));
        // The union of block vocabularies is the shard vocabulary.
        let shard_stats = ShardBoundStats::from_docs(c.documents());
        for word in ["anna", "ate", "cake", "latte", "barista", "busy"] {
            let in_any = (0..stats.num_blocks()).any(|b| stats.block(b).has_token(word));
            assert_eq!(in_any, shard_stats.has_token(word), "word {word}");
        }
    }

    #[test]
    fn block_stats_section_round_trip_and_hostile_input() {
        let c = corpus(9);
        for block_size in [1u32, 2, 4, 128] {
            let stats = BlockBoundStats::from_docs(c.documents(), block_size);
            let sec = stats.encode_section();
            let back = BlockBoundStats::decode_section(SharedBytes::from_vec(sec.clone())).unwrap();
            assert_eq!(back, stats);
            assert_eq!(back.encode_section(), sec);
        }
        // Empty shard: zero blocks, still round-trips.
        let empty = BlockBoundStats::from_docs(&[], 128);
        assert_eq!(empty.num_blocks(), 0);
        let back =
            BlockBoundStats::decode_section(SharedBytes::from_vec(empty.encode_section())).unwrap();
        assert_eq!(back, empty);

        let words_to_bytes = |words: &[u64]| {
            let mut v = Vec::new();
            for w in words {
                v.extend_from_slice(&w.to_le_bytes());
            }
            SharedBytes::from_vec(v)
        };
        // Zero block size.
        assert!(BlockBoundStats::decode_section(words_to_bytes(&[0, 0, 0])).is_err());
        // Block count past the section's extent (offset array overruns).
        assert!(BlockBoundStats::decode_section(words_to_bytes(&[128, u64::MAX, 0])).is_err());
        assert!(BlockBoundStats::decode_section(words_to_bytes(&[128, 5, 0])).is_err());
        // Offsets must start at 0, be monotone, and end at the hash count.
        assert!(BlockBoundStats::decode_section(words_to_bytes(&[128, 1, 1, 1, 7])).is_err());
        assert!(BlockBoundStats::decode_section(words_to_bytes(&[128, 2, 0, 2, 1, 7, 8])).is_err());
        assert!(BlockBoundStats::decode_section(words_to_bytes(&[128, 1, 0, 2, 7])).is_err());
        // Per-block hashes must be sorted and distinct.
        assert!(BlockBoundStats::decode_section(words_to_bytes(&[128, 1, 0, 2, 9, 3])).is_err());
        assert!(BlockBoundStats::decode_section(words_to_bytes(&[128, 1, 0, 2, 4, 4])).is_err());
        // Non-multiple-of-8 and truncated sections.
        assert!(BlockBoundStats::decode_section(SharedBytes::from_vec(vec![1, 2, 3])).is_err());
        assert!(BlockBoundStats::decode_section(SharedBytes::from_vec(vec![0u8; 16])).is_err());
        // Adjacent blocks may legitimately share a boundary hash value —
        // dedup is per block, never across blocks.
        let shared =
            BlockBoundStats::decode_section(words_to_bytes(&[128, 2, 0, 1, 2, 5, 5])).unwrap();
        assert_eq!(shared.num_blocks(), 2);
    }

    #[test]
    fn parallel_and_sequential_builds_agree() {
        let c = corpus(13);
        let seq = build_shards(&c, 4, 1);
        let par = build_shards(&c, 4, 3);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.doc_range(), b.doc_range());
            assert_eq!(a.sid_range(), b.sid_range());
            assert_eq!(a.index().num_sentences(), b.index().num_sentences());
            assert_eq!(a.approx_index_bytes(), b.approx_index_bytes());
        }
    }
}
