//! [`Snapshot`] — one immutable *generation* of the engine's data.
//!
//! `Koko` used to be a monolith owning corpus, index and store. The
//! sharded architecture split it in two, and the live architecture made
//! the data half generational:
//!
//! * **`Snapshot`** (this module): everything a query needs to read — the
//!   parsed corpus, the per-shard indices and document stores (base shards
//!   first, then any append-only **delta shards** absorbed since the last
//!   compaction), the shard router, and the embedding model. A snapshot is
//!   immutable after construction and `Send + Sync`, so one snapshot
//!   serves any number of concurrent query executions.
//! * **[`LiveIndex`]** ([`crate::live`]): the mutable cell publishing the
//!   *current* snapshot to readers. Writers ([`Koko::add_texts`],
//!   [`Koko::compact`]) derive a successor snapshot — sharing every
//!   untouched shard by `Arc` — and publish it atomically.
//! * **the executor** ([`crate::engine`]): stateless per-query logic that
//!   borrows a snapshot.
//!
//! A snapshot opened from a memory-mapped file
//! ([`Snapshot::open_mmap`]) starts **lazy**: each shard slot holds a
//! closure that decodes the shard out of its mapped sections on first
//! touch (behind a `OnceLock`), and the global corpus is only
//! re-assembled from the document stores if something actually asks for
//! it. The classic accessors ([`Snapshot::shards`], [`Snapshot::corpus`])
//! keep their infallible signatures by materializing on demand — they
//! panic if the backing file turns out corrupt mid-life, which the
//! `try_`-variants ([`Snapshot::try_shards`], [`Snapshot::try_corpus`])
//! surface as structured errors instead; all engine read paths use the
//! `try_` forms, and write paths open eagerly so the panicking forms are
//! unreachable through the CLI and server.
//!
//! Every snapshot carries an **epoch**: a process-wide unique id minted at
//! construction. The result cache keys rows by epoch, so publishing any
//! successor invalidates cached rows without touching the cache itself,
//! and two engines sharing one cache can never serve each other's rows.
//! The **generation** counts base rebuilds (initial build = 1, +1 per
//! [`Snapshot::compacted`]) and is persisted in the `.koko` manifest.
//!
//! [`LiveIndex`]: crate::live::LiveIndex
//! [`Koko::add_texts`]: crate::Koko::add_texts
//! [`Koko::compact`]: crate::Koko::compact

use koko_embed::Embeddings;
use koko_index::{build_shards, Shard, ShardRouter};
use koko_nlp::{Corpus, Document, Sid};
use koko_storage::{SectionEntry, SnapshotFileError, SNAPSHOT_HEADER_LEN};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide epoch mint: every snapshot constructed in this process
/// gets a distinct epoch, so epoch-keyed cache entries are unambiguous
/// even across unrelated engines sharing one cache.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Documents a trailing delta shard may hold before `add_texts` seals it
/// and opens a new one. Appending to an open delta rebuilds its (small)
/// index; sealing bounds that rebuild cost while keeping the shard count
/// low between compactions. Results never depend on this policy — query
/// output is shard-layout independent.
pub const DELTA_SEAL_DOCS: usize = 256;

/// One shard's slot in a snapshot: either already materialized (builds,
/// eager loads) or a decode-on-first-touch closure over a mapped section
/// (lazy opens). The result — including a decode *failure* —
/// is computed once and cached; a corrupt shard reports the same
/// structured error to every query that touches it.
pub(crate) struct ShardSlot {
    cell: OnceLock<Result<Arc<Shard>, SnapshotFileError>>,
    source: Option<Box<dyn Fn() -> Result<Shard, SnapshotFileError> + Send + Sync>>,
}

impl ShardSlot {
    /// A slot holding an already-built shard.
    pub(crate) fn ready(shard: Arc<Shard>) -> Arc<ShardSlot> {
        let cell = OnceLock::new();
        let _ = cell.set(Ok(shard));
        Arc::new(ShardSlot { cell, source: None })
    }

    /// A slot that materializes on first touch by running `source`.
    pub(crate) fn lazy(
        source: impl Fn() -> Result<Shard, SnapshotFileError> + Send + Sync + 'static,
    ) -> Arc<ShardSlot> {
        Arc::new(ShardSlot {
            cell: OnceLock::new(),
            source: Some(Box::new(source)),
        })
    }

    /// The shard, materializing it now if needed. Two racing callers may
    /// both run the source; one result wins the cell and both see it
    /// (`OnceLock::get_or_try_init` is not yet stable — the duplicated
    /// decode is benign because sources are pure).
    pub(crate) fn get(&self) -> Result<&Arc<Shard>, SnapshotFileError> {
        if self.cell.get().is_none() {
            let source = self
                .source
                .as_ref()
                .expect("unmaterialized slot must carry a source");
            let computed = source().map(Arc::new);
            let _ = self.cell.set(computed);
        }
        self.cell
            .get()
            .expect("cell just filled")
            .as_ref()
            .map_err(Clone::clone)
    }
}

impl std::fmt::Debug for ShardSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cell.get() {
            Some(Ok(s)) => write!(f, "ShardSlot(ready #{})", s.id()),
            Some(Err(e)) => write!(f, "ShardSlot(failed: {e})"),
            None => write!(f, "ShardSlot(lazy)"),
        }
    }
}

/// Where one persisted shard's sections live in the backing file —
/// recorded at open/save so a later [`Snapshot::save`] to the same path
/// can *append* the changed shards and reuse these entries verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PersistedShardRef {
    pub shard: SectionEntry,
    pub store: SectionEntry,
    pub bounds: Option<SectionEntry>,
    pub blocks: Option<SectionEntry>,
}

/// Identity + section map of the file this snapshot came from (or was
/// last saved to). `None` entries mean "changed since the file was
/// written — must be re-encoded on the next save".
#[derive(Debug, Clone)]
pub(crate) struct SnapshotBacking {
    pub path: std::path::PathBuf,
    /// The 26 header bytes as last seen; the appender verifies them
    /// against the file before reusing any section (a mismatch means the
    /// file was replaced and triggers a full rewrite instead).
    pub header: [u8; SNAPSHOT_HEADER_LEN],
    /// First byte past the committed table; appends start here.
    pub extent: u64,
    pub embed_entry: Option<SectionEntry>,
    /// Per shard-slot file locations; same length as the slot list.
    pub shard_refs: Vec<Option<PersistedShardRef>>,
}

/// An immutable, queryable view of a fully ingested corpus: base shards
/// (balanced by the last build/compaction) followed by zero or more delta
/// shards (one per uncompacted ingest wave).
pub struct Snapshot {
    /// The parsed corpus; for lazy (mmap) snapshots it is re-assembled
    /// from the shard document stores only on first request.
    corpus: OnceLock<Corpus>,
    /// Base shards in `[..num_base]`, delta shards after. Slots are
    /// `Arc`-shared so successor generations share untouched shards —
    /// and their materialization state — instead of cloning index data.
    slots: Vec<Arc<ShardSlot>>,
    /// Cache for the contiguous `&[Arc<Shard>]` view `shards()` serves.
    materialized: OnceLock<Vec<Arc<Shard>>>,
    num_base: usize,
    router: ShardRouter,
    embed: Embeddings,
    /// Unique id of this snapshot (process-wide, monotonically minted).
    epoch: u64,
    /// Base-rebuild counter: 1 for a fresh build, +1 per compaction;
    /// preserved by delta appends and persisted in the `.koko` manifest.
    generation: u64,
    /// Section map of the backing file, for append-on-add saves.
    /// Behind a mutex so a successful append can refresh it through
    /// `&self` (saves take `&self`).
    pub(crate) backing: Mutex<Option<SnapshotBacking>>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("generation", &self.generation)
            .field("num_shards", &self.slots.len())
            .field("num_base", &self.num_base)
            .field(
                "materialized",
                &self.slots.iter().filter(|s| s.cell.get().is_some()).count(),
            )
            .finish()
    }
}

// One snapshot is shared by every worker thread of a query fan-out; this
// asserts the property at compile time instead of at first use.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>();
};

impl Snapshot {
    /// Build every shard (index + document store) for `corpus` — a fresh
    /// generation-1 snapshot with no deltas. `num_shards` 0 means one
    /// shard per available core; `parallel` gates whether shard builds
    /// use worker threads.
    pub fn build(corpus: Corpus, num_shards: usize, parallel: bool) -> Snapshot {
        let threads = if parallel { 0 } else { 1 };
        let shards: Vec<Arc<Shard>> = build_shards(&corpus, num_shards, threads)
            .into_iter()
            .map(Arc::new)
            .collect();
        let router = ShardRouter::from_shards(&shards);
        let num_base = shards.len();
        Snapshot::assemble_eager(
            corpus,
            shards,
            num_base,
            1,
            router,
            Embeddings::shared().clone(),
        )
    }

    /// Assemble a fully-materialized snapshot (every constructor except
    /// the lazy mmap open funnels through here).
    fn assemble_eager(
        corpus: Corpus,
        shards: Vec<Arc<Shard>>,
        num_base: usize,
        generation: u64,
        router: ShardRouter,
        embed: Embeddings,
    ) -> Snapshot {
        let corpus_cell = OnceLock::new();
        let _ = corpus_cell.set(corpus);
        let slots = shards.iter().cloned().map(ShardSlot::ready).collect();
        let materialized = OnceLock::new();
        let _ = materialized.set(shards);
        Snapshot {
            corpus: corpus_cell,
            slots,
            materialized,
            num_base,
            router,
            embed,
            epoch: fresh_epoch(),
            generation: generation.max(1),
            backing: Mutex::new(None),
        }
    }

    /// Assemble a snapshot whose shards materialize lazily from `slots`
    /// — the open paths of [`crate::persist`] (the eager load passes
    /// ready slots). The corpus cell starts
    /// empty; the router (already validated against the section table)
    /// answers the size questions until something forces materialization.
    pub(crate) fn from_lazy_parts(
        slots: Vec<Arc<ShardSlot>>,
        num_base: usize,
        generation: u64,
        router: ShardRouter,
        embed: Embeddings,
        backing: Option<SnapshotBacking>,
    ) -> Snapshot {
        let num_base = num_base.min(slots.len());
        Snapshot {
            corpus: OnceLock::new(),
            slots,
            materialized: OnceLock::new(),
            num_base,
            router,
            embed,
            epoch: fresh_epoch(),
            generation: generation.max(1),
            backing: Mutex::new(backing),
        }
    }

    /// The successor snapshot after absorbing `new_docs` (already parsed,
    /// with final global ids continuing this corpus). Base shards and
    /// existing documents are shared by `Arc` — the cost of an add is
    /// proportional to the *new* documents, not the corpus; the documents
    /// land in a delta shard — appended to the trailing delta while it
    /// stays under [`DELTA_SEAL_DOCS`] documents, otherwise in a fresh
    /// one. Generation is preserved; a new epoch is minted.
    ///
    /// Materializes the corpus (and, transitively, every shard) — write
    /// paths open snapshots eagerly, so this panics only if a *lazily*
    /// opened backing file is corrupt (same contract as
    /// [`Snapshot::corpus`]).
    pub fn with_added_documents(&self, new_docs: Vec<Document>) -> Snapshot {
        let new_docs: Vec<std::sync::Arc<Document>> =
            new_docs.into_iter().map(std::sync::Arc::new).collect();
        let corpus = self.corpus().extended(new_docs.clone());

        let mut slots = self.slots.clone();
        let mut backing = self.backing.lock().expect("backing lock").clone();
        let shards = self.shards();
        let open_delta = shards
            .last()
            .filter(|s| {
                shards.len() > self.num_base
                    && s.num_documents() + new_docs.len() <= DELTA_SEAL_DOCS
            })
            .cloned();
        let changed_slot = match open_delta {
            Some(delta) => {
                // Grow the open delta from the corpus's already-parsed
                // documents (Arc clones — no store decode) plus the new
                // ones; only the small delta index is rebuilt.
                let range = delta.doc_range();
                let mut docs: Vec<std::sync::Arc<Document>> =
                    self.corpus().documents()[range.start as usize..range.end as usize].to_vec();
                docs.extend(new_docs.iter().cloned());
                let grown =
                    Shard::build_from_docs(delta.id(), &docs, range.start, delta.sid_range().start);
                let idx = slots.len() - 1;
                slots[idx] = ShardSlot::ready(Arc::new(grown));
                idx
            }
            None => {
                let doc_start = self.corpus().num_documents() as u32;
                let sid_start = self.corpus().num_sentences() as Sid;
                let delta = Shard::build_from_docs(slots.len(), &new_docs, doc_start, sid_start);
                slots.push(ShardSlot::ready(Arc::new(delta)));
                slots.len() - 1
            }
        };
        if let Some(b) = backing.as_mut() {
            // The regrown/new delta no longer matches any on-file
            // section; everything else can still be appended around.
            b.shard_refs.resize(slots.len(), None);
            b.shard_refs[changed_slot] = None;
        }
        let materialized: Vec<Arc<Shard>> = slots
            .iter()
            .map(|s| s.get().expect("slots materialized above").clone())
            .collect();
        let router = ShardRouter::from_shards(&materialized);
        let corpus_cell = OnceLock::new();
        let _ = corpus_cell.set(corpus);
        let materialized_cell = OnceLock::new();
        let _ = materialized_cell.set(materialized);
        Snapshot {
            corpus: corpus_cell,
            slots,
            materialized: materialized_cell,
            num_base: self.num_base,
            router,
            embed: self.embed.clone(),
            epoch: fresh_epoch(),
            generation: self.generation,
            backing: Mutex::new(backing),
        }
    }

    /// The successor snapshot with every delta merged into balanced base
    /// shards: a full shard rebuild over the corpus via `plan_shards`,
    /// yielding exactly the layout a one-shot batch build would. Keeps the
    /// embedding model, bumps the generation, mints a new epoch.
    pub fn compacted(&self, num_shards: usize, parallel: bool) -> Snapshot {
        let threads = if parallel { 0 } else { 1 };
        let shards: Vec<Arc<Shard>> = build_shards(self.corpus(), num_shards, threads)
            .into_iter()
            .map(Arc::new)
            .collect();
        let router = ShardRouter::from_shards(&shards);
        let num_base = shards.len();
        // Every shard is rebuilt: no on-file section survives, so the
        // next save is a full rewrite (which also reclaims dead bytes
        // left behind by appends).
        Snapshot::assemble_eager(
            self.corpus().clone(),
            shards,
            num_base,
            self.generation + 1,
            router,
            self.embed.clone(),
        )
    }

    /// The parsed corpus this snapshot serves.
    ///
    /// For lazily-opened (mmap) snapshots the first call materializes
    /// every shard and re-assembles the corpus from the document stores.
    /// # Panics
    /// Panics if the lazy backing file is corrupt — use
    /// [`Snapshot::try_corpus`] on fallible read paths. Eagerly built
    /// snapshots (every constructor but the mmap open) never panic here.
    pub fn corpus(&self) -> &Corpus {
        self.try_corpus()
            .unwrap_or_else(|e| panic!("snapshot backing file is corrupt: {e}"))
    }

    /// [`Snapshot::corpus`] with corruption surfaced as a structured
    /// error instead of a panic.
    pub fn try_corpus(&self) -> Result<&Corpus, SnapshotFileError> {
        if let Some(c) = self.corpus.get() {
            return Ok(c);
        }
        let shards = self.try_shards()?;
        let label = self.backing_label();
        let per_shard: Vec<Result<Vec<Document>, koko_storage::DecodeError>> =
            koko_par::par_map(shards, 0, |_, shard| {
                let mut docs = Vec::with_capacity(shard.num_documents());
                for d in shard.doc_range() {
                    docs.push(shard.load_document(d)?);
                }
                Ok(docs)
            });
        let mut all = Vec::with_capacity(self.router.num_documents());
        for list in per_shard {
            all.extend(list.map_err(|e| SnapshotFileError::Corrupt {
                path: label.clone(),
                detail: format!("document store: {}", e.0),
            })?);
        }
        let corpus = Corpus::new(all);
        if corpus.num_sentences() != self.router.num_sentences() {
            return Err(SnapshotFileError::Corrupt {
                path: label,
                detail: format!(
                    "stores decode to {} sentences, router covers {}",
                    corpus.num_sentences(),
                    self.router.num_sentences()
                ),
            });
        }
        let _ = self.corpus.set(corpus);
        Ok(self.corpus.get().expect("corpus cell just filled"))
    }

    /// All shards: base shards first, then delta shards in append order.
    ///
    /// # Panics
    /// Materializes every lazy shard; panics if the backing file is
    /// corrupt — use [`Snapshot::try_shards`] on fallible read paths.
    pub fn shards(&self) -> &[Arc<Shard>] {
        self.try_shards()
            .unwrap_or_else(|e| panic!("snapshot backing file is corrupt: {e}"))
    }

    /// [`Snapshot::shards`] with corruption surfaced as a structured
    /// error instead of a panic.
    pub fn try_shards(&self) -> Result<&[Arc<Shard>], SnapshotFileError> {
        if let Some(v) = self.materialized.get() {
            return Ok(v);
        }
        let mut all = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            all.push(slot.get()?.clone());
        }
        let _ = self.materialized.set(all);
        Ok(self
            .materialized
            .get()
            .expect("materialized cell just filled"))
    }

    /// The shard at `slot`, materializing only it (unlike
    /// [`Snapshot::try_shards`], which touches every slot). The per-shard
    /// entry point the query executor uses so a top-k query over a mapped
    /// snapshot faults in only the shards it visits.
    pub fn try_shard(&self, slot: usize) -> Result<&Arc<Shard>, SnapshotFileError> {
        self.slots[slot].get()
    }

    fn backing_label(&self) -> String {
        self.backing
            .lock()
            .expect("backing lock")
            .as_ref()
            .map(|b| b.path.display().to_string())
            .unwrap_or_else(|| "<in-memory snapshot>".to_string())
    }

    pub fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// Total documents across all shards (router-derived: available
    /// without materializing anything).
    pub fn num_documents(&self) -> usize {
        self.router.num_documents()
    }

    /// Total sentences across all shards (router-derived).
    pub fn num_sentences(&self) -> usize {
        self.router.num_sentences()
    }

    /// How many leading entries of [`Snapshot::shards`] are base shards.
    pub fn num_base_shards(&self) -> usize {
        self.num_base
    }

    /// The delta shards appended since the last build/compaction.
    ///
    /// # Panics
    /// Materializes (see [`Snapshot::shards`]).
    pub fn delta_shards(&self) -> &[Arc<Shard>] {
        &self.shards()[self.num_base..]
    }

    pub fn num_delta_shards(&self) -> usize {
        self.slots.len() - self.num_base
    }

    /// Documents living in delta shards (ingested since last compaction).
    /// Router-derived: delta shards are the trailing slots, so this is
    /// the document count past the last base boundary.
    pub fn num_delta_documents(&self) -> usize {
        if self.num_base == self.slots.len() {
            return 0;
        }
        self.router.num_documents() - self.router.doc_range_of(self.num_base).start as usize
    }

    /// This snapshot's unique epoch (result-cache key material; a new
    /// epoch is minted for every published update).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Base-rebuild counter: 1 for a fresh build, +1 per compaction.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    pub fn embeddings(&self) -> &Embeddings {
        &self.embed
    }

    /// The shard holding global document `doc`. Materializes only that
    /// shard; panics if its section is corrupt (see [`Snapshot::shards`]).
    pub fn shard_for_doc(&self, doc: u32) -> &Shard {
        let slot = self.router.shard_of_doc(doc);
        self.slots[slot]
            .get()
            .unwrap_or_else(|e| panic!("snapshot backing file is corrupt: {e}"))
    }

    /// The shard holding global sentence `sid`. Materializes only that
    /// shard; panics if its section is corrupt (see [`Snapshot::shards`]).
    pub fn shard_for_sid(&self, sid: Sid) -> &Shard {
        let slot = self.router.shard_of_sid(sid);
        self.slots[slot]
            .get()
            .unwrap_or_else(|e| panic!("snapshot backing file is corrupt: {e}"))
    }

    /// Decode one article by global document id from its shard's store.
    pub fn load_document(&self, doc: u32) -> Result<Document, koko_storage::DecodeError> {
        self.shard_for_doc(doc).load_document(doc)
    }

    /// Swap the embedding model in place (shards and corpus are
    /// untouched — embeddings never affect them).
    pub fn set_embeddings(&mut self, embed: Embeddings) {
        self.embed = embed;
        // The on-file embeddings section no longer matches this model.
        if let Some(b) = self.backing.lock().expect("backing lock").as_mut() {
            b.embed_entry = None;
        }
    }

    /// A copy of this snapshot with a different embedding model (shards
    /// are shared, not rebuilt; a new epoch is minted because descriptor
    /// scores can change).
    pub fn with_embeddings(&self, embed: Embeddings) -> Snapshot {
        let backing = self
            .backing
            .lock()
            .expect("backing lock")
            .clone()
            .map(|mut b| {
                b.embed_entry = None;
                b
            });
        let corpus_cell = OnceLock::new();
        if let Some(c) = self.corpus.get() {
            let _ = corpus_cell.set(c.clone());
        }
        Snapshot {
            corpus: corpus_cell,
            slots: self.slots.clone(),
            materialized: OnceLock::new(),
            num_base: self.num_base,
            router: self.router.clone(),
            embed,
            epoch: fresh_epoch(),
            generation: self.generation,
            backing: Mutex::new(backing),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koko_nlp::Pipeline;
    use koko_storage::{Codec, SharedBytes};

    fn corpus() -> Corpus {
        let texts: Vec<String> = (0..12)
            .map(|i| format!("Anna ate cake number {i}. The cafe was busy."))
            .collect();
        Pipeline::new().parse_corpus(&texts)
    }

    #[test]
    fn snapshot_partitions_and_routes() {
        let c = corpus();
        let snap = Snapshot::build(c.clone(), 3, true);
        assert_eq!(snap.num_shards(), 3);
        assert_eq!(snap.num_base_shards(), 3);
        assert_eq!(snap.num_delta_shards(), 0);
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.num_documents(), c.num_documents());
        assert_eq!(snap.num_sentences(), c.num_sentences());
        let total: usize = snap.shards().iter().map(|s| s.num_sentences()).sum();
        assert_eq!(total, c.num_sentences());
        for doc in 0..c.num_documents() as u32 {
            assert_eq!(&snap.load_document(doc).unwrap(), c.document(doc));
        }
    }

    #[test]
    fn single_and_multi_shard_snapshots_cover_same_data() {
        let c = corpus();
        let one = Snapshot::build(c.clone(), 1, false);
        let many = Snapshot::build(c, 5, true);
        assert_eq!(one.num_shards(), 1);
        assert_eq!(many.num_shards(), 5);
        let sents = |s: &Snapshot| s.shards().iter().map(|s| s.num_sentences()).sum::<usize>();
        assert_eq!(sents(&one), sents(&many));
    }

    #[test]
    fn epochs_are_unique_and_updates_mint_new_ones() {
        let c = corpus();
        let a = Snapshot::build(c.clone(), 2, false);
        let b = Snapshot::build(c, 2, false);
        assert_ne!(a.epoch(), b.epoch());
        let more = Pipeline::new().parse_documents(
            &["The barista poured a latte."],
            a.corpus().num_documents() as u32,
            1,
        );
        let grown = a.with_added_documents(more);
        assert_ne!(grown.epoch(), a.epoch());
        let compacted = grown.compacted(2, false);
        assert_ne!(compacted.epoch(), grown.epoch());
    }

    #[test]
    fn delta_append_shares_base_shards_and_routes_new_docs() {
        let c = corpus();
        let base = Snapshot::build(c.clone(), 3, false);
        let first_new = c.num_documents() as u32;
        let more = Pipeline::new().parse_documents(
            &["The barista poured a latte. Anna was happy.", "go Falcons!"],
            first_new,
            1,
        );
        let grown = base.with_added_documents(more.clone());
        assert_eq!(grown.num_base_shards(), 3);
        assert_eq!(grown.num_delta_shards(), 1);
        assert_eq!(grown.num_delta_documents(), 2);
        assert_eq!(grown.generation(), base.generation());
        // Base shards are shared, not copied.
        for i in 0..3 {
            assert!(Arc::ptr_eq(&base.shards()[i], &grown.shards()[i]));
        }
        // New documents route to the delta and load back bit-identically.
        for (i, doc) in more.iter().enumerate() {
            let gid = first_new + i as u32;
            assert_eq!(&grown.load_document(gid).unwrap(), doc);
            assert!(grown.shard_for_doc(gid).doc_range().start >= first_new);
        }
        assert_eq!(grown.corpus().num_documents(), c.num_documents() + 2);
        assert_eq!(grown.num_documents(), c.num_documents() + 2);
    }

    #[test]
    fn small_appends_grow_the_open_delta_until_sealed() {
        let c = corpus();
        let base = Snapshot::build(c.clone(), 2, false);
        let p = Pipeline::new();
        let mut snap = base;
        for wave in 0..3 {
            let first = snap.corpus().num_documents() as u32;
            let docs = p.parse_documents(&[format!("Wave {wave} latte.")], first, 1);
            snap = snap.with_added_documents(docs);
        }
        // Three small waves merged into one open delta shard.
        assert_eq!(snap.num_delta_shards(), 1);
        assert_eq!(snap.num_delta_documents(), 3);
    }

    #[test]
    fn compaction_restores_the_batch_layout() {
        let c = corpus();
        let base = Snapshot::build(c.clone(), 3, false);
        let more = Pipeline::new().parse_documents(
            &["The barista poured a latte."],
            c.num_documents() as u32,
            1,
        );
        let grown = base.with_added_documents(more);
        let compacted = grown.compacted(3, false);
        assert_eq!(compacted.num_delta_shards(), 0);
        assert_eq!(compacted.generation(), grown.generation() + 1);

        // Byte-identical to a one-shot build of the concatenated corpus.
        let batch = Snapshot::build(grown.corpus().clone(), 3, false);
        assert_eq!(batch.num_shards(), compacted.num_shards());
        for (a, b) in batch.shards().iter().zip(compacted.shards()) {
            assert_eq!(a.encode_meta_section(), b.encode_meta_section());
            assert_eq!(a.store().to_bytes(), b.store().to_bytes());
        }
    }

    #[test]
    fn lazy_slots_materialize_once_and_cache_failures() {
        use std::sync::atomic::AtomicUsize;
        let c = corpus();
        let built = Snapshot::build(c, 1, false);
        let shard = built.shards()[0].clone();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let slot = ShardSlot::lazy(move || {
            calls2.fetch_add(1, Ordering::SeqCst);
            let store = SharedBytes::from_vec(shard.store().to_bytes());
            Ok(
                Shard::decode_sections(&shard.encode_meta_section(), store, None, None)
                    .expect("valid sections"),
            )
        });
        assert!(slot.get().is_ok());
        assert!(slot.get().is_ok());
        assert_eq!(calls.load(Ordering::SeqCst), 1, "decoded exactly once");

        let failing = ShardSlot::lazy(|| {
            Err(SnapshotFileError::ChecksumMismatch {
                path: "x.koko".into(),
            })
        });
        assert!(matches!(
            failing.get(),
            Err(SnapshotFileError::ChecksumMismatch { .. })
        ));
        // The failure is cached, not recomputed into a different answer.
        assert!(matches!(
            failing.get(),
            Err(SnapshotFileError::ChecksumMismatch { .. })
        ));
    }
}
