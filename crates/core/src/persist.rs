//! Snapshot persistence: build once with `Snapshot::save`, serve many
//! times with `Snapshot::load` — or map with [`Snapshot::open_mmap`] and
//! pay for shards only as queries touch them.
//!
//! The expensive half of Figure 2 — NLP preprocessing and index
//! construction — runs once, and the resulting [`Snapshot`] (per-shard
//! [`koko_index::KokoIndex`] + document store, the
//! [`koko_index::ShardRouter`], and the embedding model) is written to a
//! single `.koko` file. Loaded snapshots answer queries byte-identically
//! to freshly built ones (enforced by `tests/snapshot_roundtrip.rs`).
//!
//! # File layout
//!
//! The container — header, section table, checksums, atomic publish — is
//! owned by [`koko_storage::snapshot_file`] and [`koko_storage::section`];
//! this module owns the contents. There is one format, version 4: a
//! section table locating independently-checksummed, 8-aligned
//! sections —
//!
//! ```text
//! EMBED    Embeddings codec frame
//! MANIFEST generation (u64 LE) | num_base (u64 LE)
//! ROUTER   ShardRouter codec frame
//! SHARD i  id + doc/sid ranges + KokoIndex frame   (per shard)
//! STORE i  DocStore codec frame                    (per shard)
//! BOUNDS i score-bound hash array                  (per shard, optional)
//! BLOCKS i block-max statistics                    (per shard, optional)
//! ```
//!
//! Because every section is located by offset and checksummed on first
//! touch, [`Snapshot::open_mmap`] validates the header + table in
//! O(sections) and maps the rest: each shard decodes out of the mapping
//! the first time a query routes to it, and article bytes inside a
//! shard's store stay untouched pages until `LoadArticle` faults them in.
//! Cold-start cost stops scaling with corpus size, and a corpus larger
//! than RAM serves queries under the page cache's eviction policy.
//!
//! `BOUNDS` and `BLOCKS` are optional: a file without them leaves those
//! shards' statistics `None`, and ranked top-k queries fall back to the
//! coarser bound — same answers, less pruning. Any other format version
//! is refused at open with [`SnapshotFileError::WrongVersion`].
//!
//! Saving back to the file a snapshot was opened from **appends**:
//! unchanged shards' sections are carried forward by table reference,
//! new/regrown deltas plus a fresh manifest, router, and table are
//! written past the committed extent, and an in-place header rewrite
//! publishes the result atomically (see
//! [`koko_storage::append_sections`]). An `add` therefore costs I/O
//! proportional to the *new* documents; the next full save (or
//! [`Snapshot::compacted`]) reclaims the superseded bytes.

use crate::error::Error;
use crate::snapshot::{PersistedShardRef, ShardSlot, Snapshot, SnapshotBacking};
use koko_embed::Embeddings;
use koko_index::{BlockBoundStats, Shard, ShardBoundStats, ShardRouter};
use koko_storage::{
    append_sections, write_sectioned_file, Codec, DecodeError, SectionEntry, SectionWriter,
    SectionedFile, SnapshotFileError, SEC_BLOCKS, SEC_BOUNDS, SEC_EMBED, SEC_MANIFEST, SEC_ROUTER,
    SEC_SHARD, SEC_STORE,
};
use std::path::Path;
use std::sync::Arc;

fn corrupt_label(path: &str, e: DecodeError) -> SnapshotFileError {
    SnapshotFileError::Corrupt {
        path: path.to_string(),
        detail: e.0,
    }
}

/// The per-shard section entries of one persisted shard, resolved from a
/// validated section table.
#[derive(Clone, Copy)]
struct ShardSections {
    shard: SectionEntry,
    store: SectionEntry,
    bounds: Option<SectionEntry>,
    blocks: Option<SectionEntry>,
}

/// Decode one shard out of its mapped sections, verifying it against the
/// router's expectations — run per shard on first touch.
fn decode_shard_sections(
    sf: &SectionedFile,
    slot: usize,
    secs: ShardSections,
    router: &ShardRouter,
) -> Result<Shard, SnapshotFileError> {
    let meta = sf.section_bytes(&secs.shard)?;
    let store_bytes = sf.section_bytes(&secs.store)?;
    let bounds = match secs.bounds {
        Some(e) => Some(
            ShardBoundStats::decode_section(sf.section_bytes(&e)?)
                .map_err(|e| corrupt_label(sf.path(), e))?,
        ),
        None => None,
    };
    let blocks = match secs.blocks {
        Some(e) => Some(
            BlockBoundStats::decode_section(sf.section_bytes(&e)?)
                .map_err(|e| corrupt_label(sf.path(), e))?,
        ),
        None => None,
    };
    let shard = Shard::decode_sections(meta.as_slice(), store_bytes, bounds, blocks)
        .map_err(|e| corrupt_label(sf.path(), e))?;
    // A shard that decodes cleanly but disagrees with the router would
    // misroute (or panic on) id lookups long after open claimed success.
    if shard.id() != slot
        || shard.doc_range() != router.doc_range_of(slot)
        || shard.sid_range() != router.sid_range_of(slot)
    {
        return Err(SnapshotFileError::Corrupt {
            path: sf.path().to_string(),
            detail: format!("shard {slot} covers different ranges than the router claims"),
        });
    }
    Ok(shard)
}

/// Everything `open_mmap` and the eager `load` share: map the file,
/// validate the header and table, decode the small always-needed
/// sections (embeddings, manifest, router), and resolve every shard's
/// section entries — without reading any shard payload.
struct Opened {
    sf: SectionedFile,
    embed: Embeddings,
    generation: u64,
    num_base: usize,
    router: ShardRouter,
    shard_secs: Vec<ShardSections>,
}

fn open_sections(path: &Path) -> Result<Opened, Error> {
    let sf = SectionedFile::open_mmap(path).map_err(Error::Snapshot)?;
    let embed_bytes = sf
        .section_bytes(&sf.require(SEC_EMBED, 0).map_err(Error::Snapshot)?)
        .map_err(Error::Snapshot)?;
    let embed = Embeddings::from_bytes(embed_bytes.as_slice())
        .map_err(|e| Error::Snapshot(corrupt_label(sf.path(), e)))?;
    let manifest = sf
        .section_bytes(&sf.require(SEC_MANIFEST, 0).map_err(Error::Snapshot)?)
        .map_err(Error::Snapshot)?;
    if manifest.len() != 16 {
        return Err(Error::Snapshot(SnapshotFileError::Corrupt {
            path: sf.path().to_string(),
            detail: format!("manifest section is {} bytes, expected 16", manifest.len()),
        }));
    }
    let m = manifest.as_slice();
    let generation = u64::from_le_bytes(m[0..8].try_into().expect("sized"));
    let num_base = u64::from_le_bytes(m[8..16].try_into().expect("sized")) as usize;
    let router_bytes = sf
        .section_bytes(&sf.require(SEC_ROUTER, 0).map_err(Error::Snapshot)?)
        .map_err(Error::Snapshot)?;
    let router = ShardRouter::from_bytes(router_bytes.as_slice())
        .map_err(|e| Error::Snapshot(corrupt_label(sf.path(), e)))?;
    router
        .validate_contiguous()
        .map_err(|e| Error::Snapshot(corrupt_label(sf.path(), e)))?;
    if num_base > router.num_shards() {
        return Err(Error::Snapshot(SnapshotFileError::Corrupt {
            path: sf.path().to_string(),
            detail: format!(
                "manifest claims {num_base} base shards, router describes {}",
                router.num_shards()
            ),
        }));
    }
    // Every routed shard must have its sections in the table — checked
    // here (O(sections)) so a missing shard fails at open, not at the
    // first unlucky query.
    let mut shard_secs = Vec::with_capacity(router.num_shards());
    for i in 0..router.num_shards() {
        shard_secs.push(ShardSections {
            shard: sf.require(SEC_SHARD, i as u32).map_err(Error::Snapshot)?,
            store: sf.require(SEC_STORE, i as u32).map_err(Error::Snapshot)?,
            bounds: sf.find(SEC_BOUNDS, i as u32),
            blocks: sf.find(SEC_BLOCKS, i as u32),
        });
    }
    Ok(Opened {
        sf,
        embed,
        generation,
        num_base,
        router,
        shard_secs,
    })
}

fn backing_of(path: &Path, o: &Opened) -> SnapshotBacking {
    SnapshotBacking {
        path: path.to_path_buf(),
        header: o.sf.header(),
        extent: o.sf.extent(),
        embed_entry: o.sf.find(SEC_EMBED, 0),
        shard_refs: o
            .shard_secs
            .iter()
            .map(|s| {
                Some(PersistedShardRef {
                    shard: s.shard,
                    store: s.store,
                    bounds: s.bounds,
                    blocks: s.blocks,
                })
            })
            .collect(),
    }
}

impl Snapshot {
    /// Serialize the whole snapshot to a `.koko` file at `path`, returning
    /// the file size in bytes. Shards encode on worker threads when
    /// `parallel` is set.
    ///
    /// If this snapshot was opened from (or last saved to) the file at
    /// this same `path`, the save *appends*: sections of unchanged shards
    /// are carried forward by reference and only new deltas, the
    /// manifest, the router and a fresh table are written — I/O
    /// proportional to what changed. Any mismatch (different path, file
    /// replaced behind us, embeddings swapped) falls back to a full
    /// atomic rewrite.
    ///
    /// ```
    /// use koko_core::{Koko, Snapshot};
    ///
    /// let koko = Koko::from_texts(&["Anna ate some delicious cheesecake."]);
    /// let path = std::env::temp_dir().join("doctest_save.koko");
    /// let bytes = koko.snapshot().save(&path, true).unwrap();
    /// assert!(bytes > 0);
    ///
    /// let loaded = Snapshot::load(&path, true).unwrap();
    /// assert_eq!(loaded.num_shards(), koko.snapshot().num_shards());
    /// # std::fs::remove_file(&path).ok();
    /// ```
    pub fn save(&self, path: &Path, parallel: bool) -> Result<u64, Error> {
        if let Some(size) = self.try_append_save(path)? {
            return Ok(size);
        }
        self.full_save(path, parallel)
    }

    fn manifest_section(&self) -> Vec<u8> {
        let mut m = Vec::with_capacity(16);
        m.extend_from_slice(&self.generation().to_le_bytes());
        m.extend_from_slice(&(self.num_base_shards() as u64).to_le_bytes());
        m
    }

    /// Full rewrite: every section re-encoded, image published
    /// atomically (temp file + rename + dir fsync).
    fn full_save(&self, path: &Path, parallel: bool) -> Result<u64, Error> {
        let threads = if parallel { 0 } else { 1 };
        let shards = self.try_shards().map_err(Error::Snapshot)?;
        // Per-shard sections encode independently, so they fan out over
        // worker threads like ingest does; assembly order is fixed, so
        // sequential and parallel saves are byte-identical.
        struct EncodedShard {
            meta: Vec<u8>,
            store: Vec<u8>,
            bounds: Option<Vec<u8>>,
            blocks: Option<Vec<u8>>,
        }
        let encoded: Vec<EncodedShard> =
            koko_par::par_map(shards, threads, |_, shard| EncodedShard {
                meta: shard.encode_meta_section(),
                store: shard.store().to_bytes(),
                bounds: shard.bound_stats().map(|b| b.encode_section()),
                blocks: shard.block_stats().map(|b| b.encode_section()),
            });
        let mut w = SectionWriter::new();
        w.add_section(SEC_EMBED, 0, &self.embeddings().to_bytes());
        w.add_section(SEC_MANIFEST, 0, &self.manifest_section());
        w.add_section(SEC_ROUTER, 0, &self.router().to_bytes());
        for (i, enc) in encoded.iter().enumerate() {
            w.add_section(SEC_SHARD, i as u32, &enc.meta);
            w.add_section(SEC_STORE, i as u32, &enc.store);
            if let Some(b) = &enc.bounds {
                w.add_section(SEC_BOUNDS, i as u32, b);
            }
            if let Some(b) = &enc.blocks {
                w.add_section(SEC_BLOCKS, i as u32, b);
            }
        }
        let image = koko_storage::SharedBytes::from_vec(w.finish());
        write_sectioned_file(path, image.as_slice()).map_err(Error::Snapshot)?;
        // Remember where everything landed so the next save to this path
        // can append instead of rewriting (re-reading our own image, not
        // the file — the bytes are identical by construction).
        let sf = SectionedFile::open_bytes(&path.display().to_string(), image.clone())
            .map_err(Error::Snapshot)?;
        let refs = (0..shards.len())
            .map(|i| {
                Some(PersistedShardRef {
                    shard: sf.require(SEC_SHARD, i as u32).expect("just written"),
                    store: sf.require(SEC_STORE, i as u32).expect("just written"),
                    bounds: sf.find(SEC_BOUNDS, i as u32),
                    blocks: sf.find(SEC_BLOCKS, i as u32),
                })
            })
            .collect();
        *self.backing.lock().expect("backing lock") = Some(SnapshotBacking {
            path: path.to_path_buf(),
            header: sf.header(),
            extent: sf.extent(),
            embed_entry: sf.find(SEC_EMBED, 0),
            shard_refs: refs,
        });
        Ok(image.len() as u64)
    }

    /// Append-save: reuse the backing file's unchanged sections. Returns
    /// `Ok(None)` when this save can't append (no backing, different
    /// path, swapped embeddings, or the file changed behind us) — the
    /// caller falls back to [`Snapshot::full_save`].
    fn try_append_save(&self, path: &Path) -> Result<Option<u64>, Error> {
        let Some(b) = self.backing.lock().expect("backing lock").clone() else {
            return Ok(None);
        };
        if b.path != path || b.embed_entry.is_none() {
            return Ok(None);
        }
        let embed_entry = b.embed_entry.expect("checked above");
        let mut keep: Vec<SectionEntry> = vec![embed_entry];
        let mut new: Vec<(u16, u32, Vec<u8>)> = vec![
            (SEC_MANIFEST, 0, self.manifest_section()),
            (SEC_ROUTER, 0, self.router().to_bytes()),
        ];
        for (i, r) in b.shard_refs.iter().enumerate() {
            match r {
                Some(r) => {
                    keep.push(r.shard);
                    keep.push(r.store);
                    if let Some(bounds) = r.bounds {
                        keep.push(bounds);
                    }
                    if let Some(blocks) = r.blocks {
                        keep.push(blocks);
                    }
                }
                None => {
                    // Changed since the file was written (regrown or new
                    // delta) — materialized by construction, but surface
                    // a structured error rather than panic if not.
                    let shard = self.try_shard(i).map_err(Error::Snapshot)?;
                    new.push((SEC_SHARD, i as u32, shard.encode_meta_section()));
                    new.push((SEC_STORE, i as u32, shard.store().to_bytes()));
                    if let Some(bounds) = shard.bound_stats() {
                        new.push((SEC_BOUNDS, i as u32, bounds.encode_section()));
                    }
                    if let Some(blocks) = shard.block_stats() {
                        new.push((SEC_BLOCKS, i as u32, blocks.encode_section()));
                    }
                }
            }
        }
        let Some((header, table)) =
            append_sections(path, &b.header, b.extent, &keep, &new).map_err(Error::Snapshot)?
        else {
            return Ok(None); // file replaced behind us → full rewrite
        };
        let table_offset = u64::from_le_bytes(header[10..18].try_into().expect("sized"));
        let extent = table_offset
            + 4
            + table.entries.len() as u64 * koko_storage::section::SECTION_ENTRY_LEN as u64;
        let refs = (0..b.shard_refs.len())
            .map(|i| {
                let i = i as u32;
                Some(PersistedShardRef {
                    shard: *table.find(SEC_SHARD, i)?,
                    store: *table.find(SEC_STORE, i)?,
                    bounds: table.find(SEC_BOUNDS, i).copied(),
                    blocks: table.find(SEC_BLOCKS, i).copied(),
                })
            })
            .collect::<Option<Vec<_>>>()
            .map(|refs| refs.into_iter().map(Some).collect::<Vec<_>>())
            .ok_or_else(|| {
                Error::Snapshot(SnapshotFileError::Corrupt {
                    path: path.display().to_string(),
                    detail: "appended table lost a shard section".into(),
                })
            })?;
        *self.backing.lock().expect("backing lock") = Some(SnapshotBacking {
            path: path.to_path_buf(),
            header,
            extent,
            embed_entry: Some(embed_entry),
            shard_refs: refs,
        });
        let size = std::fs::metadata(path)
            .map_err(|e| {
                Error::Snapshot(SnapshotFileError::Io {
                    path: path.display().to_string(),
                    error: e.to_string(),
                })
            })?
            .len();
        Ok(Some(size))
    }

    /// Load a snapshot written by [`Snapshot::save`], fully materialized:
    /// the same validation as [`Snapshot::open_mmap`], then every shard
    /// decoded (on worker threads when `parallel` is set) and the corpus
    /// re-assembled before returning — the write-path open, where later
    /// operations must not discover corruption behind infallible
    /// signatures. Corrupt, truncated, or wrong-version files produce a
    /// structured [`Error::Snapshot`] naming the file — never a panic.
    ///
    /// For O(1)-cost opens that defer shard decoding to first touch, use
    /// [`Snapshot::open_mmap`] — answers are byte-identical either way.
    ///
    /// ```
    /// use koko_core::{Koko, Snapshot};
    ///
    /// let koko = Koko::from_texts(&["The cafe was busy.", "Anna was happy."]);
    /// let path = std::env::temp_dir().join("doctest_load.koko");
    /// koko.snapshot().save(&path, false).unwrap();
    ///
    /// let loaded = Snapshot::load(&path, false).unwrap();
    /// assert_eq!(loaded.corpus().num_documents(), 2);
    /// # std::fs::remove_file(&path).ok();
    /// ```
    pub fn load(path: &Path, parallel: bool) -> Result<Snapshot, Error> {
        let o = open_sections(path)?;
        let threads = if parallel { 0 } else { 1 };
        let decoded: Vec<Result<Shard, SnapshotFileError>> =
            koko_par::par_map(&o.shard_secs, threads, |i, secs| {
                decode_shard_sections(&o.sf, i, *secs, &o.router)
            });
        let mut slots = Vec::with_capacity(decoded.len());
        for shard in decoded {
            slots.push(ShardSlot::ready(Arc::new(shard.map_err(Error::Snapshot)?)));
        }
        let backing = backing_of(path, &o);
        let snap = Snapshot::from_lazy_parts(
            slots,
            o.num_base,
            o.generation,
            o.router,
            o.embed,
            Some(backing),
        );
        // Re-assemble the corpus from the stores now (parallel, validated
        // against the router) — the write-path contract is "no lazy state
        // left behind".
        snap.try_corpus().map_err(Error::Snapshot)?;
        Ok(snap)
    }

    /// Open the snapshot at `path` by memory-mapping it: validates the
    /// header, section table, manifest and router in O(sections) without
    /// reading any shard payload, then returns a snapshot whose shards
    /// decode out of the mapping the first time a query touches them.
    /// Each section is checksum-verified on that first touch, so
    /// corruption surfaces as a structured error from the query that
    /// found it — never silently and never as a crash.
    ///
    /// Cold-open cost is independent of corpus size, and a corpus larger
    /// than RAM is served under the page cache's eviction policy. The
    /// mapping holds the file's pages; KOKO's own writers never truncate
    /// a published snapshot (full saves replace the file by rename,
    /// appends only extend it), but an *external* truncation of the
    /// mapped file can fault a reader fatally — the classic mmap
    /// contract.
    pub fn open_mmap(path: &Path) -> Result<Snapshot, Error> {
        let o = open_sections(path)?;
        let backing = backing_of(path, &o);
        let slots = o
            .shard_secs
            .iter()
            .enumerate()
            .map(|(i, secs)| {
                let sf = o.sf.clone();
                let router = o.router.clone();
                let secs = *secs;
                ShardSlot::lazy(move || decode_shard_sections(&sf, i, secs, &router))
            })
            .collect();
        Ok(Snapshot::from_lazy_parts(
            slots,
            o.num_base,
            o.generation,
            o.router,
            o.embed,
            Some(backing),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Koko;
    use koko_storage::SNAPSHOT_VERSION;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("koko_core_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Copy the snapshot at `src` to `dst` with every section passed
    /// through `edit` (`None` drops it). The copy is written by the
    /// section writer, so its checksums are valid whatever `edit` returns.
    fn rewrite(
        src: &Path,
        dst: &Path,
        mut edit: impl FnMut(&SectionEntry, &[u8]) -> Option<Vec<u8>>,
    ) {
        let sf = SectionedFile::open_mmap(src).unwrap();
        let mut w = SectionWriter::new();
        for e in &sf.table().entries {
            if let Some(bytes) = edit(e, sf.section_bytes(e).unwrap().as_slice()) {
                w.add_section(e.kind, e.index, &bytes);
            }
        }
        write_sectioned_file(dst, &w.finish()).unwrap();
    }

    /// Both open paths refuse `path` at open with a `Corrupt` whose
    /// detail mentions `needle`.
    fn assert_corrupt_at_open(path: &Path, needle: &str) {
        for (label, opened) in [
            ("load", Snapshot::load(path, true)),
            ("open_mmap", Snapshot::open_mmap(path)),
        ] {
            match opened {
                Err(Error::Snapshot(SnapshotFileError::Corrupt { detail, .. })) => {
                    assert!(detail.contains(needle), "{label}: {detail}");
                }
                other => panic!("{label}: expected Corrupt ({needle}), got {other:?}"),
            }
        }
    }

    /// A shard's persisted form: its meta and store sections.
    fn sections(shard: &Shard) -> (Vec<u8>, Vec<u8>) {
        (shard.encode_meta_section(), shard.store().to_bytes())
    }

    fn sample() -> Koko {
        Koko::from_texts(&[
            "I ate a chocolate ice cream, which was delicious, and also ate a pie.",
            "Anna ate some delicious cheesecake that she bought at a grocery store.",
            "The cafe was busy.",
        ])
    }

    #[test]
    fn save_reports_the_file_size() {
        let path = tmp("size.koko");
        let bytes = sample().snapshot().save(&path, true).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn saves_are_version_4() {
        let path = tmp("v4_stamp.koko");
        sample().snapshot().save(&path, true).unwrap();
        let data = std::fs::read(&path).unwrap();
        assert_eq!(&data[8..10], &SNAPSHOT_VERSION.to_le_bytes());
        assert_eq!(SNAPSHOT_VERSION, 4);
    }

    #[test]
    fn sequential_and_parallel_save_produce_identical_files() {
        let (pa, pb) = (tmp("par.koko"), tmp("seq.koko"));
        let koko = sample();
        koko.snapshot().save(&pa, true).unwrap();
        koko.snapshot().save(&pb, false).unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
    }

    #[test]
    fn load_rejects_missing_file_with_structured_error() {
        let path = tmp("missing.koko");
        std::fs::remove_file(&path).ok();
        match Snapshot::load(&path, true) {
            Err(Error::Snapshot(SnapshotFileError::Io { path: p, .. })) => {
                assert!(p.contains("missing.koko"));
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_plain_text_as_not_a_snapshot() {
        let path = tmp("plain.txt");
        std::fs::write(&path, "The cafe was busy.\n").unwrap();
        assert!(matches!(
            Snapshot::load(&path, true),
            Err(Error::Snapshot(SnapshotFileError::NotASnapshot { .. }))
        ));
    }

    #[test]
    fn load_rejects_wrong_version_naming_expected() {
        let path = tmp("version.koko");
        sample().snapshot().save(&path, false).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data[8..10].copy_from_slice(&(SNAPSHOT_VERSION + 7).to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let err = Snapshot::load(&path, true).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("version.koko") && msg.contains(&SNAPSHOT_VERSION.to_string()),
            "{msg}"
        );
    }

    #[test]
    fn load_rejects_truncated_and_corrupted_files() {
        let path = tmp("damage.koko");
        sample().snapshot().save(&path, false).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Truncations at several depths: header, table pointer past EOF,
        // mid-table.
        for cut in [9, 20, 30, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = Snapshot::load(&path, true).unwrap_err();
            assert!(matches!(err, Error::Snapshot(_)), "cut {cut}: {err:?}");
        }
        // Bit flip inside the first section (sections start at offset
        // 32): the per-section checksum catches it when the eager load
        // touches that section.
        let mut flipped = full.clone();
        flipped[40] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            Snapshot::load(&path, true),
            Err(Error::Snapshot(SnapshotFileError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn load_rejects_router_that_disagrees_with_shards() {
        use crate::engine::EngineOpts;
        let opts = EngineOpts {
            num_shards: 2,
            ..EngineOpts::default()
        };
        // Same shard count, different document boundaries.
        let a = Koko::from_texts_with_opts(
            &["Anna ate cake. She was happy. The cafe was busy.", "Go."],
            opts,
        );
        let b = Koko::from_texts_with_opts(&["One.", "Two.", "Three.", "Four."], opts);
        assert_ne!(a.snapshot().router(), b.snapshot().router());

        // Hand-build a file pairing b's shards with a's router: shard
        // ranges are validated against the router on materialization.
        let mut w = SectionWriter::new();
        w.add_section(SEC_EMBED, 0, &b.snapshot().embeddings().to_bytes());
        let mut manifest = Vec::new();
        manifest.extend_from_slice(&1u64.to_le_bytes());
        manifest.extend_from_slice(&(b.snapshot().num_shards() as u64).to_le_bytes());
        w.add_section(SEC_MANIFEST, 0, &manifest);
        w.add_section(SEC_ROUTER, 0, &a.snapshot().router().to_bytes());
        for (i, shard) in b.snapshot().shards().iter().enumerate() {
            w.add_section(SEC_SHARD, i as u32, &shard.encode_meta_section());
            w.add_section(SEC_STORE, i as u32, &shard.store().to_bytes());
        }
        let path = tmp("router_mismatch.koko");
        write_sectioned_file(&path, &w.finish()).unwrap();
        match Snapshot::load(&path, true) {
            Err(Error::Snapshot(SnapshotFileError::Corrupt { detail, .. })) => {
                assert!(detail.contains("router"), "{detail}");
            }
            other => panic!("expected router-mismatch rejection, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_with_deltas_round_trips_generation_and_split() {
        let koko = sample();
        koko.add_texts(&["The barista poured a latte.", "go Falcons!"]);
        let snap = koko.snapshot();
        assert_eq!(snap.num_delta_shards(), 1);
        let path = tmp("delta.koko");
        snap.save(&path, true).unwrap();

        let loaded = Snapshot::load(&path, true).unwrap();
        assert_eq!(loaded.generation(), snap.generation());
        assert_eq!(loaded.num_base_shards(), snap.num_base_shards());
        assert_eq!(loaded.num_delta_shards(), 1);
        assert_eq!(
            loaded.corpus().num_documents(),
            snap.corpus().num_documents()
        );
    }

    #[test]
    fn manifest_base_count_past_the_router_is_rejected() {
        let koko = sample();
        koko.add_texts(&["The barista poured a latte."]);
        let good = tmp("base_count_good.koko");
        koko.snapshot().save(&good, true).unwrap();
        let num_shards = koko.snapshot().num_shards() as u64;
        let bad = tmp("base_count_bad.koko");
        rewrite(&good, &bad, |e, bytes| {
            let mut bytes = bytes.to_vec();
            if e.kind == SEC_MANIFEST {
                bytes[8..16].copy_from_slice(&(num_shards + 5).to_le_bytes());
            }
            Some(bytes)
        });
        assert_corrupt_at_open(&bad, "base shards");
        // Exactly as many base shards as the router describes is fine.
        rewrite(&good, &bad, |e, bytes| {
            let mut bytes = bytes.to_vec();
            if e.kind == SEC_MANIFEST {
                bytes[8..16].copy_from_slice(&num_shards.to_le_bytes());
            }
            Some(bytes)
        });
        assert_eq!(Snapshot::load(&bad, true).unwrap().num_delta_shards(), 0);
    }

    #[test]
    fn manifest_of_the_wrong_length_is_rejected() {
        let good = tmp("manifest_len_good.koko");
        sample().snapshot().save(&good, true).unwrap();
        let bad = tmp("manifest_len_bad.koko");
        for len in [0usize, 8, 15, 17, 24] {
            rewrite(&good, &bad, |e, bytes| {
                let mut bytes = bytes.to_vec();
                if e.kind == SEC_MANIFEST {
                    bytes.resize(len, 0);
                }
                Some(bytes)
            });
            assert_corrupt_at_open(&bad, &format!("manifest section is {len} bytes"));
        }
    }

    #[test]
    fn bound_stats_round_trip_through_save() {
        let path = tmp("stats.koko");
        let koko = sample();
        koko.snapshot().save(&path, true).unwrap();
        let loaded = Snapshot::load(&path, true).unwrap();
        assert_eq!(loaded.num_shards(), koko.snapshot().num_shards());
        for (a, b) in loaded.shards().iter().zip(koko.snapshot().shards()) {
            let got = a.bound_stats().expect("saved snapshots carry stats");
            assert_eq!(got, b.bound_stats().unwrap());
            let blocks = a.block_stats().expect("saved snapshots carry block stats");
            assert_eq!(blocks, b.block_stats().unwrap());
        }
        // Re-saving a loaded snapshot to a fresh path reproduces the file
        // byte-for-byte (stats included).
        let path2 = tmp("stats_resave.koko");
        loaded.save(&path2, false).unwrap();
        let first = std::fs::read(&path).unwrap();
        let second = std::fs::read(&path2).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn stats_less_files_load_and_resave_without_stats_sections() {
        let koko = sample();
        let snap = koko.snapshot();
        let full = tmp("with_stats.koko");
        snap.save(&full, true).unwrap();
        // The file a writer without statistics would have produced.
        let path = tmp("stats_less.koko");
        rewrite(&full, &path, |e, bytes| {
            (e.kind != SEC_BOUNDS && e.kind != SEC_BLOCKS).then(|| bytes.to_vec())
        });

        let loaded = Snapshot::load(&path, true).unwrap();
        let mapped = Snapshot::open_mmap(&path).unwrap();
        for s in loaded.shards().iter().chain(mapped.try_shards().unwrap()) {
            assert!(s.bound_stats().is_none(), "no BOUNDS section, no stats");
            assert!(s.block_stats().is_none(), "no BLOCKS section, no stats");
        }
        assert_eq!(
            loaded.corpus().num_documents(),
            snap.corpus().num_documents()
        );
        // Re-saving the stats-less snapshot writes a valid file with no
        // statistics sections.
        let resaved = tmp("stats_less_resave.koko");
        loaded.save(&resaved, false).unwrap();
        let sf = SectionedFile::open_mmap(&resaved).unwrap();
        assert_eq!(sf.table().of_kind(SEC_BOUNDS).count(), 0);
        assert_eq!(sf.table().of_kind(SEC_BLOCKS).count(), 0);
        assert_eq!(
            sf.table().of_kind(SEC_SHARD).count(),
            snap.num_shards(),
            "every shard still saved"
        );
        let again = Snapshot::load(&resaved, true).unwrap();
        assert!(again.shards().iter().all(|s| s.bound_stats().is_none()));
    }

    #[test]
    fn malformed_stats_section_is_rejected() {
        let good = tmp("stats_good.koko");
        sample().snapshot().save(&good, true).unwrap();
        // A BOUNDS section whose declared count disagrees with its body,
        // and one whose hashes are out of order; checksums stay valid, so
        // the decoder is what must refuse them.
        let unsorted: Vec<u8> = [2u64, 9, 3].iter().flat_map(|w| w.to_le_bytes()).collect();
        let bad = tmp("stats_bad.koko");
        for needle in ["declares", "not sorted"] {
            rewrite(&good, &bad, |e, bytes| {
                let mut bytes = bytes.to_vec();
                if e.kind == SEC_BOUNDS && needle == "declares" {
                    bytes[0] ^= 0x01;
                } else if e.kind == SEC_BOUNDS {
                    bytes = unsorted.clone();
                }
                Some(bytes)
            });
            match Snapshot::load(&bad, true) {
                Err(Error::Snapshot(SnapshotFileError::Corrupt { detail, .. })) => {
                    assert!(detail.contains(needle), "{detail}");
                }
                other => panic!("expected stats rejection ({needle}), got {other:?}"),
            }
            // The mapped open defers it to the shard's first touch.
            let mapped = Snapshot::open_mmap(&bad).unwrap();
            assert!(matches!(
                mapped.try_shards(),
                Err(SnapshotFileError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn empty_corpus_round_trips() {
        let path = tmp("empty.koko");
        let koko = Koko::from_texts::<&str>(&[]);
        koko.snapshot().save(&path, true).unwrap();
        let loaded = Snapshot::load(&path, true).unwrap();
        assert_eq!(loaded.corpus().num_documents(), 0);
        assert_eq!(loaded.num_shards(), koko.snapshot().num_shards());
        let mapped = Snapshot::open_mmap(&path).unwrap();
        assert_eq!(mapped.num_documents(), 0);
    }

    #[test]
    fn custom_embeddings_survive_the_round_trip() {
        let path = tmp("ontology.koko");
        let koko =
            sample().with_embeddings(Embeddings::new().with_ontology(&[("beans", &["arabica"])]));
        koko.snapshot().save(&path, true).unwrap();
        let loaded = Snapshot::load(&path, true).unwrap();
        assert!(loaded.embeddings().knows("arabica"));
        assert_eq!(
            loaded.embeddings().similarity("arabica", "coffee"),
            koko.snapshot().embeddings().similarity("arabica", "coffee"),
        );
    }

    #[test]
    fn open_mmap_is_lazy_and_serves_identical_documents() {
        let path = tmp("mmap.koko");
        let koko = sample();
        koko.snapshot().save(&path, true).unwrap();

        let mapped = Snapshot::open_mmap(&path).unwrap();
        // Counts come from the router — no shard has materialized yet.
        assert_eq!(
            mapped.num_documents(),
            koko.snapshot().corpus().num_documents()
        );
        assert_eq!(
            mapped.num_sentences(),
            koko.snapshot().corpus().num_sentences()
        );
        assert_eq!(mapped.num_shards(), koko.snapshot().num_shards());
        assert_eq!(mapped.generation(), koko.snapshot().generation());
        // Touching one document materializes one shard and decodes
        // bit-identically.
        for doc in 0..mapped.num_documents() as u32 {
            assert_eq!(
                &mapped.load_document(doc).unwrap(),
                koko.snapshot().corpus().document(doc)
            );
        }
        // Full materialization matches the eager load exactly.
        let eager = Snapshot::load(&path, true).unwrap();
        for (a, b) in mapped.try_shards().unwrap().iter().zip(eager.shards()) {
            assert_eq!(sections(a), sections(b));
            assert_eq!(a.bound_stats(), b.bound_stats());
            assert_eq!(a.block_stats(), b.block_stats());
        }
        assert_eq!(
            mapped.try_corpus().unwrap().num_sentences(),
            eager.corpus().num_sentences()
        );
    }

    #[test]
    fn mmap_open_surfaces_section_corruption_on_touch_not_open() {
        let path = tmp("mmap_corrupt.koko");
        sample().snapshot().save(&path, true).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        // Corrupt the *last* store section: open must still succeed
        // (payloads unread), the touch must fail structurally.
        let sf = SectionedFile::open_mmap(&path).unwrap();
        let num_stores = sf.table().of_kind(SEC_STORE).count() as u32;
        let store = sf.find(SEC_STORE, num_stores - 1).unwrap();
        drop(sf);
        data[store.offset as usize] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let mapped = Snapshot::open_mmap(&path).unwrap();
        match mapped.try_shards() {
            Err(SnapshotFileError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch on materialization, got {other:?}"),
        }
        // The eager load refuses up front.
        assert!(matches!(
            Snapshot::load(&path, true),
            Err(Error::Snapshot(SnapshotFileError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn resave_to_same_path_appends_instead_of_rewriting() {
        let path = tmp("append_save.koko");
        let koko = sample();
        koko.save(&path).unwrap();
        let before = SectionedFile::open_mmap(&path).unwrap();
        let embed_before = before.find(SEC_EMBED, 0).unwrap();
        let shard0_before = before.find(SEC_SHARD, 0).unwrap();
        let extent_before = before.extent();
        drop(before);

        // Reopen (eagerly — the write path), add documents, save again.
        let reopened = Koko::open(&path).unwrap();
        reopened.add_texts(&["The barista poured a latte for Anna."]);
        reopened.save(&path).unwrap();

        let after = SectionedFile::open_mmap(&path).unwrap();
        // Base sections were carried forward by reference: same offsets,
        // no rewrite. The new table lives past the old extent.
        assert_eq!(after.find(SEC_EMBED, 0).unwrap(), embed_before);
        assert_eq!(after.find(SEC_SHARD, 0).unwrap(), shard0_before);
        assert!(after.extent() > extent_before);
        let delta_idx = (after.table().of_kind(SEC_SHARD).count() - 1) as u32;
        assert!(
            after.find(SEC_SHARD, delta_idx).unwrap().offset >= extent_before,
            "delta shard is appended past the old extent"
        );
        drop(after);

        let loaded = Snapshot::load(&path, true).unwrap();
        assert_eq!(
            loaded.num_documents(),
            koko.snapshot().corpus().num_documents() + 1
        );
        assert_eq!(loaded.num_delta_shards(), 1);

        // A second append round-trips too (the refreshed backing stays
        // consistent with the file).
        reopened.add_texts(&["go Falcons!"]);
        reopened.save(&path).unwrap();
        let again = Snapshot::load(&path, true).unwrap();
        assert_eq!(
            again.num_documents(),
            koko.snapshot().corpus().num_documents() + 2
        );
    }

    #[test]
    fn append_falls_back_to_rewrite_when_file_changed_behind_us() {
        let path = tmp("append_fallback.koko");
        let koko = Koko::from_texts(&["Anna ate cake.", "The cafe was busy."]);
        koko.save(&path).unwrap();
        let reopened = Koko::open(&path).unwrap();
        // Replace the file behind the opened engine's back.
        let other = Koko::from_texts(&["Completely different corpus."]);
        other.save(&path).unwrap();
        // Saving the original still succeeds — full rewrite, not a
        // corrupting append onto the stranger's sections.
        reopened.add_texts(&["go Falcons!"]);
        reopened.save(&path).unwrap();
        let loaded = Snapshot::load(&path, true).unwrap();
        assert_eq!(loaded.num_documents(), 3);
    }
}
