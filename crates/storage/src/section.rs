//! The snapshot container's body: offset-indexed, per-section-checksummed
//! sections behind the 26-byte `KOKOSNAP` header (format version 4, the
//! only one).
//!
//! Sections are located by a table at the end of the file, so a reader
//! validates the header plus table in O(sections) and pays for a
//! section's bytes (page faults + checksum) only when it first touches
//! it:
//!
//! ```text
//! offset  size  field
//! ------  ----  ------------------------------------------------------
//!      0     8  magic  b"KOKOSNAP"
//!      8     2  format version (u16 LE) = 4
//!     10     8  section-table offset (u64 LE, absolute, 8-aligned)
//!     18     8  FNV-1a 64 checksum of the section-table bytes (u64 LE)
//!     32     …  sections, each 8-aligned, zero-padded between
//!      …     …  section table: count (u32 LE) + count × 30-byte entries
//! ```
//!
//! The reader checks magic and version before interpreting offsets
//! 10..26; any version but [`SNAPSHOT_VERSION`] is refused. Each table
//! entry is `(kind u16, index u32, offset u64, len u64, checksum u64)` —
//! 30 bytes, packed LE. Sections always precede their table
//! (`offset + len <= table_offset`), and every section offset is
//! 8-aligned so fixed-width `u64` arrays inside a section can be served
//! as zero-copy views from a page-aligned `mmap` base.
//!
//! **Append-on-add**: a writer extends a file by writing new sections
//! plus a fresh table *past the current extent* (`table_offset +
//! table_len`), fsyncing, then atomically publishing with an in-place
//! rewrite of the 26-byte header — the single commit point. Bytes past
//! the extent are therefore tolerated by the reader: they are an aborted
//! append, unreachable from the committed table. Superseded sections and
//! tables become dead bytes reclaimed by the next full save.

use crate::codec::fnv1a64;
use crate::snapshot_file::{
    fsync_dir, io_err, SnapshotFileError, SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use crate::view::SharedBytes;
use std::path::Path;

/// First possible section offset: the header rounded up to 8.
pub const FIRST_SECTION_OFFSET: u64 = 32;

/// Bytes per section-table entry.
pub const SECTION_ENTRY_LEN: usize = 2 + 4 + 8 + 8 + 8;

/// Section kind: generation manifest (generation u64 + num_base u64).
pub const SEC_MANIFEST: u16 = 1;
/// Section kind: embeddings codec frame.
pub const SEC_EMBED: u16 = 2;
/// Section kind: shard-router codec frame.
pub const SEC_ROUTER: u16 = 3;
/// Section kind: per-shard id/ranges/index frame (`index` = shard slot).
pub const SEC_SHARD: u16 = 4;
/// Section kind: per-shard doc store frame (`index` = shard slot).
pub const SEC_STORE: u16 = 5;
/// Section kind: per-shard score-bound hashes (`index` = shard slot);
/// absent when the shard has no bound stats.
pub const SEC_BOUNDS: u16 = 6;
/// Section kind: per-shard block-max statistics — per-block token-hash
/// vocabularies refining `SEC_BOUNDS` to fixed doc ranges (`index` =
/// shard slot); absent when the shard has no block stats. Readers
/// predating this kind skip it (unknown kinds are tolerated).
pub const SEC_BLOCKS: u16 = 7;

/// One row of the section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// One of the `SEC_*` kinds (unknown kinds are tolerated and skipped,
    /// for forward-compatible additions within the format version).
    pub kind: u16,
    /// Disambiguates repeated kinds — the shard slot for per-shard kinds.
    pub index: u32,
    /// Absolute file offset of the section start (8-aligned).
    pub offset: u64,
    /// Section length in bytes.
    pub len: u64,
    /// FNV-1a 64 checksum of the section bytes, verified on first touch.
    pub checksum: u64,
}

impl SectionEntry {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
    }

    fn decode(b: &[u8]) -> SectionEntry {
        SectionEntry {
            kind: u16::from_le_bytes(b[0..2].try_into().expect("sized")),
            index: u32::from_le_bytes(b[2..6].try_into().expect("sized")),
            offset: u64::from_le_bytes(b[6..14].try_into().expect("sized")),
            len: u64::from_le_bytes(b[14..22].try_into().expect("sized")),
            checksum: u64::from_le_bytes(b[22..30].try_into().expect("sized")),
        }
    }
}

/// The decoded section table of a snapshot file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SectionTable {
    /// Entries in file order.
    pub entries: Vec<SectionEntry>,
}

impl SectionTable {
    /// Serialize: count + packed entries.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.entries.len() * SECTION_ENTRY_LEN);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            e.encode_into(&mut out);
        }
        out
    }

    /// The unique entry of `kind`/`index`, if present.
    pub fn find(&self, kind: u16, index: u32) -> Option<&SectionEntry> {
        self.entries
            .iter()
            .find(|e| e.kind == kind && e.index == index)
    }

    /// All entries of `kind`, in file order.
    pub fn of_kind(&self, kind: u16) -> impl Iterator<Item = &SectionEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }
}

fn pad8(len: u64) -> u64 {
    len.div_ceil(8) * 8
}

/// Builds the byte image of a complete snapshot file in memory (full
/// saves).
/// Appends go through [`append_sections`] instead.
#[derive(Debug)]
pub struct SectionWriter {
    buf: Vec<u8>,
    entries: Vec<SectionEntry>,
}

impl SectionWriter {
    /// Start an image: header placeholder + padding to the first
    /// 8-aligned section offset.
    pub fn new() -> SectionWriter {
        SectionWriter {
            buf: vec![0u8; FIRST_SECTION_OFFSET as usize],
            entries: Vec::new(),
        }
    }

    /// Append one section, 8-aligning its start.
    pub fn add_section(&mut self, kind: u16, index: u32, bytes: &[u8]) {
        self.buf.resize(pad8(self.buf.len() as u64) as usize, 0);
        let offset = self.buf.len() as u64;
        self.buf.extend_from_slice(bytes);
        self.entries.push(SectionEntry {
            kind,
            index,
            offset,
            len: bytes.len() as u64,
            checksum: fnv1a64(bytes),
        });
    }

    /// Seal the image: write the table, then fill the header (magic,
    /// [`SNAPSHOT_VERSION`], table offset, table checksum).
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.resize(pad8(self.buf.len() as u64) as usize, 0);
        let table_offset = self.buf.len() as u64;
        let table = SectionTable {
            entries: self.entries,
        }
        .encode();
        let table_checksum = fnv1a64(&table);
        self.buf.extend_from_slice(&table);
        self.buf[0..8].copy_from_slice(SNAPSHOT_MAGIC);
        self.buf[8..10].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        self.buf[10..18].copy_from_slice(&table_offset.to_le_bytes());
        self.buf[18..26].copy_from_slice(&table_checksum.to_le_bytes());
        self.buf
    }
}

impl Default for SectionWriter {
    fn default() -> Self {
        SectionWriter::new()
    }
}

/// A validated snapshot container over any shared backing (mmap or
/// owned).
///
/// Construction cost is O(sections): header sanity, table checksum, and
/// per-entry range/alignment invariants — section *payloads* are neither
/// read nor checksummed until [`SectionedFile::section_bytes`] touches
/// them.
#[derive(Debug, Clone)]
pub struct SectionedFile {
    backing: SharedBytes,
    table: SectionTable,
    table_offset: u64,
    header: [u8; SNAPSHOT_HEADER_LEN],
    path: String,
}

impl SectionedFile {
    /// Memory-map and validate the snapshot container at `path`. The mapping is
    /// shared by every section view handed out, so the file's pages fault
    /// in only as sections are touched.
    pub fn open_mmap(path: &Path) -> Result<SectionedFile, SnapshotFileError> {
        let f = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
        let map = crate::mmap::Mmap::map(&f).map_err(|e| io_err(path, e))?;
        let backing = SharedBytes::new(std::sync::Arc::new(map));
        SectionedFile::open_bytes(&path.display().to_string(), backing)
    }

    /// Validate `backing` as a snapshot container: magic, version, table
    /// bounds and checksum, and every entry's range. `path` labels errors
    /// only.
    pub fn open_bytes(
        path: &str,
        backing: SharedBytes,
    ) -> Result<SectionedFile, SnapshotFileError> {
        let name = path.to_string();
        let data = backing.as_slice();
        if data.len() < 8 || &data[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotFileError::NotASnapshot { path: name });
        }
        if data.len() < SNAPSHOT_HEADER_LEN {
            return Err(SnapshotFileError::Truncated {
                path: name,
                expected: SNAPSHOT_HEADER_LEN as u64,
                found: data.len() as u64,
            });
        }
        let version = u16::from_le_bytes(data[8..10].try_into().expect("sized"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotFileError::WrongVersion {
                path: name,
                found: version,
            });
        }
        let table_offset = u64::from_le_bytes(data[10..18].try_into().expect("sized"));
        let table_checksum = u64::from_le_bytes(data[18..26].try_into().expect("sized"));
        let file_len = data.len() as u64;
        if table_offset < FIRST_SECTION_OFFSET || table_offset % 8 != 0 {
            return Err(SnapshotFileError::Corrupt {
                path: name,
                detail: format!("section table offset {table_offset} invalid"),
            });
        }
        if table_offset + 4 > file_len {
            return Err(SnapshotFileError::Truncated {
                path: name,
                expected: table_offset + 4,
                found: file_len,
            });
        }
        let to = usize::try_from(table_offset).map_err(|_| SnapshotFileError::TooLarge {
            path: name.clone(),
            declared: table_offset,
        })?;
        let count = u32::from_le_bytes(data[to..to + 4].try_into().expect("sized")) as u64;
        let table_len = 4 + count * SECTION_ENTRY_LEN as u64;
        if table_offset + table_len > file_len {
            return Err(SnapshotFileError::Truncated {
                path: name,
                expected: table_offset + table_len,
                found: file_len,
            });
        }
        let tl = usize::try_from(table_len).map_err(|_| SnapshotFileError::TooLarge {
            path: name.clone(),
            declared: table_len,
        })?;
        let table_bytes = &data[to..to + tl];
        if fnv1a64(table_bytes) != table_checksum {
            return Err(SnapshotFileError::ChecksumMismatch { path: name });
        }
        // Bytes past the extent (table_offset + table_len) are an aborted
        // append — unreachable from this table, so tolerated by design.
        let mut entries = Vec::with_capacity(count as usize);
        let mut seen = std::collections::HashSet::with_capacity(count as usize);
        for i in 0..count as usize {
            let start = 4 + i * SECTION_ENTRY_LEN;
            let e = SectionEntry::decode(&table_bytes[start..start + SECTION_ENTRY_LEN]);
            if e.offset < FIRST_SECTION_OFFSET
                || !e.offset.is_multiple_of(8)
                || e.offset
                    .checked_add(e.len)
                    .is_none_or(|end| end > table_offset)
            {
                return Err(SnapshotFileError::Corrupt {
                    path: name,
                    detail: format!(
                        "section (kind {}, index {}) range {}+{} escapes [{}..{}]",
                        e.kind, e.index, e.offset, e.len, FIRST_SECTION_OFFSET, table_offset
                    ),
                });
            }
            if !seen.insert((e.kind, e.index)) {
                return Err(SnapshotFileError::Corrupt {
                    path: name,
                    detail: format!("duplicate section (kind {}, index {})", e.kind, e.index),
                });
            }
            entries.push(e);
        }
        let mut header = [0u8; SNAPSHOT_HEADER_LEN];
        header.copy_from_slice(&data[..SNAPSHOT_HEADER_LEN]);
        Ok(SectionedFile {
            backing,
            table: SectionTable { entries },
            table_offset,
            header,
            path: name,
        })
    }

    /// The validated table.
    pub fn table(&self) -> &SectionTable {
        &self.table
    }

    /// The 26 header bytes as validated at open — the append path
    /// compares these against the file before reusing sections.
    pub fn header(&self) -> [u8; SNAPSHOT_HEADER_LEN] {
        self.header
    }

    /// The committed extent: first byte past the table. Bytes beyond it
    /// are an aborted append and carry no meaning.
    pub fn extent(&self) -> u64 {
        self.table_offset + 4 + self.table.entries.len() as u64 * SECTION_ENTRY_LEN as u64
    }

    /// Error-label path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The unique entry of `kind`/`index`, if present.
    pub fn find(&self, kind: u16, index: u32) -> Option<SectionEntry> {
        self.table.find(kind, index).copied()
    }

    /// Like [`SectionedFile::find`] but a missing section is a
    /// structured [`SnapshotFileError::Corrupt`].
    pub fn require(&self, kind: u16, index: u32) -> Result<SectionEntry, SnapshotFileError> {
        self.find(kind, index)
            .ok_or_else(|| SnapshotFileError::Corrupt {
                path: self.path.clone(),
                detail: format!("missing required section (kind {kind}, index {index})"),
            })
    }

    /// Fetch and checksum-verify one section's bytes. This is the
    /// per-touch verification point: the first access to a section pays
    /// its page faults + FNV pass, later accesses are plain slices.
    pub fn section_bytes(&self, entry: &SectionEntry) -> Result<SharedBytes, SnapshotFileError> {
        let start = usize::try_from(entry.offset).map_err(|_| SnapshotFileError::TooLarge {
            path: self.path.clone(),
            declared: entry.offset,
        })?;
        let len = usize::try_from(entry.len).map_err(|_| SnapshotFileError::TooLarge {
            path: self.path.clone(),
            declared: entry.len,
        })?;
        let bytes = self.backing.slice(start..start + len);
        if fnv1a64(bytes.as_slice()) != entry.checksum {
            return Err(SnapshotFileError::ChecksumMismatch {
                path: self.path.clone(),
            });
        }
        Ok(bytes)
    }
}

/// Atomically publish a complete image (built by
/// [`SectionWriter::finish`]) as the contents of `path` — the full-save
/// counterpart of [`append_sections`]. The image is staged in a sibling
/// temp file, fsynced, renamed over `path`, and the parent directory is
/// fsynced, so an interrupted save never destroys a good snapshot at
/// `path`.
pub fn write_sectioned_file(path: &Path, image: &[u8]) -> Result<(), SnapshotFileError> {
    crate::snapshot_file::atomic_publish(path, &[image])
}

/// Append `new` sections to the snapshot file at `path`, carrying forward the
/// still-valid `keep` entries, and atomically publish by rewriting the
/// 26-byte header in place.
///
/// Returns `Ok(None)` — *without modifying the file* — when the on-disk
/// header no longer matches `expected_header`, i.e. the file was
/// replaced or appended to by someone else since it was opened; the
/// caller then falls back to a full rewrite. On success returns the new
/// header + table.
///
/// Commit protocol (the order is the invariant):
/// 1. `set_len(extent)` — clear any torn tail from an earlier aborted
///    append; committed sections and table all live below `extent`.
/// 2. Write new sections (8-aligned) and the new table past the extent;
///    `fsync` the file. Nothing committed yet: a crash here leaves the
///    old header pointing at the old table, and the reader ignores the
///    tail.
/// 3. Rewrite the 26 header bytes (new table offset + checksum) in
///    place; `fsync` the file, then `fsync` the parent directory. The
///    header rewrite is the single commit point — 26 bytes inside one
///    filesystem block, so a crash leaves either the old or the new
///    header, both of which describe a fully-written table.
#[allow(clippy::type_complexity)]
pub fn append_sections(
    path: &Path,
    expected_header: &[u8; SNAPSHOT_HEADER_LEN],
    extent: u64,
    keep: &[SectionEntry],
    new: &[(u16, u32, Vec<u8>)],
) -> Result<Option<([u8; SNAPSHOT_HEADER_LEN], SectionTable)>, SnapshotFileError> {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    let mut on_disk = [0u8; SNAPSHOT_HEADER_LEN];
    if f.read_exact(&mut on_disk).is_err() || &on_disk != expected_header {
        return Ok(None);
    }
    let run =
        |f: &mut std::fs::File| -> std::io::Result<([u8; SNAPSHOT_HEADER_LEN], SectionTable)> {
            f.set_len(extent)?;
            let mut pos = pad8(extent);
            let mut entries: Vec<SectionEntry> = keep.to_vec();
            f.seek(SeekFrom::Start(extent))?;
            let mut w = std::io::BufWriter::new(f);
            w.write_all(&vec![0u8; (pos - extent) as usize])?;
            for (kind, index, bytes) in new {
                entries.push(SectionEntry {
                    kind: *kind,
                    index: *index,
                    offset: pos,
                    len: bytes.len() as u64,
                    checksum: fnv1a64(bytes),
                });
                w.write_all(bytes)?;
                let next = pad8(pos + bytes.len() as u64);
                w.write_all(&vec![0u8; (next - pos - bytes.len() as u64) as usize])?;
                pos = next;
            }
            let table = SectionTable { entries };
            let table_bytes = table.encode();
            let table_offset = pos;
            w.write_all(&table_bytes)?;
            w.flush()?;
            let f = w.into_inner().map_err(|e| e.into_error())?;
            // Step 2 barrier: table + sections durable before the header
            // points at them.
            f.sync_all()?;
            let mut header = [0u8; SNAPSHOT_HEADER_LEN];
            header[0..8].copy_from_slice(SNAPSHOT_MAGIC);
            header[8..10].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
            header[10..18].copy_from_slice(&table_offset.to_le_bytes());
            header[18..26].copy_from_slice(&fnv1a64(&table_bytes).to_le_bytes());
            #[cfg(unix)]
            {
                use std::os::unix::fs::FileExt;
                f.write_at(&header, 0)?;
            }
            #[cfg(not(unix))]
            {
                use std::io::{Seek, SeekFrom, Write};
                let mut f2 = f.try_clone()?;
                f2.seek(SeekFrom::Start(0))?;
                f2.write_all(&header)?;
            }
            // Step 3 barrier: the commit point must be durable, and so must
            // the directory entry (a fresh file that was never fsync-ed at
            // the directory level can vanish wholesale on power loss).
            f.sync_all()?;
            // A bare file name has an empty parent: the current directory,
            // which `fsync_dir` cannot open by that name.
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                fsync_dir(parent)?;
            }
            Ok((header, table))
        };
    run(&mut f).map(Some).map_err(|e| io_err(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("koko_section_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn open(bytes: Vec<u8>) -> Result<SectionedFile, SnapshotFileError> {
        SectionedFile::open_bytes("test.koko", SharedBytes::from_vec(bytes))
    }

    #[test]
    fn writer_reader_round_trip_with_alignment() {
        let mut w = SectionWriter::new();
        w.add_section(SEC_MANIFEST, 0, &[1u8; 16]);
        w.add_section(SEC_SHARD, 0, &[2u8; 13]); // odd length → next padded
        w.add_section(SEC_STORE, 0, &[3u8; 1]);
        let img = w.finish();
        let sf = open(img).unwrap();
        assert_eq!(sf.table().entries.len(), 3);
        for e in &sf.table().entries {
            assert_eq!(e.offset % 8, 0, "section offsets are 8-aligned");
            let bytes = sf.section_bytes(e).unwrap();
            assert_eq!(bytes.len() as u64, e.len);
        }
        assert_eq!(
            sf.section_bytes(&sf.find(SEC_SHARD, 0).unwrap())
                .unwrap()
                .as_slice(),
            &[2u8; 13]
        );
        assert!(sf.find(SEC_BOUNDS, 0).is_none());
        assert!(sf.require(SEC_BOUNDS, 0).is_err());
    }

    #[test]
    fn empty_table_round_trips() {
        let sf = open(SectionWriter::new().finish()).unwrap();
        assert!(sf.table().entries.is_empty());
        assert_eq!(sf.extent(), FIRST_SECTION_OFFSET + 4);
    }

    #[test]
    fn trailing_bytes_past_extent_are_tolerated() {
        // An aborted append leaves bytes past the committed table; the
        // reader must treat them as dead.
        let mut w = SectionWriter::new();
        w.add_section(SEC_MANIFEST, 0, b"manifest");
        let mut img = w.finish();
        img.extend_from_slice(b"torn half-written append garbage");
        let sf = open(img).unwrap();
        assert_eq!(
            sf.section_bytes(&sf.find(SEC_MANIFEST, 0).unwrap())
                .unwrap()
                .as_slice(),
            b"manifest"
        );
    }

    #[test]
    fn section_corruption_is_detected_at_touch_not_open() {
        let mut w = SectionWriter::new();
        w.add_section(SEC_MANIFEST, 0, b"aaaaaaaa");
        w.add_section(SEC_ROUTER, 0, b"bbbbbbbb");
        let mut img = w.finish();
        let sf0 = open(img.clone()).unwrap();
        let router = sf0.find(SEC_ROUTER, 0).unwrap();
        img[router.offset as usize] ^= 0xFF;
        let sf = open(img).unwrap(); // open succeeds: payloads unread
        let manifest = sf.find(SEC_MANIFEST, 0).unwrap();
        assert!(sf.section_bytes(&manifest).is_ok());
        assert!(matches!(
            sf.section_bytes(&router),
            Err(SnapshotFileError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn table_corruption_fails_open() {
        let mut w = SectionWriter::new();
        w.add_section(SEC_MANIFEST, 0, b"payload!");
        let good = w.finish();
        let table_offset = u64::from_le_bytes(good[10..18].try_into().unwrap()) as usize;

        // Flip a table byte → checksum mismatch at open.
        let mut img = good.clone();
        img[table_offset + 5] ^= 0x01;
        assert!(matches!(
            open(img),
            Err(SnapshotFileError::ChecksumMismatch { .. })
        ));

        // Truncate mid-table → Truncated.
        assert!(matches!(
            open(good[..good.len() - 3].to_vec()),
            Err(SnapshotFileError::Truncated { .. })
        ));

        // Table offset past EOF (8-aligned so the range check is what
        // fires) → Truncated.
        let mut img = good.clone();
        let past_eof = (good.len() as u64).div_ceil(8) * 8 + 64;
        img[10..18].copy_from_slice(&past_eof.to_le_bytes());
        assert!(matches!(
            open(img),
            Err(SnapshotFileError::Truncated { .. })
        ));

        // Misaligned table offset → Corrupt.
        let mut img = good.clone();
        img[10..18].copy_from_slice(&(FIRST_SECTION_OFFSET + 1).to_le_bytes());
        assert!(matches!(open(img), Err(SnapshotFileError::Corrupt { .. })));
    }

    #[test]
    fn entry_range_and_duplicate_invariants() {
        // Hand-build a table whose entry escapes the section region.
        let mut w = SectionWriter::new();
        w.add_section(SEC_MANIFEST, 0, b"payload!");
        let good = w.finish();
        let table_offset = u64::from_le_bytes(good[10..18].try_into().unwrap()) as usize;
        let entry_at = table_offset + 4;

        // offset+len past table_offset → Corrupt.
        let mut img = good.clone();
        img[entry_at + 14..entry_at + 22].copy_from_slice(&(table_offset as u64).to_le_bytes());
        // fix the table checksum so the range check is what fires
        let tl = 4 + SECTION_ENTRY_LEN;
        let ck = fnv1a64(&img[table_offset..table_offset + tl]);
        img[18..26].copy_from_slice(&ck.to_le_bytes());
        assert!(matches!(open(img), Err(SnapshotFileError::Corrupt { .. })));

        // Duplicate (kind,index) → Corrupt.
        let mut w = SectionWriter::new();
        w.add_section(SEC_SHARD, 3, b"one");
        w.add_section(SEC_SHARD, 3, b"two");
        assert!(matches!(
            open(w.finish()),
            Err(SnapshotFileError::Corrupt { .. })
        ));
    }

    #[test]
    fn append_commits_atomically_and_reuses_kept_sections() {
        let path = tmp("append.koko");
        let mut w = SectionWriter::new();
        w.add_section(SEC_EMBED, 0, b"embedding-bytes");
        w.add_section(SEC_MANIFEST, 0, b"old-manifest....");
        std::fs::write(&path, w.finish()).unwrap();
        let before = {
            let bytes = std::fs::read(&path).unwrap();
            SectionedFile::open_bytes(&path.display().to_string(), SharedBytes::from_vec(bytes))
                .unwrap()
        };
        let keep = [before.find(SEC_EMBED, 0).unwrap()];
        let new = [
            (SEC_MANIFEST, 0u32, b"new-manifest!!!!".to_vec()),
            (SEC_SHARD, 0u32, b"a fresh shard frame".to_vec()),
        ];
        let (header, table) =
            append_sections(&path, &before.header(), before.extent(), &keep, &new)
                .unwrap()
                .expect("header matched");
        assert_eq!(table.entries.len(), 3);

        let after = {
            let bytes = std::fs::read(&path).unwrap();
            SectionedFile::open_bytes(&path.display().to_string(), SharedBytes::from_vec(bytes))
                .unwrap()
        };
        assert_eq!(after.header(), header);
        // Kept section: same offset, same bytes, no rewrite.
        assert_eq!(after.find(SEC_EMBED, 0).unwrap(), keep[0]);
        assert_eq!(
            after
                .section_bytes(&after.find(SEC_EMBED, 0).unwrap())
                .unwrap()
                .as_slice(),
            b"embedding-bytes"
        );
        assert_eq!(
            after
                .section_bytes(&after.find(SEC_MANIFEST, 0).unwrap())
                .unwrap()
                .as_slice(),
            b"new-manifest!!!!"
        );
        assert_eq!(
            after
                .section_bytes(&after.find(SEC_SHARD, 0).unwrap())
                .unwrap()
                .as_slice(),
            b"a fresh shard frame"
        );

        // A second append against the *old* header refuses (file moved on).
        assert!(
            append_sections(&path, &before.header(), before.extent(), &keep, &new)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn append_clears_torn_tail_first() {
        let path = tmp("torn.koko");
        let mut w = SectionWriter::new();
        w.add_section(SEC_MANIFEST, 0, b"manifest");
        std::fs::write(&path, w.finish()).unwrap();
        let before = {
            let bytes = std::fs::read(&path).unwrap();
            SectionedFile::open_bytes("torn.koko", SharedBytes::from_vec(bytes)).unwrap()
        };
        // Simulate an aborted earlier append: garbage past the extent.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xAB; 777]).unwrap();
        }
        let new = [(SEC_ROUTER, 0u32, b"router-frame".to_vec())];
        let (_, table) = append_sections(
            &path,
            &before.header(),
            before.extent(),
            &[before.find(SEC_MANIFEST, 0).unwrap()],
            &new,
        )
        .unwrap()
        .expect("tail must not block the append");
        assert_eq!(table.entries.len(), 2);
        let after = {
            let bytes = std::fs::read(&path).unwrap();
            SectionedFile::open_bytes("torn.koko", SharedBytes::from_vec(bytes)).unwrap()
        };
        for e in &after.table().entries {
            after.section_bytes(e).unwrap();
        }
    }
}
