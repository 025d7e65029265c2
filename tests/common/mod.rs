//! Helpers shared by the integration tests (`mod common;`).
#![allow(dead_code)]

use koko::storage::SectionEntry;
use std::path::Path;

/// Write a copy of the snapshot at `src` to `dst`, every section passed
/// through `edit`: `None` drops it, `Some(bytes)` stores those bytes. The
/// copy is written by the section writer, so its checksums are valid
/// whatever `edit` returns.
pub fn rewrite_sections(
    src: &Path,
    dst: &Path,
    mut edit: impl FnMut(&SectionEntry, &[u8]) -> Option<Vec<u8>>,
) {
    use koko::storage::{write_sectioned_file, SectionWriter, SectionedFile};
    let sf = SectionedFile::open_mmap(src).unwrap();
    let entries = sf.table().entries.clone();
    let mut w = SectionWriter::new();
    for e in &entries {
        if let Some(bytes) = edit(e, sf.section_bytes(e).unwrap().as_slice()) {
            w.add_section(e.kind, e.index, &bytes);
        }
    }
    write_sectioned_file(dst, &w.finish()).unwrap();
}

/// Write a copy of the snapshot at `src` to `dst` without its sections of
/// the given `kinds` — exactly the file a writer older than those sections
/// would have produced. Dropping `SEC_BLOCKS` leaves shard-wide bound
/// statistics only (no block-max refinement); dropping `SEC_BOUNDS` as
/// well leaves no statistics at all, so nothing can be proven row-free
/// and every candidate document is evaluated.
pub fn strip_sections(src: &Path, dst: &Path, kinds: &[u16]) {
    rewrite_sections(src, dst, |e, bytes| {
        (!kinds.contains(&e.kind)).then(|| bytes.to_vec())
    });
}
