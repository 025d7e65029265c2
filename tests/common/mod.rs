//! Helpers shared by the integration tests (`mod common;`).

use std::path::Path;

/// Write a copy of the snapshot at `src` to `dst` without its sections of
/// the given `kinds` — exactly the file a writer older than those sections
/// would have produced. Dropping `SEC_BLOCKS` leaves shard-wide bound
/// statistics only (no block-max refinement); dropping `SEC_BOUNDS` as
/// well leaves no statistics at all, so nothing can be proven row-free
/// and every candidate document is evaluated.
pub fn strip_sections(src: &Path, dst: &Path, kinds: &[u16]) {
    use koko::storage::{write_sectioned_file, SectionWriter, SectionedFile};
    let sf = SectionedFile::open_mmap(src).unwrap();
    let entries = sf.table().entries.clone();
    let mut w = SectionWriter::new();
    for e in entries.iter().filter(|e| !kinds.contains(&e.kind)) {
        w.add_section(e.kind, e.index, sf.section_bytes(e).unwrap().as_slice());
    }
    write_sectioned_file(dst, &w.finish()).unwrap();
}
