//! The `.koko` snapshot container: the header, the error taxonomy and
//! the atomic publish shared by every writer of build-once / query-many
//! index files.
//!
//! Every container starts with the same self-describing 26-byte header:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     8  magic  b"KOKOSNAP"
//!      8     2  format version (u16 LE) = 4
//!     10     8  section-table offset (u64 LE)
//!     18     8  FNV-1a 64 checksum of the section table (u64 LE)
//!     26     …  8-aligned sections + section table
//! ```
//!
//! The sections and their table are specified in [`crate::section`],
//! which reads and writes the one format; any other version number is
//! refused with [`SnapshotFileError::WrongVersion`].
//!
//! The magic lets callers (notably the CLI) tell a snapshot from a raw
//! text corpus by sniffing the first 8 bytes — see [`is_snapshot_file`].
//!
//! Every way a file can be unusable maps to a distinct
//! [`SnapshotFileError`] variant naming the offending path, so the CLI can
//! print an actionable message instead of panicking on corrupt input.

use std::fmt;
use std::io::Read;
use std::path::Path;

/// Magic bytes opening every `.koko` snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"KOKOSNAP";
/// The snapshot container format version — the only one this build
/// reads or writes. Version 4 is the offset-indexed sectioned layout of
/// [`crate::section`]; bump on any change to the header or to a
/// section's encoding.
pub const SNAPSHOT_VERSION: u16 = 4;
/// Header bytes: magic + version + table offset + table checksum.
pub const SNAPSHOT_HEADER_LEN: usize = 8 + 2 + 8 + 8;

/// Everything that can make a snapshot file unusable. Each variant names
/// the file so messages stay actionable without extra context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotFileError {
    /// The file could not be read or written at all.
    Io { path: String, error: String },
    /// The file exists but does not start with [`SNAPSHOT_MAGIC`].
    NotASnapshot { path: String },
    /// The container version is not [`SNAPSHOT_VERSION`].
    WrongVersion { path: String, found: u16 },
    /// The file ends before the header or the section table it declares.
    Truncated {
        path: String,
        expected: u64,
        found: u64,
    },
    /// A declared offset or length does not fit this target's address
    /// space (`usize`), e.g. a >4 GiB section on a 32-bit build.
    TooLarge { path: String, declared: u64 },
    /// The section table's or a section's checksum does not match.
    ChecksumMismatch { path: String },
    /// The container is intact but its contents failed to decode or
    /// contradict each other.
    Corrupt { path: String, detail: String },
}

impl SnapshotFileError {
    /// The offending file's path, for callers composing their own message.
    pub fn path(&self) -> &str {
        match self {
            SnapshotFileError::Io { path, .. }
            | SnapshotFileError::NotASnapshot { path }
            | SnapshotFileError::WrongVersion { path, .. }
            | SnapshotFileError::Truncated { path, .. }
            | SnapshotFileError::TooLarge { path, .. }
            | SnapshotFileError::ChecksumMismatch { path }
            | SnapshotFileError::Corrupt { path, .. } => path,
        }
    }
}

impl fmt::Display for SnapshotFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotFileError::Io { path, error } => write!(f, "{path}: {error}"),
            SnapshotFileError::NotASnapshot { path } => {
                write!(f, "{path}: not a KOKO snapshot (expected magic \"KOKOSNAP\"; build one with `koko build`)")
            }
            SnapshotFileError::WrongVersion { path, found } => write!(
                f,
                "{path}: unsupported snapshot format version {found} (this build reads version {SNAPSHOT_VERSION} only; rebuild the snapshot with `koko build`)"
            ),
            SnapshotFileError::Truncated {
                path,
                expected,
                found,
            } => write!(
                f,
                "{path}: truncated snapshot ({found} of {expected} bytes present)"
            ),
            SnapshotFileError::TooLarge { path, declared } => write!(
                f,
                "{path}: declared size {declared} exceeds this platform's address space"
            ),
            SnapshotFileError::ChecksumMismatch { path } => {
                write!(f, "{path}: snapshot checksum mismatch (file is corrupt)")
            }
            SnapshotFileError::Corrupt { path, detail } => {
                write!(f, "{path}: corrupt snapshot: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotFileError {}

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> SnapshotFileError {
    SnapshotFileError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    }
}

/// Flush a directory's entries to stable storage. On POSIX, `rename`
/// and file creation update the *directory*, and that update is only
/// durable once the directory itself is fsynced — syncing the file alone
/// leaves the publish able to vanish on power loss.
#[cfg(unix)]
pub(crate) fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}
/// Non-Unix: directory handles can't be opened/fsynced portably (and
/// Windows metadata semantics differ); the rename itself is the best
/// available publish.
#[cfg(not(unix))]
pub(crate) fn fsync_dir(_dir: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Atomically publish `parts` (concatenated) as the contents of `path`.
///
/// Durability invariant: on `Ok(())`, both the bytes *and* the directory
/// entry are on stable storage — the data is fsynced before the rename
/// (so a crash can't install a hole where a good file was) and the
/// parent directory is fsynced after it (so the rename itself survives
/// power loss). The full-save path of [`crate::section`]
/// ([`crate::section::write_sectioned_file`]).
pub(crate) fn atomic_publish(path: &Path, parts: &[&[u8]]) -> Result<(), SnapshotFileError> {
    use std::io::Write;
    // Temp name: full destination file name + pid + per-call counter, so
    // destinations sharing a stem (model.koko vs model.bak) and concurrent
    // writers — across or within a process — never collide on one temp
    // file.
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(format!(".tmp{}.{seq}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let write_all = || -> std::io::Result<()> {
        let f = std::fs::File::create(&tmp)?;
        let mut w = std::io::BufWriter::new(f);
        for part in parts {
            w.write_all(part)?;
        }
        w.flush()?;
        // Data must be durable before the rename becomes visible, or a
        // power loss could install a zero-length file over a good one.
        w.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        // …and the rename is only durable once the directory entry is.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fsync_dir(parent)?;
        }
        Ok(())
    };
    write_all().map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        io_err(path, e)
    })
}

/// Sniff the first 8 bytes of `path`: `true` iff they are
/// [`SNAPSHOT_MAGIC`]. Unreadable / short files are simply `false` — the
/// caller will then treat the path as raw text and surface read errors on
/// that route instead.
pub fn is_snapshot_file(path: &Path) -> bool {
    let Ok(mut f) = std::fs::File::open(path) else {
        return false;
    };
    let mut head = [0u8; 8];
    f.read_exact(&mut head).is_ok() && &head == SNAPSHOT_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::{write_sectioned_file, SectionWriter, SectionedFile, SEC_MANIFEST};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("koko_snapshot_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn image(payload: &[u8]) -> Vec<u8> {
        let mut w = SectionWriter::new();
        w.add_section(SEC_MANIFEST, 0, payload);
        w.finish()
    }

    fn section_of(path: &std::path::Path) -> Result<Vec<u8>, SnapshotFileError> {
        let sf = SectionedFile::open_mmap(path)?;
        let entry = sf.require(SEC_MANIFEST, 0)?;
        Ok(sf.section_bytes(&entry)?.as_slice().to_vec())
    }

    #[test]
    fn round_trip() {
        let path = tmp("ok.koko");
        write_sectioned_file(&path, &image(b"hello snapshot section")).unwrap();
        assert!(is_snapshot_file(&path));
        assert_eq!(section_of(&path).unwrap(), b"hello snapshot section");
        let data = std::fs::read(&path).unwrap();
        assert_eq!(&data[8..10], &SNAPSHOT_VERSION.to_le_bytes());
    }

    #[test]
    fn overwrite_is_atomic_and_leaves_no_temp_file() {
        // Own subdirectory: the leftover scan must not race other tests'
        // transient temp files in the shared directory.
        let dir = tmp("atomic_subdir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rewrite.koko");
        write_sectioned_file(&path, &image(b"first generation")).unwrap();
        write_sectioned_file(&path, &image(b"second generation")).unwrap();
        assert_eq!(section_of(&path).unwrap(), b"second generation");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        // A failed write (destination directory vanished) reports Io and
        // cleans up after itself.
        let gone = tmp("no_such_dir").join("x.koko");
        assert!(matches!(
            write_sectioned_file(&gone, &image(b"section")),
            Err(SnapshotFileError::Io { .. })
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = tmp("does_not_exist.koko");
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            SectionedFile::open_mmap(&path),
            Err(SnapshotFileError::Io { .. })
        ));
        assert!(!is_snapshot_file(&path));
        // Publishing into a missing parent directory is an Io error that
        // names the destination, and leaves nothing behind.
        let dir = tmp("missing_parent");
        std::fs::remove_dir_all(&dir).ok();
        let dest = dir.join("x.koko");
        match write_sectioned_file(&dest, &image(b"section")) {
            Err(SnapshotFileError::Io { path, .. }) => {
                assert_eq!(path, dest.display().to_string());
            }
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(!dir.exists());
    }

    #[test]
    fn wrong_magic_is_not_a_snapshot() {
        let path = tmp("text.koko");
        std::fs::write(&path, "just a text corpus line\n").unwrap();
        assert!(!is_snapshot_file(&path));
        let err = SectionedFile::open_mmap(&path).unwrap_err();
        assert!(matches!(err, SnapshotFileError::NotASnapshot { .. }));
        assert!(err.to_string().contains("text.koko"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected_with_both_versions_named() {
        let path = tmp("future.koko");
        let mut data = image(b"section");
        for found in [0u16, 1, 2, 3, 5, 99] {
            data[8..10].copy_from_slice(&found.to_le_bytes());
            std::fs::write(&path, &data).unwrap();
            let err = SectionedFile::open_mmap(&path).unwrap_err();
            assert_eq!(
                err,
                SnapshotFileError::WrongVersion {
                    path: path.display().to_string(),
                    found
                }
            );
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("version {found} "))
                    && msg.contains("reads version 4 only")
                    && msg.contains("koko build"),
                "{msg}"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        // The section table is the last thing in a file, so every cut
        // past the magic loses (part of) the header or the table.
        let path = tmp("cut.koko");
        let full = image(b"0123456789");
        for cut in 8..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = SectionedFile::open_mmap(&path).unwrap_err();
            assert!(
                matches!(err, SnapshotFileError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        // A flipped section byte passes open (payloads are unread) and
        // fails the section's own checksum on first touch.
        let path = tmp("flip.koko");
        let mut data = image(b"some section bytes");
        data[crate::section::FIRST_SECTION_OFFSET as usize] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            section_of(&path),
            Err(SnapshotFileError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn declared_length_past_address_space_is_structured_not_wrapping() {
        // A table offset near u64::MAX must report a structured error,
        // never wrap in an `as` cast and index out of bounds.
        let path = tmp("huge.koko");
        let mut data = image(b"small");
        for offset in [u64::MAX - 7, u64::MAX - 15, 1 << 62] {
            data[10..18].copy_from_slice(&offset.to_le_bytes());
            std::fs::write(&path, &data).unwrap();
            let err = SectionedFile::open_mmap(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotFileError::Truncated { .. } | SnapshotFileError::TooLarge { .. }
                ),
                "offset {offset}: {err:?}"
            );
        }
    }
}
