//! The snapshot container contract (format version 4), enforced end-to-end
//! through the public API:
//!
//! * **Open equivalence** — `Snapshot::open_mmap` (the default) and the
//!   eager load answer every query byte-identically to the in-memory
//!   engine that wrote the file, across request shapes.
//! * **Hostile input** — byte flips, truncations, and version/header
//!   mangling are either rejected with a structured [`SnapshotFileError`]
//!   (at open or on first touch) or provably harmless (padding); nothing
//!   panics, and no mangled file ever yields *wrong* rows.
//! * **Crash safety** — a torn append (crash after data write, before
//!   the header rewrite) leaves trailing bytes past the declared extent;
//!   v4 opens tolerate them and serve the pre-append snapshot. Stale
//!   temp files from a killed full rewrite are inert.
//! * **Append-on-add** — re-saving a grown engine to the same path
//!   appends sealed sections instead of rewriting, and both open paths
//!   see the new generation.
//! * **One version** — a file stamped with any format version but 4
//!   (the retired payload-framed 1–3, or a future one) is refused with
//!   `WrongVersion` through both `Koko::open` and the eager path.

use koko::{queries, EngineOpts, Error, Koko, Order, QueryRequest, Row};
use std::path::{Path, PathBuf};

const PAPER_QUERIES: &[&str] = &[
    queries::EXAMPLE_2_1,
    queries::EXAMPLE_2_3,
    queries::TITLE,
    queries::DATE_OF_BIRTH,
    queries::CHOCOLATE,
];

fn render_rows(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|r| format!("doc={} score={:.6} values={:?}", r.doc, r.score, r.values))
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("koko_v4_{}_{name}", std::process::id()))
}

fn engine(n_docs: usize, seed: u64, shards: usize) -> Koko {
    let texts = koko::corpus::wiki::generate(n_docs, seed);
    Koko::from_texts_with_opts(
        &texts,
        EngineOpts {
            num_shards: shards,
            ..EngineOpts::default()
        },
    )
}

fn open_eager(path: &Path) -> Result<Koko, Error> {
    Koko::open_with_opts(
        path,
        EngineOpts {
            eager_load: true,
            ..EngineOpts::default()
        },
    )
}

/// Every request shape exercised by the equivalence matrix.
fn requests(q: &str) -> Vec<QueryRequest> {
    vec![
        QueryRequest::new(q),
        QueryRequest::new(q).order(Order::ScoreDesc).limit(3),
        QueryRequest::new(q).min_score(0.25).offset(1).limit(4),
        QueryRequest::new(q).explain(true),
    ]
}

#[test]
fn mmap_and_eager_opens_answer_identically() {
    let built = engine(8, 77, 3);
    let path = tmp("equiv.koko");
    built.save(&path).unwrap();
    let mapped = Koko::open(&path).unwrap(); // mmap is the default
    let eager = open_eager(&path).unwrap();
    assert_eq!(mapped.num_documents(), built.num_documents());
    for q in PAPER_QUERIES {
        for req in requests(q) {
            let reference = render_rows(&built.run(&req).unwrap().rows);
            let via_mmap = render_rows(&mapped.run(&req).unwrap().rows);
            let via_eager = render_rows(&eager.run(&req).unwrap().rows);
            assert_eq!(via_mmap, reference, "{q}: mmap vs in-memory");
            assert_eq!(via_eager, reference, "{q}: eager vs in-memory");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Open (both paths) and query a mangled file. Returns the rows if the
/// whole pipeline succeeded. Panics (failing the test) only if a
/// *successful* run disagrees with `baseline` — corruption must be
/// rejected or harmless, never silently wrong.
fn open_and_query(path: &Path, baseline: &[String], ctx: &str) {
    for eager in [false, true] {
        let opened = if eager {
            open_eager(path)
        } else {
            Koko::open(path)
        };
        let koko = match opened {
            Ok(k) => k,
            Err(Error::Snapshot(_)) => continue, // structured rejection at open
            Err(e) => panic!("{ctx}: unexpected error class at open: {e}"),
        };
        match koko.run(&QueryRequest::new(queries::EXAMPLE_2_1)) {
            Ok(out) => assert_eq!(
                render_rows(&out.rows),
                baseline,
                "{ctx} (eager={eager}): accepted corruption changed the rows"
            ),
            Err(Error::Snapshot(_)) => {} // structured rejection on touch
            Err(e) => panic!("{ctx}: unexpected error class at query: {e}"),
        }
    }
}

#[test]
fn byte_flips_are_either_detected_or_harmless() {
    let built = engine(4, 901, 2);
    let path = tmp("flip.koko");
    built.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let baseline = render_rows(
        &built
            .run(&QueryRequest::new(queries::EXAMPLE_2_1))
            .unwrap()
            .rows,
    );

    // Every header byte, a stride through the body, and the tail (the
    // section table + its trailer live at the end of the file).
    let mut offsets: Vec<usize> = (0..26.min(good.len())).collect();
    offsets.extend((26..good.len()).step_by(101));
    offsets.extend(good.len().saturating_sub(64)..good.len());
    for off in offsets {
        let mut bad = good.clone();
        bad[off] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        open_and_query(&path, &baseline, &format!("flip@{off}"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncations_never_panic() {
    let built = engine(4, 902, 2);
    let path = tmp("trunc.koko");
    built.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let baseline = render_rows(
        &built
            .run(&QueryRequest::new(queries::EXAMPLE_2_1))
            .unwrap()
            .rows,
    );
    let cuts = [
        0,
        5,
        9,
        13,
        25,
        26,
        31,
        32,
        good.len() / 3,
        good.len() / 2,
        good.len() - 1,
    ];
    for cut in cuts {
        std::fs::write(&path, &good[..cut]).unwrap();
        // A shorter extent can never serve the full snapshot: both opens
        // must reject it (header, table, or a section lands out of range).
        assert!(
            Koko::open(&path).is_err(),
            "cut@{cut}: mmap open accepted a truncated file"
        );
        assert!(
            open_eager(&path).is_err(),
            "cut@{cut}: eager open accepted a truncated file"
        );
        open_and_query(&path, &baseline, &format!("cut@{cut}")); // and never panics
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_appends_are_tolerated_and_invisible() {
    let built = engine(5, 903, 2);
    let path = tmp("torn.koko");
    built.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();

    // A crash between the data write and the header rewrite leaves new
    // section bytes past the declared extent with the old header intact.
    for tail in [1usize, 7, 4096] {
        let mut torn = good.clone();
        torn.extend(std::iter::repeat_n(0xAB, tail));
        std::fs::write(&path, &torn).unwrap();
        for (label, opened) in [("mmap", Koko::open(&path)), ("eager", open_eager(&path))] {
            let koko = opened
                .unwrap_or_else(|e| panic!("torn tail of {tail} bytes rejected via {label}: {e}"));
            for q in PAPER_QUERIES {
                assert_eq!(
                    render_rows(&koko.query(q).unwrap().rows),
                    render_rows(&built.query(q).unwrap().rows),
                    "{q} via {label} with {tail} torn bytes"
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn stale_temp_files_from_a_killed_rewrite_are_inert() {
    let built = engine(3, 904, 2);
    let path = tmp("stale.koko");
    built.save(&path).unwrap();
    // A full rewrite stages into `<name>.tmp<pid>.<seq>` and renames; a
    // kill before the rename strands the temp file. It must not affect
    // opening the published snapshot, and a later save still succeeds.
    let stale = tmp("stale.koko.tmp99999.7");
    std::fs::write(&stale, b"half-written garbage").unwrap();
    let koko = Koko::open(&path).unwrap();
    assert_eq!(koko.num_documents(), built.num_documents());
    built.save(&path).unwrap();
    assert!(Koko::open(&path).is_ok());
    std::fs::remove_file(&stale).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn append_save_round_trips_through_add() {
    let built = engine(5, 905, 2);
    let path = tmp("append.koko");
    built.save(&path).unwrap();
    let base_len = std::fs::metadata(&path).unwrap().len();

    // Write path: eager open, grow, save back to the same file.
    let koko = open_eager(&path).unwrap();
    let more = koko::corpus::wiki::generate(3, 906);
    let report = koko.add_texts(&more);
    assert_eq!(report.added, 3);
    koko.save(&path).unwrap();
    let grown_len = std::fs::metadata(&path).unwrap().len();
    assert!(
        grown_len > base_len,
        "append must extend the file ({base_len} -> {grown_len})"
    );
    // Sealed sections are reused in place: everything between the header
    // and the old section table survives byte-for-byte, only the delta
    // shard + a fresh table land past the old extent.
    let grown = std::fs::read(&path).unwrap();
    let good = {
        let built2 = engine(5, 905, 2);
        let p2 = tmp("append_ref.koko");
        built2.save(&p2).unwrap();
        let b = std::fs::read(&p2).unwrap();
        std::fs::remove_file(&p2).ok();
        b
    };
    assert_eq!(
        &grown[26..64],
        &good[26..64],
        "the first sealed section must be untouched by the append"
    );

    for (label, reopened) in [("mmap", Koko::open(&path)), ("eager", open_eager(&path))] {
        let reopened = reopened.unwrap();
        assert_eq!(
            reopened.num_documents(),
            koko.num_documents(),
            "{label}: document count after append"
        );
        assert_eq!(reopened.generation(), koko.generation(), "{label}");
        for q in PAPER_QUERIES {
            assert_eq!(
                render_rows(&reopened.query(q).unwrap().rows),
                render_rows(&koko.query(q).unwrap().rows),
                "{q} via {label} after append-save"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn other_format_versions_are_refused_through_both_opens() {
    use koko::storage::SnapshotFileError;
    let built = engine(6, 907, 2);
    let good = tmp("version_good.koko");
    built.save(&good).unwrap();
    let data = std::fs::read(&good).unwrap();

    // The retired payload-framed versions and the next one up: only the
    // version field changes, so nothing but the version check can refuse.
    for version in [1u16, 2, 3, 5] {
        let path = tmp(&format!("version_{version}.koko"));
        let mut restamped = data.clone();
        restamped[8..10].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &restamped).unwrap();
        for (label, opened) in [("mmap", Koko::open(&path)), ("eager", open_eager(&path))] {
            match opened {
                Err(Error::Snapshot(SnapshotFileError::WrongVersion { path: p, found })) => {
                    assert_eq!(found, version, "{label}");
                    assert_eq!(p, path.display().to_string(), "{label}");
                }
                Err(other) => panic!("v{version} via {label}: expected WrongVersion, got {other}"),
                Ok(_) => panic!("v{version} via {label}: opened a file of another version"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    // The untouched file still opens both ways and answers every paper
    // query exactly as the engine that wrote it.
    for (label, opened) in [("mmap", Koko::open(&good)), ("eager", open_eager(&good))] {
        let reopened = opened.unwrap();
        for q in PAPER_QUERIES {
            assert_eq!(
                render_rows(&reopened.query(q).unwrap().rows),
                render_rows(&built.query(q).unwrap().rows),
                "{q} via {label}"
            );
        }
    }
    std::fs::remove_file(&good).ok();
}
