//! Golden-file integration tests for the `koko` binary: each scenario
//! runs the built executable as a subprocess and asserts its **stdout**
//! byte-for-byte against a checked-in file under `tests/golden/`, plus
//! its exit code (timings and diagnostics go to stderr by design, so
//! stdout is deterministic).
//!
//! Regenerate the golden files after an intentional output change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test cli_golden
//! ```
//!
//! The corrupt-input scenarios build real `.koko` files and damage them;
//! those assert exit codes, empty stdout, and stable stderr substrings
//! (stderr embeds temp paths, so it is not goldened).

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn fixture() -> String {
    repo_path("tests/fixtures/corpus.txt").display().to_string()
}

/// Run the built `koko` binary; returns (stdout, stderr, exit code).
fn koko(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_koko"))
        .args(args)
        .output()
        .expect("koko binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// Assert `stdout` matches `tests/golden/<name>` (or rewrite it when
/// `UPDATE_GOLDEN=1`).
fn assert_golden(name: &str, stdout: &str) {
    let path = repo_path(&format!("tests/golden/{name}"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, stdout).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run UPDATE_GOLDEN=1"));
    assert_eq!(
        stdout, expected,
        "stdout diverged from {path:?}; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

const EXAMPLE_2_1: &str = r#"extract e:Entity, d:Str from input.txt if
(/ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) } (b) in (e))"#;

const DATE_OF_BIRTH: &str = r#"extract a:Person, b:Date from wiki.article if (
/ROOT:{ v = verb })
satisfying v
(str(v) ~ "born" {1})
with threshold 0.5"#;

#[test]
fn query_over_text_corpus() {
    let (stdout, _, code) = koko(&["query", &fixture(), EXAMPLE_2_1, "--shards=1"]);
    assert_eq!(code, 0);
    assert_golden("query_example_2_1.txt", &stdout);
}

#[test]
fn query_with_limit_and_explain() {
    // Opts-bearing query: rows + the deterministic matches/explain block
    // on stdout (timings stay on stderr). --shards=1 keeps the per-shard
    // counters stable.
    let (stdout, _, code) = koko(&[
        "query",
        &fixture(),
        EXAMPLE_2_1,
        "--shards=1",
        "--limit=1",
        "--explain",
    ]);
    assert_eq!(code, 0);
    assert_golden("query_limit_explain.txt", &stdout);
}

#[test]
fn query_with_min_score_and_order() {
    let (stdout, _, code) = koko(&[
        "query",
        &fixture(),
        EXAMPLE_2_1,
        "--shards=1",
        "--min-score=0.5",
        "--order=score_desc",
        "--offset=1",
    ]);
    assert_eq!(code, 0);
    assert_golden("query_min_score_order.txt", &stdout);
}

#[test]
fn batch_with_limit_applies_to_every_query() {
    let (stdout, _, code) = koko(&[
        "batch",
        &fixture(),
        EXAMPLE_2_1,
        DATE_OF_BIRTH,
        "--shards=1",
        "--limit=1",
    ]);
    assert_eq!(code, 0);
    assert_golden("batch_limit_one.txt", &stdout);
}

#[test]
fn request_flag_validation_is_structured() {
    for args in [
        &["query", &fixture(), EXAMPLE_2_1, "--limit=abc"][..],
        &["query", &fixture(), EXAMPLE_2_1, "--order=banana"][..],
        &["query", &fixture(), EXAMPLE_2_1, "--min-score=warm"][..],
        &["query", &fixture(), EXAMPLE_2_1, "--deadline-ms=-3"][..],
        &["batch", &fixture(), EXAMPLE_2_1, "--offset=x"][..],
        &["client", "127.0.0.1:1", "q", "--limit=no"][..],
    ] {
        let (stdout, stderr, code) = koko(args);
        assert_eq!(code, 2, "args {args:?}: {stderr}");
        assert_eq!(stdout, "", "errors print nothing to stdout, args {args:?}");
        assert!(stderr.starts_with("error: --"), "args {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "args {args:?}: {stderr}");
    }
}

#[test]
fn zero_deadline_is_a_structured_runtime_error() {
    let (stdout, stderr, code) = koko(&[
        "query",
        &fixture(),
        EXAMPLE_2_1,
        "--shards=1",
        "--deadline-ms=0",
    ]);
    assert_eq!(code, 1);
    assert_eq!(stdout, "");
    assert!(stderr.contains("deadline exceeded"), "{stderr}");
}

#[test]
fn batch_over_text_corpus() {
    let (stdout, _, code) = koko(&[
        "batch",
        &fixture(),
        EXAMPLE_2_1,
        DATE_OF_BIRTH,
        "--shards=1",
    ]);
    assert_eq!(code, 0);
    assert_golden("batch_two_queries.txt", &stdout);
}

#[test]
fn stats_over_text_corpus() {
    let (stdout, _, code) = koko(&["stats", &fixture(), "--shards=1"]);
    assert_eq!(code, 0);
    assert_golden("stats_fixture.txt", &stdout);
}

#[test]
fn parse_error_exit_code_and_stdout() {
    let (stdout, stderr, code) = koko(&["query", &fixture(), "not a query", "--shards=1"]);
    assert_eq!(code, 1);
    assert_eq!(stdout, "", "errors print nothing to stdout");
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &[][..],
        &["query"][..],
        &["build", &fixture()][..],
        &["frobnicate"][..],
        &["serve"][..],
        &["client"][..],
        &["add"][..],
        &["add", "only_one.koko"][..],
    ] {
        let (stdout, stderr, code) = koko(args);
        assert_eq!(code, 2, "args {args:?}");
        assert_eq!(stdout, "", "usage goes to stderr, args {args:?}");
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }
}

#[test]
fn invalid_flag_values_are_structured_errors_not_panics() {
    // Satellite bugfix: these used to reach capacity-overflow panics (or
    // silently clamp). Every case must exit 2 with a flag-naming message
    // and no panic text.
    for args in [
        &["client", "127.0.0.1:1", "q", "--threads=0"][..],
        &[
            "client",
            "127.0.0.1:1",
            "q",
            "--threads=18446744073709551615",
        ][..],
        &["client", "127.0.0.1:1", "q", "--repeat=0"][..],
        &[
            "client",
            "127.0.0.1:1",
            "q",
            "--repeat=18446744073709551615",
        ][..],
        &["client", "127.0.0.1:1", "q", "--repeat=never"][..],
        &["client", "127.0.0.1:1", "q", "--repeat"][..],
        &["serve", &fixture(), "--threads=18446744073709551615"][..],
        &["serve", &fixture(), "--threads=abc"][..],
        &["serve", &fixture(), "--cache=lots"][..],
        &["serve", &fixture(), "--shards=-3"][..],
    ] {
        let (stdout, stderr, code) = koko(args);
        assert_eq!(code, 2, "args {args:?}: {stderr}");
        assert_eq!(stdout, "", "errors print nothing to stdout, args {args:?}");
        assert!(stderr.starts_with("error: --"), "args {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "args {args:?}: {stderr}");
    }
}

#[test]
fn add_ingests_into_a_snapshot_and_queries_match_concatenated_text() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let snap = dir.join(format!("cli_add_{pid}.koko"));
    let snap_str = snap.display().to_string();
    let more = dir.join(format!("cli_add_more_{pid}.txt"));
    let more_str = more.display().to_string();
    let combined = dir.join(format!("cli_add_combined_{pid}.txt"));
    let combined_str = combined.display().to_string();

    let base_text = std::fs::read_to_string(fixture()).unwrap();
    let more_text = "Vera Alys was born in 1911.\n";
    std::fs::write(&more, more_text).unwrap();
    std::fs::write(&combined, format!("{base_text}{more_text}")).unwrap();

    let (_, stderr, code) = koko(&["build", &fixture(), "-o", &snap_str, "--shards=2"]);
    assert_eq!(code, 0, "{stderr}");

    // `add` on raw text is refused with guidance.
    let (_, stderr, code) = koko(&["add", &fixture(), &more_str]);
    assert_eq!(code, 1);
    assert!(stderr.contains("not a KOKO snapshot"), "{stderr}");

    // A missing or flag-shaped `-o` value is a usage error, not a write
    // to a file literally named "--compact" / "--shards=2" (or a silent
    // in-place save) — for `add` and `build` alike.
    for bad in [
        &["add", &snap_str, &more_str, "-o"][..],
        &["add", &snap_str, &more_str, "-o", "--compact"][..],
        &["build", &fixture(), "-o"][..],
        &["build", &fixture(), "-o", "--shards=2"][..],
    ] {
        let (_, stderr, code) = koko(bad);
        assert_eq!(code, 2, "args {bad:?}: {stderr}");
        assert!(stderr.contains("-o expects"), "{stderr}");
    }
    assert!(!Path::new("--compact").exists());
    assert!(!Path::new("--shards=2").exists());

    let (stdout, stderr, code) = koko(&["add", &snap_str, &more_str]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout, "", "add reports on stderr only");
    assert!(stderr.contains("added 1 documents"), "{stderr}");
    assert!(stderr.contains("1 delta shards"), "{stderr}");

    // The updated snapshot answers exactly like the concatenated corpus.
    let (snap_rows, _, code) = koko(&["query", &snap_str, DATE_OF_BIRTH]);
    assert_eq!(code, 0);
    let (text_rows, _, code) = koko(&["query", &combined_str, DATE_OF_BIRTH, "--shards=1"]);
    assert_eq!(code, 0);
    assert_eq!(snap_rows, text_rows, "incremental snapshot diverged");
    assert!(snap_rows.contains("Vera Alys"), "{snap_rows}");

    // --compact merges the delta in place; rows unchanged.
    let (_, stderr, code) = koko(&["add", &snap_str, &more_str, "--compact"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("compacted"), "{stderr}");
    let (compacted_rows, _, code) = koko(&["query", &snap_str, DATE_OF_BIRTH]);
    assert_eq!(code, 0);
    // The second add appended the same document again: one more row.
    assert!(compacted_rows.matches("Vera Alys").count() > snap_rows.matches("Vera Alys").count());

    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(&more).ok();
    std::fs::remove_file(&combined).ok();
}

#[test]
fn build_then_query_snapshot_matches_text_corpus() {
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("cli_golden_{}.koko", std::process::id()));
    let snap_str = snap.display().to_string();

    let (stdout, stderr, code) = koko(&["build", &fixture(), "-o", &snap_str, "--shards=1"]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(stdout, "", "build reports on stderr only");
    assert!(stderr.contains("built 4 documents"), "{stderr}");

    // Querying the snapshot must print the exact same rows as querying
    // the text corpus (the golden file from `query_over_text_corpus`).
    let (stdout, _, code) = koko(&["query", &snap_str, EXAMPLE_2_1]);
    assert_eq!(code, 0);
    assert_golden("query_example_2_1.txt", &stdout);

    std::fs::remove_file(&snap).ok();
}

#[test]
fn corrupt_snapshot_is_a_clean_error() {
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("cli_golden_corrupt_{}.koko", std::process::id()));
    let snap_str = snap.display().to_string();
    let (_, stderr, code) = koko(&["build", &fixture(), "-o", &snap_str, "--shards=1"]);
    assert_eq!(code, 0, "{stderr}");

    // Flip payload bytes (past the 8-byte magic + header): checksum fails.
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    bytes[mid + 1] ^= 0xff;
    std::fs::write(&snap, &bytes).unwrap();

    for cmd in ["query", "stats"] {
        let args: Vec<&str> = match cmd {
            "query" => vec![cmd, &snap_str, EXAMPLE_2_1],
            _ => vec![cmd, &snap_str],
        };
        let (stdout, stderr, code) = koko(&args);
        assert_eq!(code, 1, "{cmd}: {stderr}");
        assert_eq!(stdout, "", "{cmd} prints nothing on corrupt input");
        assert!(
            stderr.contains("snapshot error"),
            "{cmd} names the failure mode: {stderr}"
        );
    }
    std::fs::remove_file(&snap).ok();
}

#[test]
fn truncated_snapshot_is_a_clean_error() {
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("cli_golden_trunc_{}.koko", std::process::id()));
    let snap_str = snap.display().to_string();
    let (_, stderr, code) = koko(&["build", &fixture(), "-o", &snap_str, "--shards=1"]);
    assert_eq!(code, 0, "{stderr}");

    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() / 3]).unwrap();

    let (stdout, stderr, code) = koko(&["query", &snap_str, EXAMPLE_2_1]);
    assert_eq!(code, 1);
    assert_eq!(stdout, "");
    assert!(stderr.contains("snapshot error"), "{stderr}");
    std::fs::remove_file(&snap).ok();
}

#[test]
fn add_to_a_snapshot_named_relative_to_the_working_directory() {
    // A bare file name has an empty parent directory; the append's
    // directory fsync must treat it as the working directory instead of
    // failing after the append has already been committed.
    let dir = std::env::temp_dir().join(format!("cli_add_relative_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("more.txt"), "Vera Alys was born in 1911.\n").unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_koko"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("koko binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    run(&["build", &fixture(), "-o", "rel.koko", "--shards=1"]);
    let before = run(&["stats", "rel.koko"]);
    run(&["add", "rel.koko", "more.txt"]);
    let after = run(&["stats", "rel.koko"]);
    let docs = |stats: &str| -> usize {
        let line = stats.lines().find(|l| l.starts_with("documents:")).unwrap();
        line["documents:".len()..].trim().parse().unwrap()
    };
    assert_eq!(docs(&after), docs(&before) + 1, "{after}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn other_format_versions_are_refused_with_a_rebuild_hint() {
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("cli_golden_version_{}.koko", std::process::id()));
    let snap_str = snap.display().to_string();
    let (_, stderr, code) = koko(&["build", &fixture(), "-o", &snap_str, "--shards=1"]);
    assert_eq!(code, 0, "{stderr}");

    let bytes = std::fs::read(&snap).unwrap();
    for version in [1u16, 2, 3, 5] {
        let mut restamped = bytes.clone();
        restamped[8..10].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&snap, &restamped).unwrap();
        for eager in [false, true] {
            let mut args = vec!["query", &snap_str, EXAMPLE_2_1];
            if eager {
                args.push("--eager");
            }
            let (stdout, stderr, code) = koko(&args);
            assert_eq!(code, 1, "v{version} eager={eager}: {stderr}");
            assert_eq!(stdout, "", "v{version} eager={eager}");
            for needle in [
                snap_str.as_str(),
                &format!("version {version} "),
                "reads version 4 only",
                "koko build",
            ] {
                assert!(
                    stderr.contains(needle),
                    "v{version} eager={eager}: missing {needle:?} in {stderr}"
                );
            }
        }
    }
    std::fs::remove_file(&snap).ok();
}

#[test]
fn magic_bytes_alone_are_not_a_snapshot() {
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("cli_golden_magic_{}.koko", std::process::id()));
    std::fs::write(&snap, b"KOKOSNAP").unwrap();
    let (stdout, stderr, code) = koko(&["query", &snap.display().to_string(), EXAMPLE_2_1]);
    assert_eq!(code, 1);
    assert_eq!(stdout, "");
    assert!(stderr.contains("snapshot error"), "{stderr}");
    std::fs::remove_file(&snap).ok();
}

#[test]
fn build_refuses_to_rebuild_a_snapshot() {
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("cli_golden_rebuild_{}.koko", std::process::id()));
    let snap_str = snap.display().to_string();
    let (_, _, code) = koko(&["build", &fixture(), "-o", &snap_str, "--shards=1"]);
    assert_eq!(code, 0);
    let out_again = dir.join("cli_golden_rebuild_again.koko");
    let (stdout, stderr, code) =
        koko(&["build", &snap_str, "-o", &out_again.display().to_string()]);
    assert_eq!(code, 1);
    assert_eq!(stdout, "");
    assert!(stderr.contains("already a KOKO snapshot"), "{stderr}");
    std::fs::remove_file(&snap).ok();
}

#[test]
fn demo_walkthrough_is_stable() {
    let (stdout, _, code) = koko(&["demo"]);
    assert_eq!(code, 0);
    assert_golden("demo.txt", &stdout);
}

#[test]
fn parse_output_is_stable() {
    let (stdout, _, code) = koko(&["parse", &fixture()]);
    assert_eq!(code, 0);
    assert_golden("parse_fixture.txt", &stdout);
}
