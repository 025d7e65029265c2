//! `koko` — command-line interface to the KOKO engine.
//!
//! ```text
//! koko build  <corpus> -o <file.koko>    parse + index a corpus once and
//!                                        write a persistent snapshot
//! koko add    <file.koko> <more.txt>     ingest new documents into an
//!             [--compact] [-o out.koko]  existing snapshot (delta shards)
//! koko query  <corpus> '<query>'         run a KOKO query over a text file
//!             [--limit=N] [--offset=N]   or a .koko snapshot; the flags
//!             [--min-score=S] [--explain] build a per-request QueryRequest
//!             [--order=doc|score_desc]   (top-k early termination, score
//!             [--deadline-ms=N] [--eager] floors, deadlines, explain plans)
//! koko batch  <corpus> '<q1>' '<q2>'     evaluate many queries over one
//!                                        shared snapshot (parallel); takes
//!                                        the same per-request flags
//! koko parse  <corpus.txt>               show the annotation pipeline output
//! koko stats  <corpus>                   corpus + per-shard index statistics
//! koko serve  <corpus> [--addr=H:P]      long-running query server over one
//!             [--threads=N] [--cache=N]  loaded snapshot (see docs/SERVING.md);
//!             [--writable] [--eager]     --writable accepts wire add/compact
//! koko client <addr> '<query>' ...       scripted client / load generator
//!             [--threads=N] [--repeat=M] against a running `koko serve`;
//!             [--add=<more.txt>]         --add / --compact drive a
//!             [--compact]                writable server's live index;
//!             [--limit=N ...]            per-request flags ride the wire
//!                                        as the protocol `opts` object
//! koko demo                              the paper's Figure 1 walkthrough
//! ```
//!
//! `<corpus>` is either a text file (one document per line, or
//! blank-line-separated paragraphs with `--doc=para`) or a `.koko` snapshot
//! produced by `koko build` — detected by the `KOKOSNAP` magic bytes, not
//! the extension. Querying a snapshot skips NLP ingest entirely, so
//! repeated queries start in milliseconds. Sectioned (v4) snapshots are
//! memory-mapped by default — the open is O(sections) and shards decode
//! lazily on first touch; `--eager` forces the classic full up-front load
//! (see docs/SNAPSHOTS.md). See docs/QUERYLANG.md for the query language.

use koko::nlp::tree_stats;
use koko::storage::is_snapshot_file;
use koko::{EngineOpts, Koko, Order, Pipeline, QueryRequest};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("add") => cmd_add(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("parse") => cmd_parse(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("demo") => cmd_demo(),
        _ => {
            eprintln!(
                "usage: koko <build|add|query|batch|parse|stats|serve|client|cluster|demo> [args]  (see `src/bin/koko.rs`)"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Load documents from a file: one document per line by default, or
/// blank-line-separated paragraphs with `--doc=para`.
fn load_docs(path: &str, args: &[String]) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let para_mode = args.iter().any(|a| a == "--doc=para");
    let docs: Vec<String> = if para_mode {
        text.split("\n\n")
            .map(|p| p.split_whitespace().collect::<Vec<_>>().join(" "))
            .filter(|p| !p.is_empty())
            .collect()
    } else {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect()
    };
    if docs.is_empty() {
        return Err("no documents found".into());
    }
    Ok(docs)
}

/// Integer flag with a default, accepted as `--name=N` or `--name N`;
/// an unparsable value is an error rather than a silent fallback.
fn arg_named_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    for (i, a) in args.iter().enumerate() {
        let value = if let Some(v) = a.strip_prefix(&prefix) {
            Some(v)
        } else if *a == flag {
            Some(args.get(i + 1).map(String::as_str).unwrap_or(""))
        } else {
            None
        };
        if let Some(v) = value {
            return v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}"));
        }
    }
    Ok(default)
}

/// [`arg_named_usize`] with an inclusive validity range. Out-of-range
/// values (e.g. `--threads=0` where at least one thread is required, or an
/// absurd `--repeat` that would overflow allocation sizes) are structured
/// errors with a nonzero exit, never a panic downstream.
fn arg_named_usize_in(
    args: &[String],
    name: &str,
    default: usize,
    min: usize,
    max: usize,
) -> Result<usize, String> {
    let v = arg_named_usize(args, name, default)?;
    if !(min..=max).contains(&v) {
        return Err(format!("--{name} must be between {min} and {max}, got {v}"));
    }
    Ok(v)
}

/// `--shards=N` knob shared by `build` and the engine-backed commands
/// (`0`, the default, means one shard per core).
fn arg_shards(args: &[String]) -> Result<usize, String> {
    arg_named_usize_in(args, "shards", 0, 0, 65536)
}

/// Widest worker/client pool any CLI command will spin up; larger values
/// are user error (and would previously overflow a `Vec` capacity).
const MAX_THREADS: usize = 1024;
/// Most repeats `koko client` accepts per run.
const MAX_REPEAT: usize = 10_000_000;

/// String flag accepted as `--name=value` or `--name value`.
fn arg_named_str(args: &[String], name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
        if *a == flag {
            return Some(args.get(i + 1).cloned().unwrap_or_default());
        }
    }
    None
}

/// Every occurrence of a repeatable `--flag=V` / `--flag V` option, in
/// order (`koko serve --tenant=... --tenant=...`).
fn arg_named_all(args: &[String], name: &str) -> Vec<String> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix(&prefix) {
            values.push(v.to_string());
        } else if args[i] == flag {
            values.push(args.get(i + 1).cloned().unwrap_or_default());
            i += 1; // the value
        }
        i += 1;
    }
    values
}

/// Flags that take a value, for skipping that value when collecting
/// positional arguments in space-separated form
/// ([`collect_positionals`]). Keep in sync with the `arg_named_*` calls
/// in `cmd_query`/`cmd_batch`/`cmd_serve`/`cmd_client`.
const VALUE_FLAGS: &[&str] = &[
    "--threads",
    "--repeat",
    "--cache",
    "--shards",
    "--addr",
    "--add",
    "--limit",
    "--offset",
    "--min-score",
    "--order",
    "--deadline-ms",
    "--auth",
    "--rate",
    "--requests",
    "--tenant",
    "--default-tenant",
    "--max-conns",
    "--workers",
    "--out-dir",
    "--port-base",
];

/// Positional (non-flag) arguments, skipping the values of space-form
/// `--flag N` options per [`VALUE_FLAGS`] — shared by `batch` and
/// `client` so a new value-taking flag cannot be mis-parsed as a query
/// in one command but not the other.
fn collect_positionals(args: &[String]) -> Vec<String> {
    let mut positionals: Vec<String> = Vec::new();
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false; // the value of a space-form `--flag N`
        } else if VALUE_FLAGS.contains(&a.as_str()) {
            skip_value = true;
        } else if !a.starts_with("--") {
            positionals.push(a.clone());
        }
    }
    positionals
}

/// Per-request query options shared by `query`, `batch` and `client`:
/// `--limit=N --offset=N --min-score=S --order=doc|score_desc
/// --deadline-ms=N --explain` (all optional; absent flags keep the
/// historical semantics).
#[derive(Default, Clone, Copy)]
struct RequestFlags {
    limit: Option<usize>,
    offset: Option<usize>,
    min_score: Option<f64>,
    order: Option<Order>,
    deadline_ms: Option<u64>,
    explain: bool,
}

impl RequestFlags {
    fn parse(args: &[String]) -> Result<RequestFlags, String> {
        let opt_usize = |name: &str| -> Result<Option<usize>, String> {
            match arg_named_str(args, name) {
                None => Ok(None),
                Some(v) => v
                    .parse()
                    .map(Some)
                    .map_err(|_| format!("--{name} expects a non-negative number, got {v:?}")),
            }
        };
        let min_score = match arg_named_str(args, "min-score") {
            None => None,
            Some(v) => match v.parse::<f64>() {
                Ok(s) if s.is_finite() => Some(s),
                _ => return Err(format!("--min-score expects a finite number, got {v:?}")),
            },
        };
        let order = match arg_named_str(args, "order").as_deref() {
            None => None,
            Some("doc") => Some(Order::DocOrder),
            Some("score_desc") => Some(Order::ScoreDesc),
            Some(v) => return Err(format!("--order must be doc or score_desc, got {v:?}")),
        };
        Ok(RequestFlags {
            limit: opt_usize("limit")?,
            offset: opt_usize("offset")?,
            min_score,
            order,
            deadline_ms: opt_usize("deadline-ms")?.map(|ms| ms as u64),
            explain: args.iter().any(|a| a == "--explain"),
        })
    }

    /// Whether any per-request option was given (if not, `query`/`batch`
    /// keep their historical output byte-for-byte).
    fn is_default(&self) -> bool {
        self.limit.is_none()
            && self.offset.is_none()
            && self.min_score.is_none()
            && self.order.is_none()
            && self.deadline_ms.is_none()
            && !self.explain
    }

    /// Lower onto an engine request through the same wire-opts path the
    /// server uses — one lowering to maintain, so CLI and wire semantics
    /// can never drift.
    fn to_request(self, text: &str) -> QueryRequest {
        self.to_wire().to_request(text, true)
    }

    /// The wire-protocol form, for `koko client`.
    fn to_wire(self) -> koko::serve::QueryOpts {
        koko::serve::QueryOpts {
            limit: self.limit.map(|k| k as u64),
            offset: self.offset.map(|n| n as u64),
            min_score: self.min_score,
            order: self.order.map(|o| match o {
                Order::DocOrder => koko::serve::WireOrder::Doc,
                Order::ScoreDesc => koko::serve::WireOrder::ScoreDesc,
            }),
            deadline_ms: self.deadline_ms,
            explain: self.explain,
            stream: false,
        }
    }
}

/// Deterministic rendering of an output's totals + explain report, for
/// opts-bearing `query`/`batch` runs (stdout, so it can be goldened —
/// timings stay on stderr).
fn print_request_summary(out: &koko::QueryOutput) {
    println!(
        "## matches: {} returned, {} total ({})",
        out.rows.len(),
        out.total_matches,
        if out.truncated {
            "truncated"
        } else {
            "complete"
        }
    );
    if let Some(explain) = &out.explain {
        println!("## explain");
        for plan in &explain.plans {
            println!("plan  {plan}");
        }
        for s in &explain.shards {
            println!(
                "shard {:>2} ({}): lookups {} | candidates {} | probes {} | docs {}/{} | tuples {} | rows {} | min_score pruned {} | early stop {} | bound {} | floor {} | bound skipped {} | block skipped {} | sentences decoded {}",
                s.shard,
                if s.is_delta { "delta" } else { "base" },
                s.lookups,
                s.candidates,
                s.probes,
                s.docs_processed,
                s.docs,
                s.tuples,
                s.rows,
                s.min_score_pruned,
                s.early_stopped,
                s.score_bound,
                s.heap_floor
                    .map_or_else(|| "-".to_string(), |f| f.to_string()),
                s.bound_skipped_docs,
                s.block_bound_skipped_docs,
                s.sentences_decoded,
            );
        }
    }
}

/// Build an engine from `path` — a `.koko` snapshot (sniffed by magic
/// bytes) or a raw text corpus. Snapshot load failures surface the
/// structured message naming the file and the expected format version.
/// Snapshots are memory-mapped by default; `--eager` forces the full
/// up-front materialization (decode every shard at open).
fn load_engine(path: &str, args: &[String]) -> Result<Koko, String> {
    if is_snapshot_file(std::path::Path::new(path)) {
        let opts = EngineOpts {
            eager_load: args.iter().any(|a| a == "--eager"),
            ..EngineOpts::default()
        };
        return Koko::open_with_opts(std::path::Path::new(path), opts).map_err(|e| e.to_string());
    }
    let opts = EngineOpts {
        num_shards: arg_shards(args)?,
        ..EngineOpts::default()
    };
    Ok(Koko::from_texts_with_opts(&load_docs(path, args)?, opts))
}

/// The `-o <path>` / `--out=<path>` output flag shared by `build` and
/// `add`. `-o` must be followed by a real path — a missing or
/// flag-shaped value would silently misroute a destructive write (e.g.
/// `-o --compact` saving a snapshot to a file named "--compact").
fn arg_out_path(args: &[String]) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == "-o") {
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with('-') => Ok(Some(v.clone())),
            _ => Err("-o expects an output path".into()),
        },
        None => Ok(args
            .iter()
            .find_map(|a| a.strip_prefix("--out=").map(str::to_string))),
    }
}

fn cmd_build(args: &[String]) -> i32 {
    let usage = "usage: koko build <corpus.txt> -o <snapshot.koko> [--shards=N] [--doc=para]";
    let input = args.first();
    let out = match arg_out_path(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            return 2;
        }
    };
    let (Some(input), Some(out)) = (input, out) else {
        eprintln!("{usage}");
        return 2;
    };
    if is_snapshot_file(std::path::Path::new(input)) {
        eprintln!("error: {input} is already a KOKO snapshot; `koko build` takes a text corpus");
        return 1;
    }
    let num_shards = match arg_shards(args) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let docs = match load_docs(input, args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let t = std::time::Instant::now();
    let opts = EngineOpts {
        num_shards,
        ..EngineOpts::default()
    };
    let koko = Koko::from_texts_with_opts(&docs, opts);
    let ingest = t.elapsed();
    let t = std::time::Instant::now();
    match koko.save(std::path::Path::new(&out)) {
        Ok(bytes) => {
            eprintln!(
                "built {} documents into {} shards in {:.2?}; wrote {out} ({:.1} KiB) in {:.2?}",
                koko.num_documents(),
                koko.num_shards(),
                ingest,
                bytes as f64 / 1024.0,
                t.elapsed(),
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `koko add <snapshot.koko> <more.txt>` — incremental ingest: open an
/// existing snapshot, push the new documents through the full NLP
/// pipeline into a delta shard, optionally compact, and save the next
/// generation (in place, or to `-o`).
fn cmd_add(args: &[String]) -> i32 {
    let usage =
        "usage: koko add <snapshot.koko> <more.txt> [--compact] [-o <out.koko>] [--doc=para]";
    let out_flag = match arg_out_path(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            return 2;
        }
    };
    let mut positional: Vec<&String> = Vec::new();
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false;
        } else if a == "-o" {
            skip_value = true;
        } else if !a.starts_with('-') {
            positional.push(a);
        }
    }
    let (Some(snap_path), Some(more_path)) = (positional.first(), positional.get(1)) else {
        eprintln!("{usage}");
        return 2;
    };
    if !is_snapshot_file(std::path::Path::new(snap_path.as_str())) {
        eprintln!(
            "error: {snap_path} is not a KOKO snapshot; build one first with `koko build` \
             (incremental add needs the indexed form, not raw text)"
        );
        return 1;
    }
    // Write path: materialize everything up front so a corrupt section
    // fails here with a structured error, not inside the infallible
    // `add_texts`/`compact` calls below.
    let open_opts = EngineOpts {
        eager_load: true,
        ..EngineOpts::default()
    };
    let koko = match Koko::open_with_opts(std::path::Path::new(snap_path.as_str()), open_opts) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let docs = match load_docs(more_path, args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let t = std::time::Instant::now();
    let report = koko.add_texts(&docs);
    let ingest = t.elapsed();
    if args.iter().any(|a| a == "--compact") {
        let c = koko.compact();
        eprintln!(
            "compacted {} delta shards into {} base shards (generation {})",
            c.merged_deltas, c.shards, c.generation
        );
    }
    let out_path = out_flag.unwrap_or_else(|| snap_path.to_string());
    match koko.save(std::path::Path::new(&out_path)) {
        Ok(bytes) => {
            eprintln!(
                "added {} documents in {:.2?} (total {} | epoch {} | generation {} | {} delta shards holding {} docs); wrote {out_path} ({:.1} KiB)",
                report.added,
                ingest,
                koko.num_documents(),
                koko.epoch(),
                koko.generation(),
                koko.num_delta_shards(),
                koko.snapshot().num_delta_documents(),
                bytes as f64 / 1024.0,
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn print_rows(out: &koko::QueryOutput) {
    for row in &out.rows {
        let vals: Vec<String> = row
            .values
            .iter()
            .map(|v| format!("{}={:?}", v.name, v.text))
            .collect();
        println!(
            "doc {}\tscore {:.3}\t{}",
            row.doc,
            row.score,
            vals.join("\t")
        );
    }
}

fn cmd_query(args: &[String]) -> i32 {
    let (Some(path), Some(query)) = (args.first(), args.get(1)) else {
        eprintln!(
            "usage: koko query <corpus.txt|snapshot.koko> '<query>' [--limit=N] [--offset=N] \
             [--min-score=S] [--order=doc|score_desc] [--deadline-ms=N] [--explain] [--eager] \
             [--doc=para]"
        );
        return 2;
    };
    let flags = match RequestFlags::parse(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let koko = match load_engine(path, args) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    match koko.run(&flags.to_request(query)) {
        Ok(out) => {
            print_rows(&out);
            if !flags.is_default() {
                print_request_summary(&out);
            }
            eprintln!(
                "{} rows | {} candidate sentences | {} sentences decoded | total {:?} (normalize {:?}, dpli {:?}, load {:?}, gsp {:?}, extract {:?}, satisfying {:?})",
                out.rows.len(),
                out.profile.candidate_sentences,
                out.profile.sentences_decoded,
                out.profile.total(),
                out.profile.normalize,
                out.profile.dpli,
                out.profile.load_article,
                out.profile.gsp,
                out.profile.extract,
                out.profile.satisfying,
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn cmd_batch(args: &[String]) -> i32 {
    let usage = "usage: koko batch <corpus.txt|snapshot.koko> '<query>' ['<query>' ...] \
                 [--limit=N] [--offset=N] [--min-score=S] [--order=doc|score_desc] \
                 [--deadline-ms=N] [--explain] [--eager] [--doc=para]";
    let Some(path) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    let queries: Vec<String> = collect_positionals(&args[1..]);
    if queries.is_empty() {
        eprintln!("{usage}");
        return 2;
    }
    let flags = match RequestFlags::parse(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let koko = match load_engine(path, args) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let requests: Vec<QueryRequest> = queries.iter().map(|q| flags.to_request(q)).collect();
    let mut code = 0;
    for (q, result) in queries.iter().zip(koko.run_batch(&requests)) {
        println!("## {q}");
        match result {
            Ok(out) => {
                print_rows(&out);
                if !flags.is_default() {
                    print_request_summary(&out);
                }
                eprintln!("{} rows | total {:?}", out.rows.len(), out.profile.total());
            }
            Err(e) => {
                eprintln!("error: {e}");
                code = 1;
            }
        }
    }
    code
}

fn cmd_parse(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: koko parse <corpus.txt> [--doc=para]");
        return 2;
    };
    let docs = match load_docs(path, args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let pipeline = Pipeline::new();
    for (di, text) in docs.iter().enumerate() {
        let doc = pipeline.parse_document(di as u32, text);
        for (si, s) in doc.sentences.iter().enumerate() {
            println!("# doc {di} sentence {si}");
            print_sentence(s);
        }
    }
    0
}

fn print_sentence(s: &koko::Sentence) {
    let stats = tree_stats(s);
    for (i, t) in s.tokens.iter().enumerate() {
        let head = t
            .head
            .map(|h| format!("{h}:{}", s.tokens[h as usize].text))
            .unwrap_or("-".into());
        println!(
            "{i:>3}  {:<16} {:<6} {:<8} head={:<14} span={}..{} depth={}",
            t.text,
            t.pos.name(),
            t.label.name(),
            head,
            stats[i].left,
            stats[i].right,
            stats[i].depth
        );
    }
    for m in &s.entities {
        println!(
            "     entity [{}..{}] {:?} {}",
            m.start,
            m.end,
            s.mention_text(m),
            m.etype
        );
    }
}

fn cmd_stats(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: koko stats <corpus.txt|snapshot.koko> [--doc=para]");
        return 2;
    };
    let koko = match load_engine(path, args) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let snap = koko.snapshot();
    // Stats walks every shard anyway, so materialize through the
    // fallible paths — a corrupt section prints a structured error
    // naming the file instead of panicking mid-report.
    let c = match snap.try_corpus() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!("documents:        {}", c.num_documents());
    println!("sentences:        {}", c.num_sentences());
    println!("tokens:           {}", c.num_tokens());
    println!("generation:       {}", snap.generation());
    let shards = match snap.try_shards() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let total_bytes: usize = shards.iter().map(|s| s.approx_index_bytes()).sum();
    println!(
        "shards:           {} ({} base + {} delta)",
        shards.len(),
        snap.num_base_shards(),
        snap.num_delta_shards()
    );
    println!("index footprint:  {} KiB (all shards)", total_bytes / 1024);
    for (i, shard) in shards.iter().enumerate() {
        let idx = shard.index();
        println!(
            "  {} {:>2}: docs {}..{} | {} sentences | {} KiB | PL {} nodes ({:.2}% merged) | POS {} nodes ({:.2}% merged) | {} entities",
            if i < snap.num_base_shards() {
                "shard"
            } else {
                "delta"
            },
            shard.id(),
            shard.doc_range().start,
            shard.doc_range().end,
            shard.num_sentences(),
            idx.approx_bytes() / 1024,
            idx.pl_index().num_nodes(),
            100.0 * idx.pl_index().compression_ratio(),
            idx.pos_index().num_nodes(),
            100.0 * idx.pos_index().compression_ratio(),
            idx.entities().count(),
        );
    }
    0
}

fn cmd_serve(args: &[String]) -> i32 {
    let usage = "usage: koko serve <corpus.txt|snapshot.koko> [--addr=HOST:PORT] [--threads=N] [--cache=N] [--shards=N] [--writable] [--worker] [--eager] [--doc=para] [--max-conns=N] [--tenant=name:rate:burst:queue:conc[:cap_ms]]... [--default-tenant=rate:burst:queue:conc[:cap_ms]]\n       koko serve <cluster.json> --coordinator [--addr=HOST:PORT] [--strict|--partial] [--deadline-ms=N]";
    let Some(path) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    if args.iter().any(|a| a == "--coordinator") {
        return cmd_serve_coordinator(path, args);
    }
    let parsed = (|| -> Result<(String, usize, usize, usize), String> {
        let addr = arg_named_str(args, "addr").unwrap_or_else(|| "127.0.0.1:4100".to_string());
        // 0 = one worker per core; an absurd explicit count is an error,
        // not a 4-billion-thread attempt.
        let threads = arg_named_usize_in(args, "threads", 0, 0, MAX_THREADS)?;
        let cache = arg_named_usize_in(args, "cache", 1024, 0, 100_000_000)?;
        let max_conns = arg_named_usize_in(args, "max-conns", 4096, 1, 1_000_000)?;
        Ok((addr, threads, cache, max_conns))
    })();
    let (addr, threads, cache, max_conns) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    // Multi-tenant admission control: each --tenant names a principal and
    // its budget; --default-tenant admits anonymous (no `auth`) clients.
    let mut tenants = koko::core::TenantTable::new();
    for spec in arg_named_all(args, "tenant") {
        if let Err(e) = tenants.insert_spec(&spec) {
            eprintln!("error: --tenant: {e}");
            return 2;
        }
    }
    if let Some(spec) = arg_named_str(args, "default-tenant") {
        match koko::core::TenantPolicy::parse(&spec) {
            Ok(policy) => tenants.set_default(policy),
            Err(e) => {
                eprintln!("error: --default-tenant: {e}");
                return 2;
            }
        }
    }
    // A cluster worker is a plain server that must accept the
    // coordinator's forwarded writes: --worker is --writable plus the
    // eager open that writability already implies.
    let writable = args.iter().any(|a| a == "--writable" || a == "--worker");
    let opts = EngineOpts {
        num_shards: match arg_shards(args) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        },
        result_cache: cache,
        // A writable server mutates the index behind infallible APIs, so
        // it always pays the eager open; read-only servers take the mmap
        // fast path unless --eager asks for up-front materialization.
        eager_load: writable || args.iter().any(|a| a == "--eager"),
        ..EngineOpts::default()
    };
    // `parallel` stays on here so ingest / snapshot load fan out; the
    // server itself disables per-query shard parallelism (the worker
    // pool is the serving-time concurrency).
    let koko = if is_snapshot_file(std::path::Path::new(path)) {
        match Koko::open_with_opts(std::path::Path::new(path), opts) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    } else {
        match load_docs(path, args) {
            Ok(docs) => Koko::from_texts_with_opts(&docs, opts),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    };
    let documents = koko.num_documents();
    let shards = koko.num_shards();
    let admission = if tenants.is_empty() {
        "admission off".to_string()
    } else {
        format!(
            "{} tenant polic{}",
            tenants.len(),
            if tenants.len() == 1 { "y" } else { "ies" }
        )
    };
    let config = koko_serve::ServerConfig {
        threads,
        writable,
        tenants,
        max_connections: max_conns,
        ..koko_serve::ServerConfig::default()
    };
    match koko_serve::Server::bind_config(koko, &addr, config) {
        Ok(server) => {
            eprintln!(
                "serving {documents} documents ({shards} shards, {}) on {} | {} worker threads | result cache {cache} entries | {admission} | max {max_conns} connections",
                if writable { "writable" } else { "read-only" },
                server.local_addr(),
                server.threads(),
            );
            eprintln!("protocol: one JSON request per line (docs/SERVING.md); stop with {{\"cmd\":\"shutdown\"}}");
            server.join();
            0
        }
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            1
        }
    }
}

/// `koko serve <cluster.json> --coordinator` — bind the cluster front
/// door: fan queries out to the workers in the shard map, merge replies
/// byte-identically to single-node, route writes through the two-phase
/// epoch publish (see `docs/CLUSTER.md`).
fn cmd_serve_coordinator(path: &str, args: &[String]) -> i32 {
    let addr = arg_named_str(args, "addr").unwrap_or_else(|| "127.0.0.1:4100".to_string());
    let strict = args.iter().any(|a| a == "--strict");
    let partial = args.iter().any(|a| a == "--partial");
    if strict && partial {
        eprintln!("error: --strict and --partial are mutually exclusive");
        return 2;
    }
    let deadline_ms = match arg_named_usize_in(args, "deadline-ms", 10_000, 1, 3_600_000) {
        Ok(ms) => ms,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let map = match koko::cluster::ShardMap::load(std::path::Path::new(path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mode = if strict {
        Some(koko::cluster::Mode::Strict)
    } else if partial {
        Some(koko::cluster::Mode::Partial)
    } else {
        None
    };
    let config = koko::cluster::CoordinatorConfig {
        mode,
        default_deadline: std::time::Duration::from_millis(deadline_ms as u64),
        ..koko::cluster::CoordinatorConfig::default()
    };
    let workers = map.workers.len();
    let documents = map.total_docs();
    let epoch = map.epoch;
    let mode_str = mode.unwrap_or(map.mode).as_str();
    match koko::cluster::Coordinator::bind(map, &addr, config) {
        Ok(coordinator) => {
            eprintln!(
                "coordinating {workers} workers ({documents} documents, epoch {epoch}, {mode_str} mode) on {} | per-query deadline {deadline_ms} ms",
                coordinator.local_addr(),
            );
            eprintln!("protocol: one JSON request per line (docs/CLUSTER.md); stop with {{\"cmd\":\"shutdown\"}}");
            coordinator.join();
            0
        }
        Err(e) => {
            eprintln!("error: cannot start coordinator on {addr}: {e}");
            1
        }
    }
}

/// `koko cluster <split|status>` — topology tooling: cut a corpus into
/// per-worker snapshots plus a shard map, and probe a running cluster.
fn cmd_cluster(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("split") => cmd_cluster_split(&args[1..]),
        Some("status") => cmd_cluster_status(&args[1..]),
        _ => {
            eprintln!(
                "usage: koko cluster split <corpus.txt> --workers=N --out-dir=DIR [--port-base=4101] [--strict] [--shards=N] [--doc=para]\n       koko cluster status <cluster.json>"
            );
            2
        }
    }
}

fn cmd_cluster_split(args: &[String]) -> i32 {
    let usage = "usage: koko cluster split <corpus.txt> --workers=N --out-dir=DIR [--port-base=4101] [--strict] [--shards=N] [--doc=para]";
    let Some(input) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{usage}");
        return 2;
    };
    if is_snapshot_file(std::path::Path::new(input.as_str())) {
        eprintln!("error: {input} is a KOKO snapshot; `koko cluster split` cuts a *text* corpus into per-worker snapshots");
        return 1;
    }
    let parsed = (|| -> Result<(usize, String, usize, usize), String> {
        let workers = arg_named_usize_in(args, "workers", 2, 1, 1024)?;
        let out_dir = arg_named_str(args, "out-dir").ok_or("missing --out-dir")?;
        let port_base = arg_named_usize_in(args, "port-base", 4101, 1, 65_535)?;
        let shards = arg_shards(args)?;
        Ok((workers, out_dir, port_base, shards))
    })();
    let (workers, out_dir, port_base, num_shards) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            return 2;
        }
    };
    let docs = match load_docs(input, args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if docs.len() < workers {
        eprintln!(
            "error: {} documents cannot cover {workers} workers (every worker needs a non-empty range)",
            docs.len()
        );
        return 1;
    }
    let dir = std::path::Path::new(&out_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: cannot create {out_dir}: {e}");
        return 1;
    }
    // The same contiguous split ShardMap::split_even produces: remainder
    // spread over the leading workers.
    let per = docs.len() / workers;
    let extra = docs.len() % workers;
    let mut entries = Vec::with_capacity(workers);
    let mut doc_base = 0usize;
    let mut sid_base = 0usize;
    for i in 0..workers {
        let count = per + usize::from(i < extra);
        let slice = &docs[doc_base..doc_base + count];
        let koko = Koko::from_texts_with_opts(
            slice,
            EngineOpts {
                num_shards,
                ..EngineOpts::default()
            },
        );
        let sentences = koko.snapshot().num_sentences();
        let snap_name = format!("worker-{i}.koko");
        let snap_path = dir.join(&snap_name);
        match koko.save(&snap_path) {
            Ok(bytes) => eprintln!(
                "worker w{i}: docs [{doc_base}..{}) ({count} documents, {sentences} sentences) -> {} ({:.1} KiB)",
                doc_base + count,
                snap_path.display(),
                bytes as f64 / 1024.0,
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", snap_path.display());
                return 1;
            }
        }
        entries.push(koko::cluster::WorkerEntry {
            name: format!("w{i}"),
            addr: format!("127.0.0.1:{}", port_base + i),
            replicas: Vec::new(),
            doc_base: doc_base as u32,
            docs: count as u32,
            sid_base: sid_base as u32,
            snapshot: Some(snap_name),
        });
        doc_base += count;
        sid_base += sentences;
    }
    let map = koko::cluster::ShardMap {
        version: 1,
        epoch: 0,
        mode: if args.iter().any(|a| a == "--strict") {
            koko::cluster::Mode::Strict
        } else {
            koko::cluster::Mode::Partial
        },
        workers: entries,
    };
    let map_path = dir.join("cluster.json");
    if let Err(e) = map.validate().and_then(|()| map.save(&map_path)) {
        eprintln!("error: {e}");
        return 1;
    }
    eprintln!("wrote {}", map_path.display());
    eprintln!(
        "start each worker:  koko serve {out_dir}/worker-<i>.koko --worker --addr=127.0.0.1:<port>"
    );
    eprintln!(
        "then the frontend:  koko serve {} --coordinator",
        map_path.display()
    );
    0
}

fn cmd_cluster_status(args: &[String]) -> i32 {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: koko cluster status <cluster.json>");
        return 2;
    };
    let map = match koko::cluster::ShardMap::load(std::path::Path::new(path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "epoch {} | {} mode | {} workers | {} documents",
        map.epoch,
        map.mode.as_str(),
        map.workers.len(),
        map.total_docs()
    );
    let mut down = 0usize;
    for w in &map.workers {
        let state = probe_worker(&w.addr);
        if state != "up" {
            down += 1;
        }
        println!(
            "{:>4}  {:<21}  docs [{}..{})  sid_base {}  replicas {}  {}",
            w.name,
            w.addr,
            w.doc_base,
            w.doc_base + w.docs,
            w.sid_base,
            w.replicas.len(),
            state
        );
    }
    i32::from(down > 0)
}

/// Ping one worker with bounded connect/read timeouts so `status` never
/// hangs on a wedged node.
fn probe_worker(addr: &str) -> &'static str {
    use std::io::{BufRead, BufReader, Write};
    let timeout = std::time::Duration::from_millis(1000);
    let Some(sock_addr) = addr.parse().ok().or_else(|| {
        std::net::ToSocketAddrs::to_socket_addrs(&addr)
            .ok()
            .and_then(|mut a| a.next())
    }) else {
        return "bad address";
    };
    let Ok(mut stream) = std::net::TcpStream::connect_timeout(&sock_addr, timeout) else {
        return "DOWN (connect failed)";
    };
    let _ = stream.set_read_timeout(Some(timeout));
    if stream.write_all(b"{\"id\":0,\"cmd\":\"ping\"}\n").is_err() {
        return "DOWN (write failed)";
    }
    let mut line = String::new();
    match BufReader::new(stream).read_line(&mut line) {
        Ok(n) if n > 0 && line.contains("\"pong\":true") => "up",
        _ => "DOWN (no pong)",
    }
}

fn cmd_client(args: &[String]) -> i32 {
    let usage = "usage: koko client <HOST:PORT> ['<query>' ...] [--threads=N] [--repeat=M] [--no-cache] [--limit=N] [--offset=N] [--min-score=S] [--order=doc|score_desc] [--deadline-ms=N] [--explain] [--auth=TENANT] [--stream] [--open-loop --rate=RPS --requests=N] [--add=<more.txt>] [--compact] [--stats] [--shutdown]";
    let Some(addr) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    let flags = match RequestFlags::parse(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let queries: Vec<String> = collect_positionals(&args[1..]);
    let stats = args.iter().any(|a| a == "--stats");
    let shutdown = args.iter().any(|a| a == "--shutdown");
    let compact = args.iter().any(|a| a == "--compact");
    let add_file = arg_named_str(args, "add");
    let cache = !args.iter().any(|a| a == "--no-cache");
    let auth = arg_named_str(args, "auth");
    let stream_mode = args.iter().any(|a| a == "--stream");
    let open_loop = args.iter().any(|a| a == "--open-loop");
    // A zero-thread client can send nothing and a huge pool would only
    // DOS the local machine: both are structured errors (satellite fix —
    // these used to fall through to panics / silent no-ops).
    let (threads, repeat) = match (
        arg_named_usize_in(args, "threads", 1, 1, MAX_THREADS),
        arg_named_usize_in(args, "repeat", 1, 1, MAX_REPEAT),
    ) {
        (Ok(t), Ok(r)) => (t, r),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if queries.is_empty() && !stats && !shutdown && !compact && add_file.is_none() {
        eprintln!("{usage}");
        return 2;
    }

    // Online updates first: push new documents / compaction before any
    // queries of the same invocation, so they observe the new epoch.
    if add_file.is_some() || compact {
        let mut client = match koko_serve::Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot connect to {addr}: {e}");
                return 1;
            }
        };
        if let Some(file) = add_file {
            let docs = match load_docs(&file, args) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            match client.add(&docs) {
                Ok(line) => {
                    println!("{line}");
                    if line.contains("\"ok\":false") {
                        return 1;
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
        if compact {
            match client.compact() {
                Ok(line) => {
                    println!("{line}");
                    if line.contains("\"ok\":false") {
                        return 1;
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
    }

    let mut code = 0;
    if !queries.is_empty() && open_loop {
        // Open-loop (fixed-arrival-rate) measurement mode: arrivals are
        // scheduled, latency is measured from the schedule (so a server
        // falling behind shows it in the tail), and the summary reports
        // p50/p95/p99.
        let parsed = (|| -> Result<(f64, usize), String> {
            let rate = match arg_named_str(args, "rate") {
                None => 100.0,
                Some(v) => match v.parse::<f64>() {
                    Ok(r) if r.is_finite() && r > 0.0 => r,
                    _ => return Err(format!("--rate expects a positive number, got {v:?}")),
                },
            };
            let requests = arg_named_usize_in(args, "requests", 100, 1, 100_000_000)?;
            Ok((rate, requests))
        })();
        let (rate, requests) = match parsed {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let wire_opts = (!flags.is_default()).then(|| flags.to_wire());
        match koko_serve::run_load_open(
            addr,
            &queries,
            threads,
            requests,
            rate,
            cache,
            wire_opts,
            auth.as_deref(),
        ) {
            Ok(r) => {
                // Machine-readable summary on stdout, prose on stderr.
                println!(
                    "{{\"requests\":{},\"ok\":{},\"errors\":{},\"offered_rps\":{:.1},\"achieved_rps\":{:.1},\"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3}}}",
                    r.requests,
                    r.ok,
                    r.errors,
                    r.offered_rps,
                    r.achieved_rps,
                    r.p50.as_secs_f64() * 1e3,
                    r.p95.as_secs_f64() * 1e3,
                    r.p99.as_secs_f64() * 1e3,
                );
                eprintln!(
                    "open loop: {} arrivals at {:.0} rps over {} connections in {:.3}s | achieved {:.0} rps | p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms | {} ok, {} errors",
                    r.requests,
                    r.offered_rps,
                    r.threads,
                    r.wall.as_secs_f64(),
                    r.achieved_rps,
                    r.p50.as_secs_f64() * 1e3,
                    r.p95.as_secs_f64() * 1e3,
                    r.p99.as_secs_f64() * 1e3,
                    r.ok,
                    r.errors,
                );
                if r.errors > 0 {
                    code = 1;
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    } else if !queries.is_empty() && stream_mode {
        // Streamed responses: header / reassembled rows / trailer per
        // query on stdout (one connection, sequential — streaming is a
        // framing mode, not a load mode).
        let mut client = match koko_serve::Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot connect to {addr}: {e}");
                return 1;
            }
        };
        for _ in 0..repeat {
            for q in &queries {
                match client.query_stream(q, cache, flags.to_wire(), auth.as_deref()) {
                    Ok(s) => {
                        println!("{}", s.header);
                        if s.header.contains("\"ok\":false") {
                            code = 1;
                            continue;
                        }
                        println!("{}", s.rows_json);
                        println!("{}", s.trailer);
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                }
            }
        }
    } else if !queries.is_empty() {
        // Per-request options ride along as the wire `opts` object; the
        // server answers with the extended response shape.
        let wire_opts = (!flags.is_default()).then(|| flags.to_wire());
        match koko_serve::run_load_as(
            addr,
            &queries,
            threads,
            repeat,
            cache,
            wire_opts,
            auth.as_deref(),
        ) {
            Ok(report) => {
                // One thread's responses in send order on stdout (scripted
                // use); the load summary goes to stderr.
                for line in &report.responses[0] {
                    println!("{line}");
                    if line.contains("\"ok\":false") {
                        code = 1;
                    }
                }
                eprintln!(
                    "{} requests over {} threads in {:.3}s | {:.0} queries/s | {} ok, {} errors",
                    report.requests,
                    report.threads,
                    report.wall.as_secs_f64(),
                    report.qps,
                    report.ok,
                    report.errors,
                );
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    if stats || shutdown {
        let mut client = match koko_serve::Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot connect to {addr}: {e}");
                return 1;
            }
        };
        if stats {
            match client.stats() {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
        if shutdown {
            match client.shutdown() {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
    }
    code
}

fn cmd_demo() -> i32 {
    let text = "I ate a chocolate ice cream, which was delicious, and also ate a pie.";
    println!("## Figure 1 sentence\n{text}\n");
    let pipeline = Pipeline::new();
    let doc = pipeline.parse_document(0, text);
    print_sentence(&doc.sentences[0]);
    println!("\n## Example 2.1 query");
    let koko = Koko::from_texts(&[text]);
    match koko.query(koko::queries::EXAMPLE_2_1) {
        Ok(out) => {
            for row in &out.rows {
                for v in &row.values {
                    println!("  {} = {:?}", v.name, v.text);
                }
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
