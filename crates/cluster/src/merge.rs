//! Parsing worker replies and merging them into the canonical global
//! result — the byte-identity core of the cluster.
//!
//! A worker serves documents `[doc_base, doc_base + docs)` renumbered
//! locally from 0, so its reply rows carry *local* document ids. This
//! module parses each reply with `koko_serve::json` (canonical escapes,
//! shortest-round-trip floats — parse→re-serialize is the identity on
//! everything the wire writer emits), remaps `doc += doc_base`, and
//! merges the worker sequences under the engine's documented ordering
//! contract:
//!
//! * `DocOrder` is the **lexicographic order of decimal document ids**
//!   (`0,1,10,11,…,2,…`), so worker replies cannot be concatenated in
//!   range order — the merge stable-sorts rows by the decimal key of the
//!   remapped id. Stability preserves within-document extraction order
//!   (all rows of one document come from exactly one worker, already in
//!   canonical order).
//! * `ScoreDesc` stable-sorts by (score desc, doc key): ties keep their
//!   `DocOrder` position, matching the engine's effective key
//!   (score desc, doc, row).
//!
//! Workers are asked for `offset + limit` rows at offset 0; the global
//! window is cut *after* the merge. A row in the global top
//! `offset + limit` is necessarily in its own worker's top
//! `offset + limit` (restricting a sequence to a subset preserves order),
//! so no row the window needs is ever missing from the fan-in.

use koko_core::{OutValue, Profile, Row, ShardExplain};
use koko_serve::json::{self, Json};
use std::time::Duration;

/// One worker's parsed reply.
#[derive(Debug, Default)]
pub struct WorkerOutput {
    /// Rows with documents remapped to global ids.
    pub rows: Vec<Row>,
    /// The worker's `total_matches` (or `num_rows` on legacy replies).
    pub total_matches: usize,
    /// The worker's `truncated` flag.
    pub truncated: bool,
    /// The worker's per-stage profile (timers in µs on the wire).
    pub profile: Profile,
    /// Explain skip plans (when the request asked for explain).
    pub plans: Vec<String>,
    /// Explain per-shard counters (worker-local shard ids).
    pub shards: Vec<ShardExplain>,
    /// A structured worker-side refusal (`"ok":false`), e.g. a parse
    /// error — the same on every worker, forwarded verbatim.
    pub error: Option<String>,
}

fn num(obj: &Json, key: &str) -> usize {
    obj.get(key).and_then(Json::as_f64).unwrap_or(0.0) as usize
}

fn micros(obj: &Json, key: &str) -> Duration {
    Duration::from_micros(obj.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64)
}

/// Parse one worker response line, remapping document ids by `doc_base`
/// and sentence ids by `sid_base` (both are corpus-global in single-node
/// output; workers number them locally from 0). Structured errors name
/// what was malformed — a worker emitting unparseable JSON is treated
/// like a disconnect by the coordinator.
pub fn parse_worker_response(
    line: &str,
    doc_base: u32,
    sid_base: u32,
) -> Result<WorkerOutput, String> {
    let root = json::parse(line).map_err(|e| format!("unparseable worker response: {e:?}"))?;
    let ok = root.get("ok").and_then(Json::as_bool).unwrap_or(false);
    if !ok {
        let error = root
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown worker error")
            .to_string();
        return Ok(WorkerOutput {
            error: Some(error),
            ..WorkerOutput::default()
        });
    }
    let mut out = WorkerOutput {
        total_matches: num(&root, "total_matches").max(num(&root, "num_rows")),
        truncated: root
            .get("truncated")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        ..WorkerOutput::default()
    };
    if let Some(Json::Arr(rows)) = root.get("rows") {
        out.rows.reserve(rows.len());
        for r in rows {
            let doc = r
                .get("doc")
                .and_then(Json::as_f64)
                .ok_or("row missing \"doc\"")? as u32;
            let score = r
                .get("score")
                .and_then(Json::as_f64)
                .ok_or("row missing \"score\"")?;
            let mut values = Vec::new();
            if let Some(Json::Arr(vals)) = r.get("values") {
                for v in vals {
                    values.push(OutValue {
                        name: v
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("value missing \"name\"")?
                            .to_string(),
                        text: v
                            .get("text")
                            .and_then(Json::as_str)
                            .ok_or("value missing \"text\"")?
                            .to_string(),
                        sid: num(v, "sid") as u32 + sid_base,
                        start: num(v, "start") as u32,
                        end: num(v, "end") as u32,
                    });
                }
            }
            out.rows.push(Row {
                doc: doc + doc_base,
                score,
                values,
            });
        }
    }
    if let Some(profile) = root.get("profile") {
        out.profile = parse_profile(profile);
    }
    if let Some(explain) = root.get("explain") {
        if let Some(Json::Arr(plans)) = explain.get("plans") {
            for p in plans {
                if let Some(s) = p.as_str() {
                    out.plans.push(s.to_string());
                }
            }
        }
        if let Some(Json::Arr(shards)) = explain.get("shards") {
            for s in shards {
                out.shards.push(ShardExplain {
                    shard: num(s, "shard"),
                    is_delta: s.get("delta").and_then(Json::as_bool).unwrap_or(false),
                    lookups: num(s, "lookups"),
                    candidates: num(s, "candidates"),
                    docs: num(s, "docs"),
                    docs_processed: num(s, "docs_processed"),
                    tuples: num(s, "tuples"),
                    rows: num(s, "rows"),
                    min_score_pruned: num(s, "min_score_pruned"),
                    early_stopped: s
                        .get("early_stopped")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    score_bound: s.get("score_bound").and_then(Json::as_f64).unwrap_or(0.0),
                    heap_floor: s.get("heap_floor").and_then(Json::as_f64),
                    bound_skipped_docs: num(s, "bound_skipped_docs"),
                    block_bound_skipped_docs: num(s, "block_bound_skipped_docs"),
                    probes: num(s, "probes"),
                    sentences_decoded: num(s, "sentences_decoded"),
                });
            }
        }
    }
    Ok(out)
}

/// Parse the wire profile (µs timers + counters) back into a [`Profile`]
/// so the coordinator can aggregate where time went across workers.
fn parse_profile(p: &Json) -> Profile {
    Profile {
        normalize: micros(p, "normalize_us"),
        dpli: micros(p, "dpli_us"),
        load_article: micros(p, "load_article_us"),
        gsp: micros(p, "gsp_us"),
        extract: micros(p, "extract_us"),
        satisfying: micros(p, "satisfying_us"),
        candidate_sentences: num(p, "candidates"),
        delta_candidates: num(p, "delta_candidates"),
        raw_tuples: num(p, "raw_tuples"),
        compiled_cache_hits: num(p, "compiled_cache_hits"),
        compiled_cache_misses: num(p, "compiled_cache_misses"),
        result_cache_hits: num(p, "result_cache_hits"),
        result_cache_misses: num(p, "result_cache_misses"),
        sentences_decoded: num(p, "sentences_decoded"),
        ..Profile::default()
    }
}

/// The canonical decimal-lexicographic document key — `DocOrder`'s sort
/// key, kept as the id's decimal string.
fn doc_key(doc: u32) -> String {
    doc.to_string()
}

/// Merge worker row sequences into the canonical global order.
/// `score_desc` selects the `ScoreDesc` contract; otherwise `DocOrder`.
/// Both sorts are stable, so within-document extraction order (and, for
/// `ScoreDesc`, the `DocOrder` position of ties) survives the merge.
pub fn merge_rows(per_worker: Vec<Vec<Row>>, score_desc: bool) -> Vec<Row> {
    let mut rows: Vec<(String, Row)> = per_worker
        .into_iter()
        .flatten()
        .map(|r| (doc_key(r.doc), r))
        .collect();
    if score_desc {
        // (score desc, doc key); stability keeps extraction order within
        // equal keys. Scores come off the wire bit-exact (shortest
        // round-trip floats), so the comparison matches single-node.
        rows.sort_by(|a, b| {
            b.1.score
                .partial_cmp(&a.1.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
    } else {
        rows.sort_by(|a, b| a.0.cmp(&b.0));
    }
    rows.into_iter().map(|(_, r)| r).collect()
}

/// Cut the global `offset`/`limit` window out of the merged sequence and
/// derive the `truncated` flag: matches beyond the window's end exist iff
/// the merged fan-in holds more rows than `offset + limit` or some worker
/// itself truncated.
pub fn window(
    merged: Vec<Row>,
    offset: usize,
    limit: Option<usize>,
    any_worker_truncated: bool,
) -> (Vec<Row>, bool) {
    let total_here = merged.len();
    let end = match limit {
        Some(k) => offset.saturating_add(k).min(total_here),
        None => total_here,
    };
    let start = offset.min(total_here);
    let rows: Vec<Row> = merged
        .into_iter()
        .skip(start)
        .take(end.saturating_sub(start))
        .collect();
    let truncated = any_worker_truncated || total_here > end;
    (rows, truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use koko_core::QueryOutput;
    use koko_serve::protocol::{ok_response, rows_json};

    fn row(doc: u32, score: f64, text: &str) -> Row {
        Row {
            doc,
            score,
            values: vec![OutValue {
                name: "e".into(),
                text: text.into(),
                sid: doc,
                start: 0,
                end: 2,
            }],
        }
    }

    #[test]
    fn doc_order_merge_interleaves_lexicographically() {
        // Worker 0 serves docs [0..2), worker 1 serves [2..12): global
        // lexicographic-decimal order interleaves the ranges
        // (0,1,10,11,2,3,…) — concatenation would be wrong.
        let w0 = vec![row(0, 1.0, "a"), row(1, 1.0, "b")];
        let w1: Vec<Row> = (0..10).map(|i| row(i + 2, 1.0, "c")).collect();
        let merged = merge_rows(vec![w0, w1], false);
        let order: Vec<u32> = merged.iter().map(|r| r.doc).collect();
        let mut expect: Vec<u32> = (0..12).collect();
        expect.sort_by_key(|d| d.to_string());
        assert_eq!(order, expect, "0,1,10,11,2,… not 0,1,2,3,…");
    }

    #[test]
    fn score_desc_ties_keep_doc_order_position() {
        let w0 = vec![row(1, 0.5, "a")];
        let w1 = vec![row(10, 0.9, "b"), row(11, 0.5, "c")];
        let merged = merge_rows(vec![w0, w1], true);
        let order: Vec<u32> = merged.iter().map(|r| r.doc).collect();
        // 0.9 first; the 0.5 tie breaks by doc key: "1" < "11".
        assert_eq!(order, vec![10, 1, 11]);
    }

    #[test]
    fn parse_remap_reserialize_is_byte_identical() {
        // Serialize locally-numbered rows the way a worker would, parse
        // with doc_base remap, re-serialize — the only difference must be
        // the document ids.
        let local = vec![row(0, 0.75, "chocolate \"ice\" cream"), row(1, 1.0, "päi")];
        let line = ok_response(
            7,
            &QueryOutput {
                rows: local.clone(),
                ..QueryOutput::default()
            },
        );
        let parsed = parse_worker_response(&line, 4, 4).unwrap();
        assert!(parsed.error.is_none());
        let mut expect = local;
        for r in &mut expect {
            r.doc += 4;
            for v in &mut r.values {
                v.sid += 4;
            }
        }
        assert_eq!(rows_json(&parsed.rows), rows_json(&expect));
        // And the remap really moved the ids.
        assert_eq!(parsed.rows[0].doc, 4);
        assert_eq!(parsed.rows[1].doc, 5);
    }

    #[test]
    fn worker_refusals_surface_as_structured_errors() {
        let parsed =
            parse_worker_response("{\"id\":1,\"ok\":false,\"error\":\"parse error\"}", 0, 0)
                .unwrap();
        assert_eq!(parsed.error.as_deref(), Some("parse error"));
        assert!(parse_worker_response("not json at all", 0, 0).is_err());
    }

    #[test]
    fn window_cuts_after_the_merge_and_flags_truncation() {
        let merged: Vec<Row> = (0..5).map(|i| row(i, 1.0, "x")).collect();
        let (rows, truncated) = window(merged.clone(), 1, Some(2), false);
        assert_eq!(rows.iter().map(|r| r.doc).collect::<Vec<_>>(), vec![1, 2]);
        assert!(truncated, "rows 3,4 lie beyond the window");
        let (rows, truncated) = window(merged.clone(), 0, None, false);
        assert_eq!(rows.len(), 5);
        assert!(!truncated);
        let (_, truncated) = window(merged, 0, Some(10), true);
        assert!(truncated, "a truncated worker keeps the flag sticky");
    }
}
