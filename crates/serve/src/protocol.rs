//! The serve wire protocol: newline-delimited JSON over TCP, one request
//! per line, one response line per request (see `docs/SERVING.md`).
//!
//! Requests:
//!
//! ```json
//! {"id": 1, "query": "extract ...", "cache": true}
//! {"id": 4, "query": "extract ...", "opts": {"limit": 10, "min_score": 0.5}}
//! {"id": 5, "query": "extract ...", "auth": "tenant-name", "opts": {"stream": true}}
//! {"id": 2, "cmd": "ping" | "stats" | "shutdown" | "compact"}
//! {"id": 3, "cmd": "add", "texts": ["one new document", "another"]}
//! ```
//!
//! `id` is optional (echoed back, default 0); `cache: false` bypasses the
//! compiled-query and result caches for that request only. The optional
//! `opts` object carries per-request [`QueryRequest`] options — `limit`,
//! `offset`, `min_score`, `order` (`"doc"` | `"score_desc"`),
//! `deadline_ms`, `explain`, `stream` (see [`QueryOpts`]). The optional
//! `auth` field names the calling tenant; servers started with a tenant
//! table use it for admission control (token-bucket rate limits, bounded
//! queues, per-tenant request defaults) and answer over-budget requests
//! with a structured overload error ([`overload_response`]: `ok:false`
//! plus `code` 429/401, the offending `tenant`, and a `retry_after_ms`
//! hint — never a silent drop). `add` and
//! `compact` are the online-update commands: they mutate the served index
//! and are accepted only by a server started writable (see
//! `docs/SERVING.md`); a read-only server answers them with a structured
//! error. Responses always carry `"id"` and `"ok"`; query responses add
//! `"rows"` (the deterministic [`rows_json`] rendering) and `"profile"`.
//!
//! Streaming: a query with `opts.stream: true` is answered with a header
//! line ([`stream_header`]), zero or more chunk lines ([`stream_chunk`]),
//! and a trailer line ([`stream_trailer`]) instead of one response line.
//! Concatenating the chunk `rows` arrays reproduces the single-response
//! `rows` array byte-for-byte ([`stream_rows`] extracts a chunk's
//! payload). Frames of one stream are contiguous per connection but
//! interleave with *other* requests' responses under pipelining; match on
//! `id`.
//!
//! Backward compatibility: a query **without** `opts` is answered with
//! exactly the historical response shape (same keys, same order — see
//! [`ok_response`]). Only opts-bearing requests get the extended response
//! with `"total_matches"`, `"truncated"` and (when requested)
//! `"explain"` ([`opts_response`]).
//!
//! Any line that is not valid JSON, or valid JSON that is not a request,
//! gets an `{"ok":false,"error":...}` response — the connection stays
//! open.
//!
//! [`QueryRequest`]: koko_core::QueryRequest

use crate::json::{self, write_escaped, write_f64, Json};
use koko_core::{Explain, Profile, QueryOutput, Row};

/// Per-request query options carried by the wire `opts` object — the
/// protocol-level mirror of [`koko_core::QueryRequest`]. Every field is
/// optional; an absent field keeps the default semantics. A request with
/// `opts` present (even empty) is answered with the extended response
/// shape ([`opts_response`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryOpts {
    /// Return at most this many rows (top-k early termination engine-side).
    pub limit: Option<u64>,
    /// Skip this many rows of the ordered result first.
    pub offset: Option<u64>,
    /// Drop rows scoring below this floor (applied inside aggregation).
    pub min_score: Option<f64>,
    /// Row ordering; `None` means `DocOrder`.
    pub order: Option<WireOrder>,
    /// Per-request wall-clock budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Attach an explain report to the response.
    pub explain: bool,
    /// Stream the response as header/chunk/trailer frames instead of one
    /// line, so large row sets never buffer whole in server memory.
    pub stream: bool,
}

/// Wire spelling of [`koko_core::Order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOrder {
    /// `"doc"` — document order (the default).
    Doc,
    /// `"score_desc"` — highest score first, stable.
    ScoreDesc,
}

impl QueryOpts {
    /// True when every field is at its default (still answered with the
    /// extended response: presence of `opts` selects the shape).
    pub fn is_default(&self) -> bool {
        *self == QueryOpts::default()
    }

    /// Lower onto an engine [`QueryRequest`](koko_core::QueryRequest).
    pub fn to_request(&self, text: &str, cache: bool) -> koko_core::QueryRequest {
        let mut req = koko_core::QueryRequest::new(text).cache(cache);
        if let Some(limit) = self.limit {
            req = req.limit(usize::try_from(limit).unwrap_or(usize::MAX));
        }
        if let Some(offset) = self.offset {
            req = req.offset(usize::try_from(offset).unwrap_or(usize::MAX));
        }
        if let Some(min_score) = self.min_score {
            req = req.min_score(min_score);
        }
        if let Some(order) = self.order {
            req = req.order(match order {
                WireOrder::Doc => koko_core::Order::DocOrder,
                WireOrder::ScoreDesc => koko_core::Order::ScoreDesc,
            });
        }
        if let Some(ms) = self.deadline_ms {
            req = req.deadline(std::time::Duration::from_millis(ms));
        }
        req.explain(self.explain)
    }
}

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate a query; `cache: false` bypasses both engine caches.
    Query {
        /// Client-chosen id, echoed in the response.
        id: u64,
        /// The KOKO query text.
        text: String,
        /// Consult/fill the compiled + result caches (default true).
        cache: bool,
        /// Per-request options; `None` selects the historical
        /// byte-compatible response shape.
        opts: Option<QueryOpts>,
        /// Tenant name for admission control; `None` = anonymous. Only
        /// meaningful on servers configured with a tenant table.
        auth: Option<String>,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
    /// Server + cache counters.
    Stats {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
    /// Stop the server after responding.
    Shutdown {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
    /// Ingest new documents into the live index (writable servers only).
    Add {
        /// Client-chosen id, echoed in the response.
        id: u64,
        /// Raw document texts, one document per entry.
        texts: Vec<String>,
    },
    /// Merge delta shards into balanced base shards (writable only).
    Compact {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
}

impl Request {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Query { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::Shutdown { id }
            | Request::Add { id, .. }
            | Request::Compact { id } => *id,
        }
    }

    /// Decode one request line. Returns a human-readable error for
    /// anything that is not a well-formed request.
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = json::parse(line.trim()).map_err(|e| format!("bad json: {e}"))?;
        if !matches!(v, Json::Obj(_)) {
            return Err("request must be a json object".into());
        }
        let id = v.get("id").and_then(Json::as_f64).unwrap_or(0.0);
        if !(0.0..=9.0e15).contains(&id) || id.fract() != 0.0 {
            return Err("\"id\" must be a non-negative integer".into());
        }
        let id = id as u64;
        if let Some(q) = v.get("query") {
            let text = q
                .as_str()
                .ok_or_else(|| "\"query\" must be a string".to_string())?;
            let cache = match v.get("cache") {
                None => true,
                Some(c) => c
                    .as_bool()
                    .ok_or_else(|| "\"cache\" must be a boolean".to_string())?,
            };
            let opts = match v.get("opts") {
                None => None,
                Some(o) => Some(decode_opts(o)?),
            };
            let auth = match v.get("auth") {
                None => None,
                Some(a) => {
                    let a = a
                        .as_str()
                        .ok_or_else(|| "\"auth\" must be a string".to_string())?;
                    if a.is_empty() {
                        return Err("\"auth\" must be a non-empty string".into());
                    }
                    Some(a.to_string())
                }
            };
            return Ok(Request::Query {
                id,
                text: text.to_string(),
                cache,
                opts,
                auth,
            });
        }
        match v.get("cmd").and_then(Json::as_str) {
            Some("ping") => Ok(Request::Ping { id }),
            Some("stats") => Ok(Request::Stats { id }),
            Some("shutdown") => Ok(Request::Shutdown { id }),
            Some("compact") => Ok(Request::Compact { id }),
            Some("add") => {
                let Some(Json::Arr(items)) = v.get("texts") else {
                    return Err("\"add\" needs a \"texts\" array".into());
                };
                let mut texts = Vec::with_capacity(items.len());
                for item in items {
                    match item.as_str() {
                        Some(s) => texts.push(s.to_string()),
                        None => return Err("\"texts\" entries must be strings".into()),
                    }
                }
                Ok(Request::Add { id, texts })
            }
            Some(other) => Err(format!("unknown cmd {other:?}")),
            None => Err("request needs \"query\" or \"cmd\"".into()),
        }
    }

    /// Encode a request as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        match self {
            Request::Query {
                id,
                text,
                cache,
                opts,
                auth,
            } => {
                out.push_str(&format!("{{\"id\":{id},\"query\":"));
                write_escaped(&mut out, text);
                if !cache {
                    out.push_str(",\"cache\":false");
                }
                if let Some(auth) = auth {
                    out.push_str(",\"auth\":");
                    write_escaped(&mut out, auth);
                }
                if let Some(opts) = opts {
                    out.push_str(",\"opts\":");
                    encode_opts(&mut out, opts);
                }
                out.push('}');
            }
            Request::Ping { id } => out.push_str(&format!("{{\"id\":{id},\"cmd\":\"ping\"}}")),
            Request::Stats { id } => out.push_str(&format!("{{\"id\":{id},\"cmd\":\"stats\"}}")),
            Request::Shutdown { id } => {
                out.push_str(&format!("{{\"id\":{id},\"cmd\":\"shutdown\"}}"))
            }
            Request::Add { id, texts } => {
                out.push_str(&format!("{{\"id\":{id},\"cmd\":\"add\",\"texts\":["));
                for (i, t) in texts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(&mut out, t);
                }
                out.push_str("]}");
            }
            Request::Compact { id } => {
                out.push_str(&format!("{{\"id\":{id},\"cmd\":\"compact\"}}"))
            }
        }
        out
    }
}

/// Decode a wire `opts` object. Strict: unknown keys, wrong types, and
/// out-of-range values are errors (so typos fail loudly instead of
/// silently running with default semantics).
fn decode_opts(v: &Json) -> Result<QueryOpts, String> {
    let Json::Obj(fields) = v else {
        return Err("\"opts\" must be a json object".into());
    };
    let uint = |value: &Json, key: &str| -> Result<u64, String> {
        let n = value
            .as_f64()
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer"))?;
        if !(0.0..=9.0e15).contains(&n) || n.fract() != 0.0 {
            return Err(format!("\"{key}\" must be a non-negative integer"));
        }
        Ok(n as u64)
    };
    let mut opts = QueryOpts::default();
    for (key, value) in fields {
        match key.as_str() {
            "limit" => opts.limit = Some(uint(value, "limit")?),
            "offset" => opts.offset = Some(uint(value, "offset")?),
            "min_score" => {
                let s = value
                    .as_f64()
                    .ok_or_else(|| "\"min_score\" must be a number".to_string())?;
                if !s.is_finite() {
                    return Err("\"min_score\" must be a finite number".into());
                }
                opts.min_score = Some(s);
            }
            "order" => {
                opts.order = Some(match value.as_str() {
                    Some("doc") => WireOrder::Doc,
                    Some("score_desc") => WireOrder::ScoreDesc,
                    _ => return Err("\"order\" must be \"doc\" or \"score_desc\"".into()),
                })
            }
            "deadline_ms" => opts.deadline_ms = Some(uint(value, "deadline_ms")?),
            "explain" => {
                opts.explain = value
                    .as_bool()
                    .ok_or_else(|| "\"explain\" must be a boolean".to_string())?
            }
            "stream" => {
                opts.stream = value
                    .as_bool()
                    .ok_or_else(|| "\"stream\" must be a boolean".to_string())?
            }
            other => return Err(format!("unknown opts key {other:?}")),
        }
    }
    Ok(opts)
}

/// Canonical encoding of a wire `opts` object (field order fixed).
fn encode_opts(out: &mut String, opts: &QueryOpts) {
    out.push('{');
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };
    if let Some(limit) = opts.limit {
        sep(out);
        out.push_str(&format!("\"limit\":{limit}"));
    }
    if let Some(offset) = opts.offset {
        sep(out);
        out.push_str(&format!("\"offset\":{offset}"));
    }
    if let Some(min_score) = opts.min_score {
        sep(out);
        out.push_str("\"min_score\":");
        write_f64(out, min_score);
    }
    if let Some(order) = opts.order {
        sep(out);
        out.push_str(match order {
            WireOrder::Doc => "\"order\":\"doc\"",
            WireOrder::ScoreDesc => "\"order\":\"score_desc\"",
        });
    }
    if let Some(ms) = opts.deadline_ms {
        sep(out);
        out.push_str(&format!("\"deadline_ms\":{ms}"));
    }
    if opts.explain {
        sep(out);
        out.push_str("\"explain\":true");
    }
    if opts.stream {
        sep(out);
        out.push_str("\"stream\":true");
    }
    out.push('}');
}

/// Deterministic JSON rendering of result rows: a pure function of the
/// rows, shared by the server and by in-process evaluation, so "the served
/// bytes equal the sequential engine's bytes" is a direct string equality
/// (the conformance suite asserts exactly that).
pub fn rows_json(rows: &[Row]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"doc\":{},\"score\":", row.doc));
        write_f64(&mut out, row.score);
        out.push_str(",\"values\":[");
        for (j, v) in row.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, &v.name);
            out.push_str(",\"text\":");
            write_escaped(&mut out, &v.text);
            out.push_str(&format!(
                ",\"sid\":{},\"start\":{},\"end\":{}}}",
                v.sid, v.start, v.end
            ));
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// JSON rendering of a [`Profile`]: stage timers in microseconds plus the
/// candidate/tuple and cache counters.
pub fn profile_json(p: &Profile) -> String {
    let mut out = format!(
        "{{\"normalize_us\":{},\"dpli_us\":{},\"load_article_us\":{},\"gsp_us\":{},\"extract_us\":{},\"satisfying_us\":{},\"candidates\":{},\"delta_candidates\":{},\"raw_tuples\":{},\"compiled_cache_hits\":{},\"compiled_cache_misses\":{},\"result_cache_hits\":{},\"result_cache_misses\":{},\"sentences_decoded\":{}",
        p.normalize.as_micros(),
        p.dpli.as_micros(),
        p.load_article.as_micros(),
        p.gsp.as_micros(),
        p.extract.as_micros(),
        p.satisfying.as_micros(),
        p.candidate_sentences,
        p.delta_candidates,
        p.raw_tuples,
        p.compiled_cache_hits,
        p.compiled_cache_misses,
        p.result_cache_hits,
        p.result_cache_misses,
        p.sentences_decoded,
    );
    // Present only on coordinator-answered queries: single-node profile
    // lines keep the exact legacy byte shape.
    if p.remote_shards > 0 {
        out.push_str(&format!(
            ",\"remote_shards\":{},\"remote_wait_us\":{}",
            p.remote_shards,
            p.remote_wait.as_micros()
        ));
    }
    out.push('}');
    out
}

/// Encode a successful query response (no trailing newline).
pub fn ok_response(id: u64, out: &QueryOutput) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"num_rows\":{},\"rows\":{},\"profile\":{}}}",
        out.rows.len(),
        rows_json(&out.rows),
        profile_json(&out.profile),
    )
}

/// Encode the extended response for an opts-bearing query request (no
/// trailing newline): the legacy shape plus `"total_matches"` and
/// `"truncated"` before the rows, and — when the request asked for one —
/// the `"explain"` report after the profile. Requests without `opts`
/// must keep using [`ok_response`] (bit-compatible with older clients).
pub fn opts_response(id: u64, out: &QueryOutput) -> String {
    let mut line = format!(
        "{{\"id\":{id},\"ok\":true,\"num_rows\":{},\"total_matches\":{},\"truncated\":{},\"rows\":{},\"profile\":{}",
        out.rows.len(),
        out.total_matches,
        out.truncated,
        rows_json(&out.rows),
        profile_json(&out.profile),
    );
    if let Some(explain) = &out.explain {
        line.push_str(",\"explain\":");
        line.push_str(&explain_json(explain));
    }
    line.push('}');
    line
}

/// JSON rendering of an [`Explain`] report: the chosen skip plans and the
/// per-shard evaluation counters.
pub fn explain_json(e: &Explain) -> String {
    let mut out = String::from("{\"plans\":[");
    for (i, plan) in e.plans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, plan);
    }
    out.push_str("],\"shards\":[");
    for (i, s) in e.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"shard\":{},\"delta\":{},\"lookups\":{},\"candidates\":{},\"docs\":{},\"docs_processed\":{},\"tuples\":{},\"rows\":{},\"min_score_pruned\":{},\"early_stopped\":{}",
            s.shard,
            s.is_delta,
            s.lookups,
            s.candidates,
            s.docs,
            s.docs_processed,
            s.tuples,
            s.rows,
            s.min_score_pruned,
            s.early_stopped,
        ));
        out.push_str(",\"score_bound\":");
        write_f64(&mut out, s.score_bound);
        out.push_str(",\"heap_floor\":");
        match s.heap_floor {
            Some(floor) => write_f64(&mut out, floor),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"bound_skipped_docs\":{},\"block_bound_skipped_docs\":{},\"probes\":{},\"sentences_decoded\":{}}}",
            s.bound_skipped_docs, s.block_bound_skipped_docs, s.probes, s.sentences_decoded
        ));
    }
    out.push(']');
    // Coordinator fan-out accounting. Rendered only when present so every
    // single-node explain line stays byte-identical to the pre-cluster
    // wire shape (guarded by `legacy_response_shape_is_unchanged_…`).
    if !e.remote_shards.is_empty() {
        out.push_str(",\"remote_shards\":[");
        for (i, w) in e.remote_shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"worker\":");
            write_escaped(&mut out, &w.worker);
            out.push_str(",\"addr\":");
            write_escaped(&mut out, &w.addr);
            out.push_str(&format!(
                ",\"doc_base\":{},\"docs\":{},\"rows\":{},\"rtt_ms\":",
                w.doc_base, w.docs, w.rows
            ));
            write_f64(&mut out, w.rtt_ms);
            out.push_str(",\"retries\":");
            out.push_str(&w.retries.to_string());
            out.push_str(",\"error\":");
            match &w.error {
                Some(msg) => write_escaped(&mut out, msg),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// Encode an error response (no trailing newline).
pub fn err_response(id: u64, message: &str) -> String {
    let mut out = format!("{{\"id\":{id},\"ok\":false,\"error\":");
    write_escaped(&mut out, message);
    out.push('}');
    out
}

/// Encode a structured admission-control error (no trailing newline):
/// the HTTP-equivalent `code` (401 for an unknown tenant, 429 for
/// rate/queue overload), the offending `tenant` (or `null` for
/// anonymous callers), and a `retry_after_ms` hint when the refusal is
/// transient. Overloaded requests are always *answered* — never
/// silently dropped.
pub fn overload_response(
    id: u64,
    tenant: Option<&str>,
    overload: &koko_core::tenant::Overload,
) -> String {
    use koko_core::tenant::Overload;
    let mut out = format!("{{\"id\":{id},\"ok\":false,\"error\":");
    let (message, code) = match overload {
        Overload::UnknownTenant => ("unknown tenant", 401u32),
        Overload::RateLimited { .. } => ("rate limited", 429),
        Overload::QueueFull { .. } => ("admission queue full", 429),
    };
    write_escaped(&mut out, message);
    out.push_str(&format!(",\"code\":{code},\"tenant\":"));
    match tenant {
        Some(name) => write_escaped(&mut out, name),
        None => out.push_str("null"),
    }
    match overload {
        Overload::RateLimited { retry_after } => {
            // Round up so the client never retries a hair too early.
            let ms = retry_after.as_millis().max(1);
            out.push_str(&format!(",\"retry_after_ms\":{ms}"));
        }
        Overload::QueueFull { max_queue } => {
            out.push_str(&format!(",\"max_queue\":{max_queue}"));
        }
        Overload::UnknownTenant => {}
    }
    out.push('}');
    out
}

/// Encode the header frame of a streamed query response: the row totals
/// up front so clients can size buffers, `"stream":true` marking the
/// frame kind. Chunks ([`stream_chunk`]) and a trailer
/// ([`stream_trailer`]) follow on the same connection.
pub fn stream_header(id: u64, out: &QueryOutput) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"stream\":true,\"num_rows\":{},\"total_matches\":{},\"truncated\":{}}}",
        out.rows.len(),
        out.total_matches,
        out.truncated,
    )
}

/// Encode one chunk frame of a streamed response: `chunk` is the
/// 0-based sequence number, `rows` the slice rendered with the same
/// canonical [`rows_json`] as single-line responses — concatenating all
/// chunks' row arrays is byte-identical to the unstreamed `rows`.
pub fn stream_chunk(id: u64, chunk: usize, rows: &[Row]) -> String {
    format!(
        "{{\"id\":{id},\"ok\":true,\"chunk\":{chunk},\"rows\":{}}}",
        rows_json(rows)
    )
}

/// Encode the trailer frame of a streamed response: `"done":true`, the
/// chunk count for integrity checking, then the profile and (when
/// requested) the explain report — the fields a single-line extended
/// response carries after its rows.
pub fn stream_trailer(id: u64, chunks: usize, out: &QueryOutput) -> String {
    let mut line = format!(
        "{{\"id\":{id},\"ok\":true,\"done\":true,\"chunks\":{chunks},\"profile\":{}",
        profile_json(&out.profile),
    );
    if let Some(explain) = &out.explain {
        line.push_str(",\"explain\":");
        line.push_str(&explain_json(explain));
    }
    line.push('}');
    line
}

/// Extract the `"rows":[...]` payload of a [`stream_chunk`] frame (the
/// array runs to the frame's closing brace).
pub fn stream_rows(line: &str) -> Option<&str> {
    let start = line.find("\"rows\":")? + "\"rows\":".len();
    let rest = &line[start..];
    let end = rest.rfind(']')?;
    Some(&rest[..=end])
}

/// Extract the `"rows":[...]` payload of a response line, for callers
/// that want the byte-exact rows rendering without re-serializing.
pub fn response_rows(line: &str) -> Option<&str> {
    let start = line.find("\"rows\":")? + "\"rows\":".len();
    let rest = &line[start..];
    // The rows array is followed by `,"profile"` in every ok response.
    let end = rest.find(",\"profile\"")?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use koko_core::OutValue;

    #[test]
    fn request_round_trip() {
        for req in [
            Request::Query {
                id: 7,
                text: "extract x:Entity from \"a\nb\" if ()".into(),
                cache: false,
                opts: None,
                auth: None,
            },
            Request::Query {
                id: 0,
                text: koko_lang::queries::EXAMPLE_2_1.into(),
                cache: true,
                opts: None,
                auth: None,
            },
            Request::Query {
                id: 8,
                text: "extract x:Entity from t if ()".into(),
                cache: true,
                opts: Some(QueryOpts::default()),
                auth: None,
            },
            Request::Query {
                id: 9,
                text: "extract x:Entity from t if ()".into(),
                cache: false,
                opts: Some(QueryOpts {
                    limit: Some(10),
                    offset: Some(2),
                    min_score: Some(0.5),
                    order: Some(WireOrder::ScoreDesc),
                    deadline_ms: Some(250),
                    explain: true,
                    stream: false,
                }),
                auth: Some("tenant \"a\"/7".into()),
            },
            Request::Query {
                id: 10,
                text: "q".into(),
                cache: true,
                opts: Some(QueryOpts {
                    order: Some(WireOrder::Doc),
                    stream: true,
                    ..QueryOpts::default()
                }),
                auth: Some("alice".into()),
            },
            Request::Ping { id: 1 },
            Request::Stats { id: 2 },
            Request::Shutdown { id: 3 },
            Request::Add {
                id: 4,
                texts: vec![
                    "Anna ate cake.\nSecond line.".into(),
                    "go \"Falcons\"!".into(),
                ],
            },
            Request::Add {
                id: 5,
                texts: Vec::new(),
            },
            Request::Compact { id: 6 },
        ] {
            let line = req.encode();
            assert!(!line.contains('\n'), "one request = one line: {line:?}");
            assert_eq!(Request::decode(&line).unwrap(), req);
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            "{\"cmd\":\"reboot\"}",
            "{\"query\":5}",
            "{\"query\":\"q\",\"cache\":\"yes\"}",
            "{\"id\":-1,\"cmd\":\"ping\"}",
            "{\"id\":1.5,\"cmd\":\"ping\"}",
            "{}",
            "{\"cmd\":\"add\"}",
            "{\"cmd\":\"add\",\"texts\":\"not an array\"}",
            "{\"cmd\":\"add\",\"texts\":[1,2]}",
            "{\"query\":\"q\",\"opts\":5}",
            "{\"query\":\"q\",\"opts\":{\"limit\":-1}}",
            "{\"query\":\"q\",\"opts\":{\"limit\":1.5}}",
            "{\"query\":\"q\",\"opts\":{\"min_score\":\"high\"}}",
            "{\"query\":\"q\",\"opts\":{\"order\":\"sideways\"}}",
            "{\"query\":\"q\",\"opts\":{\"explain\":1}}",
            "{\"query\":\"q\",\"opts\":{\"limitt\":3}}",
            "{\"query\":\"q\",\"opts\":{\"deadline_ms\":-5}}",
            "{\"query\":\"q\",\"opts\":{\"stream\":1}}",
            "{\"query\":\"q\",\"auth\":5}",
            "{\"query\":\"q\",\"auth\":\"\"}",
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rows_rendering_is_deterministic_and_extractable() {
        let rows = vec![Row {
            doc: 3,
            score: 0.75,
            values: vec![OutValue {
                name: "e".into(),
                text: "chocolate \"ice\" cream".into(),
                sid: 9,
                start: 2,
                end: 5,
            }],
        }];
        let a = rows_json(&rows);
        let b = rows_json(&rows);
        assert_eq!(a, b);
        let out = QueryOutput {
            rows,
            ..QueryOutput::default()
        };
        let line = ok_response(4, &out);
        assert_eq!(response_rows(&line), Some(a.as_str()));
        assert!(crate::json::parse(&line).is_ok(), "response is valid json");
    }

    #[test]
    fn legacy_response_shape_is_unchanged_and_extended_shape_adds_fields() {
        let out = QueryOutput {
            rows: vec![],
            total_matches: 7,
            truncated: true,
            explain: Some(koko_core::Explain {
                plans: vec!["e = a + [skip b: derived from neighbours]".into()],
                shards: vec![koko_core::ShardExplain {
                    shard: 0,
                    candidates: 3,
                    docs: 2,
                    docs_processed: 1,
                    early_stopped: true,
                    score_bound: 1.3,
                    heap_floor: Some(0.5),
                    bound_skipped_docs: 1,
                    block_bound_skipped_docs: 2,
                    probes: 9,
                    sentences_decoded: 4,
                    ..koko_core::ShardExplain::default()
                }],
                remote_shards: vec![],
            }),
            profile: Profile::default(),
        };
        // Legacy shape: no new keys, even though the output carries them.
        let legacy = ok_response(1, &out);
        assert!(!legacy.contains("total_matches"), "{legacy}");
        assert!(!legacy.contains("truncated"), "{legacy}");
        assert!(!legacy.contains("explain"), "{legacy}");
        // Extended shape: totals before rows, explain after profile, and
        // `response_rows` still extracts the rows payload.
        let extended = opts_response(1, &out);
        assert!(
            extended.contains("\"total_matches\":7,\"truncated\":true,\"rows\":"),
            "{extended}"
        );
        assert!(extended.contains("\"explain\":{\"plans\":["), "{extended}");
        assert!(
            extended.contains(
                "\"early_stopped\":true,\"score_bound\":1.3,\"heap_floor\":0.5,\"bound_skipped_docs\":1,\"block_bound_skipped_docs\":2,\"probes\":9,\"sentences_decoded\":4}"
            ),
            "{extended}"
        );
        assert_eq!(response_rows(&extended), Some("[]"));
        assert!(crate::json::parse(&extended).is_ok(), "valid json");
    }

    #[test]
    fn cluster_fields_render_only_on_coordinator_answers() {
        // Single-node: neither profile nor explain may grow new keys.
        let p = Profile::default();
        assert!(!profile_json(&p).contains("remote"), "{}", profile_json(&p));
        // Coordinator: the remote accounting appears, appended after the
        // legacy keys so existing parsers keep working.
        let p = Profile {
            remote_shards: 2,
            remote_wait: std::time::Duration::from_millis(3),
            ..Profile::default()
        };
        assert!(
            profile_json(&p).ends_with(",\"remote_shards\":2,\"remote_wait_us\":3000}"),
            "{}",
            profile_json(&p)
        );
        let e = koko_core::Explain {
            plans: vec![],
            shards: vec![],
            remote_shards: vec![koko_core::RemoteShardExplain {
                worker: "w0".into(),
                addr: "127.0.0.1:4101".into(),
                doc_base: 0,
                docs: 4,
                rows: 2,
                rtt_ms: 1.5,
                error: None,
                retries: 0,
            }],
        };
        let json = explain_json(&e);
        assert!(
            json.contains(
                "\"remote_shards\":[{\"worker\":\"w0\",\"addr\":\"127.0.0.1:4101\",\"doc_base\":0,\"docs\":4,\"rows\":2,\"rtt_ms\":1.5,\"retries\":0,\"error\":null}]"
            ),
            "{json}"
        );
        assert!(crate::json::parse(&json).is_ok(), "valid json");
        // A failed worker renders its structured error.
        let e = koko_core::Explain {
            remote_shards: vec![koko_core::RemoteShardExplain {
                worker: "w1".into(),
                error: Some("timeout".into()),
                retries: 2,
                ..koko_core::RemoteShardExplain::default()
            }],
            ..koko_core::Explain::default()
        };
        assert!(
            explain_json(&e).contains("\"retries\":2,\"error\":\"timeout\""),
            "{}",
            explain_json(&e)
        );
    }

    #[test]
    fn streamed_frames_reassemble_to_the_single_response_rows() {
        let row = |doc: u32, score: f64| Row {
            doc,
            score,
            values: vec![OutValue {
                name: "e".into(),
                text: format!("value {doc}"),
                sid: doc,
                start: 0,
                end: 2,
            }],
        };
        let out = QueryOutput {
            rows: (0..10).map(|i| row(i, 0.5)).collect(),
            total_matches: 12,
            truncated: true,
            ..QueryOutput::default()
        };

        let header = stream_header(42, &out);
        assert_eq!(
            header,
            "{\"id\":42,\"ok\":true,\"stream\":true,\"num_rows\":10,\
             \"total_matches\":12,\"truncated\":true}"
        );
        assert!(crate::json::parse(&header).is_ok());

        // Chunk at an arbitrary boundary; concatenated inner arrays must
        // equal the canonical single-response rendering byte-for-byte.
        let mut rebuilt = String::from("[");
        let mut chunks = 0;
        for (i, slice) in out.rows.chunks(3).enumerate() {
            let frame = stream_chunk(42, i, slice);
            assert!(crate::json::parse(&frame).is_ok(), "{frame}");
            let rows = stream_rows(&frame).unwrap();
            assert!(rows.starts_with('[') && rows.ends_with(']'));
            if rebuilt.len() > 1 && rows.len() > 2 {
                rebuilt.push(',');
            }
            rebuilt.push_str(&rows[1..rows.len() - 1]);
            chunks += 1;
        }
        rebuilt.push(']');
        assert_eq!(rebuilt, rows_json(&out.rows));

        let trailer = stream_trailer(42, chunks, &out);
        assert!(trailer.contains("\"done\":true,\"chunks\":4,\"profile\":{"));
        assert!(!trailer.contains("explain"), "no explain requested");
        assert!(crate::json::parse(&trailer).is_ok());

        // An empty result still has a well-formed (chunkless) stream.
        let empty = QueryOutput::default();
        assert!(stream_header(1, &empty).contains("\"num_rows\":0"));
        assert!(stream_trailer(1, 0, &empty).contains("\"chunks\":0"));
    }

    #[test]
    fn overload_responses_are_structured_json() {
        use koko_core::tenant::Overload;
        let line = overload_response(
            3,
            Some("alice"),
            &Overload::RateLimited {
                retry_after: std::time::Duration::from_millis(120),
            },
        );
        assert_eq!(
            line,
            "{\"id\":3,\"ok\":false,\"error\":\"rate limited\",\"code\":429,\
             \"tenant\":\"alice\",\"retry_after_ms\":120}"
        );
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));

        let line = overload_response(4, Some("bob"), &Overload::QueueFull { max_queue: 8 });
        assert!(line.contains("\"code\":429") && line.contains("\"max_queue\":8"));

        let line = overload_response(5, None, &Overload::UnknownTenant);
        assert!(line.contains("\"code\":401") && line.contains("\"tenant\":null"));
        assert!(crate::json::parse(&line).is_ok());

        // Sub-millisecond retry hints round up, never to zero.
        let line = overload_response(
            6,
            Some("c"),
            &Overload::RateLimited {
                retry_after: std::time::Duration::from_micros(10),
            },
        );
        assert!(line.contains("\"retry_after_ms\":1"), "{line}");
    }

    #[test]
    fn wire_opts_lower_onto_query_requests() {
        let opts = QueryOpts {
            limit: Some(3),
            offset: Some(1),
            min_score: Some(0.25),
            order: Some(WireOrder::ScoreDesc),
            deadline_ms: Some(100),
            explain: true,
            stream: false,
        };
        let req = opts.to_request("q", false);
        assert_eq!(
            req,
            koko_core::QueryRequest::new("q")
                .cache(false)
                .limit(3)
                .offset(1)
                .min_score(0.25)
                .order(koko_core::Order::ScoreDesc)
                .deadline(std::time::Duration::from_millis(100))
                .explain(true)
        );
        assert!(QueryOpts::default().is_default());
        assert!(!opts.is_default());
        assert_eq!(
            QueryOpts::default().to_request("q", true),
            koko_core::QueryRequest::new("q")
        );
    }

    #[test]
    fn error_response_is_valid_json() {
        let line = err_response(9, "parse error: \"oops\"\nline 2");
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("oops"));
    }
}
