//! Spans recorded around the calls into each layer. They are kept in
//! memory and written as JSON lines when the run ends; a layer's self time
//! is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The operation this span belongs to; spans of one operation share it.
    pub op: u32,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts measured at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span, closed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Records spans when enabled; a disabled tracer makes every call a no-op,
/// so the same code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Open,
        op: u32,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: parent.0,
            op,
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// A root span has no parent.
    pub fn root() -> Open {
        Open(None)
    }

    pub fn count(&mut self, open: Open, key: &'static str, value: u64) {
        if let Some(id) = open.0 {
            self.spans[id as usize].counts.push((key, value));
        }
    }

    /// Record stages a callee timed itself (the engine's `Profile`) as
    /// children of `parent`, laid end to end from the parent's start.
    pub fn stages(
        &mut self,
        parent: Open,
        layer: &'static str,
        stages: &[(&'static str, Duration)],
    ) {
        let Some(pid) = parent.0 else { return };
        let (op, mut at) = {
            let p = &self.spans[pid as usize];
            (p.op, p.start_ns)
        };
        for &(name, d) in stages {
            let id = self.spans.len() as u32;
            let end = at + d.as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent: Some(pid),
                op,
                name,
                layer,
                start_ns: at,
                end_ns: end,
                counts: Vec::new(),
            });
            at = end;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: total nanoseconds and span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let own = s.duration_ns().saturating_sub(covered[s.id as usize]);
            let slot = out.entry(s.name).or_default();
            slot.0 += own;
            slot.1 += 1;
        }
        out
    }

    /// Sum of one count over every span that recorded it.
    pub fn total_count(&self, key: &str) -> u64 {
        self.spans
            .iter()
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
            )?;
            for (i, (k, v)) in s.counts.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                write!(out, "{sep}\"{k}\":{v}")?;
            }
            writeln!(out, "}}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", "bench", Tracer::root(), 1);
        let run = t.begin("core.run", "core", op, 1);
        t.stages(
            run,
            "core",
            &[
                ("core.dpli", Duration::from_nanos(300)),
                ("core.extract", Duration::from_nanos(200)),
            ],
        );
        t.count(run, "rows", 7);
        t.end(run);
        t.end(op);
        // Pin the intervals so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 1000;
        t.spans[1].start_ns = 100;
        t.spans[1].end_ns = 900;
        let own = t.self_times();
        assert_eq!(own["op"], (200, 1));
        assert_eq!(own["core.run"], (300, 1));
        assert_eq!(own["core.dpli"], (300, 1));
        assert_eq!(own["core.extract"], (200, 1));
        assert_eq!(t.total_count("rows"), 7);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[3].start_ns, t.spans()[2].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin("op", "bench", Tracer::root(), 1);
        t.stages(op, "core", &[("core.dpli", Duration::from_nanos(5))]);
        t.count(op, "rows", 1);
        t.end(op);
        assert!(t.spans().is_empty());
    }
}
