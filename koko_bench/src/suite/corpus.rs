//! Inputs shared by every workload: the `mixed` corpus recipe, the four
//! query classes, the operation lists, and a hash of everything generated
//! from the seed.

use koko_core::{Order, QueryRequest};
use koko_lang::queries;
use koko_serve::{QueryOpts, Request, WireOrder};

/// `n` documents: a wiki-like body followed by `n / 20` cafe-blog posts, so
/// the cafe vocabulary is clustered in a few blocks (the recipe
/// `table2_scaleup` uses to make block-max pruning visible, with twice its
/// share of cafe posts: a ranked `cafe` top-k evaluates little beyond them,
/// and over 75 posts its cost moved ±12 % with the seed).
pub fn mixed(n: usize, seed: u64) -> Vec<String> {
    let cafes = n / 20;
    let mut texts = koko_corpus::wiki::generate(n - cafes, seed);
    texts.extend(
        koko_corpus::cafe::generate(koko_corpus::cafe::Style::Barista, cafes, seed + 1).texts,
    );
    texts
}

/// `waves` batches of `per_wave` documents no `mixed(_, seed)` corpus
/// holds, with the cafe posts spread over the batches.
pub fn unseen_waves(waves: usize, per_wave: usize, seed: u64) -> Vec<Vec<String>> {
    let pool = mixed(waves * per_wave, seed.wrapping_add(7919));
    (0..waves)
        .map(|w| (0..per_wave).map(|k| pool[k * waves + w].clone()).collect())
        .collect()
}

/// The four query classes; each is bound by a different engine stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// DPLI-bound (low selectivity).
    Chocolate,
    /// Balanced DPLI / LoadArticle / extract.
    Title,
    /// LoadArticle- and serialise-bound (one row per biography).
    Dob,
    /// Satisfying-clause-bound (§2.3 cafe query).
    Cafe,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Chocolate, Class::Title, Class::Dob, Class::Cafe];

    pub fn name(self) -> &'static str {
        match self {
            Class::Chocolate => "chocolate",
            Class::Title => "title",
            Class::Dob => "dob",
            Class::Cafe => "cafe",
        }
    }

    pub fn query(self) -> &'static str {
        match self {
            Class::Chocolate => queries::CHOCOLATE,
            Class::Title => queries::TITLE,
            Class::Dob => queries::DATE_OF_BIRTH,
            Class::Cafe => queries::EXAMPLE_2_3,
        }
    }
}

/// One query operation as a client would send it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    pub class: Class,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
    pub score_desc: bool,
    pub cache: bool,
}

impl Op {
    /// An unlimited `DocOrder` request that bypasses the caches.
    pub fn scan(class: Class) -> Op {
        Op {
            class,
            limit: None,
            offset: None,
            score_desc: false,
            cache: false,
        }
    }

    pub fn limit(mut self, k: u64) -> Op {
        self.limit = Some(k);
        self
    }

    pub fn offset(mut self, n: u64) -> Op {
        self.offset = Some(n);
        self
    }

    pub fn score_desc(mut self) -> Op {
        self.score_desc = true;
        self
    }

    pub fn cached(mut self) -> Op {
        self.cache = true;
        self
    }

    fn has_opts(&self) -> bool {
        self.limit.is_some() || self.offset.is_some() || self.score_desc
    }

    /// The request line (no trailing newline). Requests without options
    /// use the historical no-`opts` shape.
    pub fn line(&self, id: u64) -> String {
        let opts = self.has_opts().then(|| QueryOpts {
            limit: self.limit,
            offset: self.offset,
            order: self.score_desc.then_some(WireOrder::ScoreDesc),
            ..QueryOpts::default()
        });
        Request::Query {
            id,
            text: self.class.query().to_string(),
            cache: self.cache,
            opts,
            auth: None,
        }
        .encode()
    }

    /// The same operation as an engine request (for the reference rows).
    pub fn request(&self) -> QueryRequest {
        let mut req = QueryRequest::new(self.class.query()).cache(self.cache);
        if let Some(k) = self.limit {
            req = req.limit(k as usize);
        }
        if let Some(n) = self.offset {
            req = req.offset(n as usize);
        }
        if self.score_desc {
            req = req.order(Order::ScoreDesc);
        }
        req
    }

    pub fn label(&self) -> String {
        let mut s = self.class.name().to_string();
        if let Some(k) = self.limit {
            s.push_str(&format!(" limit {k}"));
        }
        if let Some(n) = self.offset {
            s.push_str(&format!(" offset {n}"));
        }
        if self.score_desc {
            s.push_str(" score_desc");
        }
        s
    }
}

/// Spread `counts[i]` copies of `ops[i]` evenly over one round, so no
/// stretch of a round is all one class.
fn interleave(ops: &[Op], counts: &[usize]) -> Vec<Op> {
    let total: usize = counts.iter().sum();
    let mut slots: Vec<(f64, usize)> = Vec::with_capacity(total);
    for (i, &c) in counts.iter().enumerate() {
        for k in 0..c {
            slots.push(((k as f64 + 0.5) / c as f64, i));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, i)| ops[i]).collect()
}

/// One round of the paper's workload: unlimited, cache-bypassing scans
/// weighted 8 title : 8 chocolate : 4 dob : 2 cafe, so the p50 and p95
/// ranks of a window fall inside one class and not on a class boundary.
pub fn scan_round() -> Vec<Op> {
    interleave(
        &[
            Op::scan(Class::Title),
            Op::scan(Class::Chocolate),
            Op::scan(Class::Dob),
            Op::scan(Class::Cafe),
        ],
        &[8, 8, 4, 2],
    )
}

/// The four classes once each, as `build_scale` runs them.
pub fn class_round() -> Vec<Op> {
    Class::ALL.iter().map(|&c| Op::scan(c)).collect()
}

/// One round of result-cache hits: eight distinct cacheable requests, the
/// wide form of each twice and its `limit 10` form once (an odd count per
/// class keeps a class median inside one form).
pub fn hit_round() -> Vec<Op> {
    let wide = |c: Class| match c {
        Class::Dob => Op::scan(c).limit(1000).cached(),
        _ => Op::scan(c).cached(),
    };
    let mut ops = Vec::new();
    let mut counts = Vec::new();
    for c in Class::ALL {
        ops.push(wide(c));
        counts.push(2);
        ops.push(Op::scan(c).limit(10).cached());
        counts.push(1);
    }
    interleave(&ops, &counts)
}

/// One round of top-k reads: `limit 10` under both orders (the ranked form
/// twice, again for an odd count per class), the cafe query ranked only,
/// and a paginated title page. The cafe query comes once in twelve: its
/// slowest answers (after the compaction, see the README) then stay under
/// 5 % of a window and `p95_ms` cannot land on the edge between them and
/// the rest.
pub fn topk_round() -> Vec<Op> {
    let mut ops = Vec::new();
    let mut counts = Vec::new();
    for c in [Class::Chocolate, Class::Title, Class::Dob] {
        ops.push(Op::scan(c).limit(10));
        counts.push(1);
        ops.push(Op::scan(c).limit(10).score_desc());
        counts.push(2);
    }
    ops.push(Op::scan(Class::Cafe).limit(10).score_desc());
    counts.push(1);
    ops.push(Op::scan(Class::Title).limit(10).offset(40));
    counts.push(2);
    interleave(&ops, &counts)
}

/// The distinct operations of a round, in first-seen order.
pub fn distinct(round: &[Op]) -> Vec<Op> {
    let mut seen = Vec::new();
    for op in round {
        if !seen.contains(op) {
            seen.push(*op);
        }
    }
    seen
}

/// FNV-1a64 over every generated text and request line, each terminated
/// by a 0xff byte (which UTF-8 never contains).
pub fn inputs_fnv<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for item in items {
        item.bytes().for_each(&mut eat);
        eat(0xff);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_have_the_documented_weights() {
        let count = |round: &[Op], c: Class| round.iter().filter(|o| o.class == c).count();
        let scan = scan_round();
        assert_eq!(scan.len(), 22);
        assert_eq!(count(&scan, Class::Title), 8);
        assert_eq!(count(&scan, Class::Chocolate), 8);
        assert_eq!(count(&scan, Class::Dob), 4);
        assert_eq!(count(&scan, Class::Cafe), 2);
        assert_eq!(distinct(&hit_round()).len(), 8);
        assert_eq!(hit_round().len(), 12);
        assert_eq!(distinct(&topk_round()).len(), 8);
        // Every class holds an odd number of operations per round.
        for round in [hit_round(), topk_round()] {
            for c in Class::ALL {
                assert_eq!(count(&round, c) % 2, 1, "{c:?}");
            }
        }
    }

    #[test]
    fn lines_decode_back_to_the_same_request() {
        for op in scan_round()
            .into_iter()
            .chain(hit_round())
            .chain(topk_round())
        {
            let Request::Query {
                text, cache, opts, ..
            } = Request::decode(&op.line(7)).unwrap()
            else {
                panic!("not a query");
            };
            let decoded = match opts {
                Some(o) => o.to_request(&text, cache),
                None => QueryRequest::new(text).cache(cache),
            };
            assert_eq!(decoded, op.request(), "{}", op.label());
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let hash = |seed: u64| {
            let texts = mixed(120, seed);
            let waves = unseen_waves(3, 8, seed);
            let lines: Vec<String> = scan_round().iter().map(|o| o.line(1)).collect();
            inputs_fnv(
                texts
                    .iter()
                    .chain(waves.iter().flatten())
                    .chain(lines.iter())
                    .map(String::as_str),
            )
        };
        assert_eq!(hash(4242), hash(4242));
        assert_ne!(hash(4242), hash(4243));
    }

    #[test]
    fn unseen_waves_are_disjoint_from_the_corpus() {
        let base = mixed(200, 5);
        for wave in unseen_waves(4, 8, 5) {
            assert_eq!(wave.len(), 8);
            for doc in wave {
                assert!(!base.contains(&doc));
            }
        }
    }
}
