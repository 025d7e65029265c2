//! Aggregation of evidence (§4.4): evaluating `satisfying` and `excluding`
//! clauses over whole documents.
//!
//! For every candidate value `e` of a clause's variable the engine computes
//! `score(e) = Σ wᵢ·mᵢ(e)` where each `mᵢ` aggregates the condition across
//! the document: booleans OR, `near` takes the best proximity, descriptors
//! sum per-sentence confidences (§4.4.1(c)). Every `mᵢ` is capped at 1.0,
//! matching Appendix A's footnote that the total score never exceeds 1.
//!
//! Conditions that consult the document (`FollowedBy` / `PrecededBy` /
//! `Near` / descriptors) read it through a per-document evidence index
//! (`DocEvidence`): built lazily, at most once per document, and never for
//! queries whose conditions look at the value alone — building it is also
//! what completes a store-backed article beyond the candidate sentences
//! LoadArticle decoded. It turns "scan every
//! sentence for the value" into a postings lookup and memoises what every
//! value of the document would otherwise recompute (sentence decomposition,
//! which descriptor expansions a sentence can match at all).

use crate::article::Article;
use crate::binder::CompiledQuery;
use koko_embed::Embeddings;
use koko_index::{BlockVocab, ShardBoundStats, TokenVocab};
use koko_lang::{Cond, Pred};
use koko_nlp::{decompose, gazetteer, Clause, Document, Tid};
use std::cell::OnceCell;
use std::collections::HashMap;

/// Aggregation options (a slice of the engine options).
#[derive(Debug, Clone, Copy)]
pub struct AggOpts {
    /// Disable descriptor expansion + matching (the Figure 5 ablation).
    pub use_descriptors: bool,
    /// Threshold when a satisfying clause omits `with threshold`.
    pub default_threshold: f64,
    /// Maximum descriptor expansions (`E(d)` cap).
    pub expansion_k: usize,
    /// Minimum per-word similarity during expansion.
    pub expansion_min_sim: f64,
}

impl Default for AggOpts {
    fn default() -> Self {
        AggOpts {
            use_descriptors: true,
            default_threshold: 0.5,
            expansion_k: 120,
            expansion_min_sim: 0.55,
        }
    }
}

/// Upper bound on the score any row of one shard can reach, derived from
/// the compiled query plus [`ShardBoundStats`] alone — no document is
/// loaded or extracted. `feasible == false` lets every request mode skip
/// the covered documents outright; the numeric bound is the
/// max-score/WAND-style bound that lets `ScoreDesc` top-k skip documents
/// which provably cannot beat the current k-th score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardScoreBound {
    /// Whether any tuple in the shard could clear *every* satisfying
    /// clause's threshold. `false` proves the shard contributes no rows at
    /// all (necessary-condition reasoning), so it can be skipped outright
    /// without affecting totals.
    pub feasible: bool,
    /// Upper bound on the reported row score — the last satisfying
    /// clause's maximum possible score, or `1.0` for clause-free queries
    /// (which score every row exactly 1.0). Meaningless when `feasible`
    /// is false (reported as 0.0).
    pub bound: f64,
}

/// `E(d)` of one descriptor: its expansions as word-id sequences over the
/// distinct words they use, so "which expansions can this document match
/// at all" costs one postings probe per distinct word.
struct Expansions {
    /// Distinct lower-cased words across all expansions.
    vocab: Vec<String>,
    /// Each expansion: ids into `vocab` + its similarity score `kᵢ`.
    exps: Vec<(Vec<u32>, f64)>,
}

impl Expansions {
    fn new(phrases: Vec<(String, f64)>) -> Expansions {
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut vocab = Vec::new();
        let exps = phrases
            .into_iter()
            .map(|(phrase, score)| {
                let seq = phrase
                    .split_whitespace()
                    .map(|w| {
                        *ids.entry(w.to_string()).or_insert_with(|| {
                            vocab.push(w.to_string());
                            (vocab.len() - 1) as u32
                        })
                    })
                    .collect();
                (seq, score)
            })
            .collect();
        Expansions { vocab, exps }
    }

    fn words<'s>(&'s self, seq: &'s [u32]) -> impl Iterator<Item = &'s str> {
        seq.iter().map(|&id| self.vocab[id as usize].as_str())
    }
}

/// Cached evaluation state for one query: descriptor expansions and the
/// lower-cased literals of phrase conditions are computed once.
pub struct Aggregator<'a> {
    cq: &'a CompiledQuery,
    embed: &'a Embeddings,
    opts: AggOpts,
    /// descriptor → index into `expansions`.
    descriptor_ids: HashMap<String, usize>,
    expansions: Vec<Expansions>,
    /// Literal of a `FollowedBy` / `PrecededBy` / `Near` condition → its
    /// lower-cased words.
    phrases: HashMap<String, Vec<String>>,
}

impl<'a> Aggregator<'a> {
    pub fn new(cq: &'a CompiledQuery, embed: &'a Embeddings, opts: AggOpts) -> Aggregator<'a> {
        let mut descriptor_ids = HashMap::new();
        let mut expansions = Vec::new();
        let mut phrases = HashMap::new();
        for cond in cq
            .norm
            .satisfying
            .iter()
            .flat_map(|s| s.conds.iter().map(|w| &w.cond))
            .chain(cq.norm.excluding.iter())
        {
            match &cond.pred {
                Pred::DescRight(d) | Pred::DescLeft(d) if !descriptor_ids.contains_key(d) => {
                    let exps = if opts.use_descriptors {
                        embed.expand(d, opts.expansion_k, opts.expansion_min_sim)
                    } else {
                        // Ablation: only the literal descriptor, no
                        // paraphrases (Figure 5's "Without descriptors").
                        vec![(d.to_lowercase(), 1.0)]
                    };
                    descriptor_ids.insert(d.clone(), expansions.len());
                    expansions.push(Expansions::new(exps));
                }
                Pred::FollowedBy(s) | Pred::PrecededBy(s) | Pred::Near(s) => {
                    phrases.entry(s.clone()).or_insert_with(|| lower_words(s));
                }
                _ => {}
            }
        }
        Aggregator {
            cq,
            embed,
            opts,
            descriptor_ids,
            expansions,
            phrases,
        }
    }

    /// The effective threshold of a satisfying clause.
    pub fn threshold(&self, clause_threshold: Option<f64>) -> f64 {
        clause_threshold.unwrap_or(self.opts.default_threshold)
    }

    /// The evidence view of one document, to score many values against.
    /// Creating it is free: the index behind it is built — and the article
    /// decoded whole — on the first condition that consults the document.
    pub(crate) fn evidence<'d>(&self, article: &'d Article<'d>) -> DocEvidence<'d> {
        DocEvidence {
            article,
            num_descriptors: self.expansions.len(),
            index: OnceCell::new(),
        }
    }

    /// Whether every document that yields a tuple gets its evidence index
    /// built: each tuple is scored against the first satisfying clause, all
    /// of whose conditions run. LoadArticle then decodes such documents
    /// whole straight away instead of walking to the candidate sentences
    /// first. (Later clauses and excluding conditions run only for tuples
    /// that got that far, so they complete the article lazily.)
    pub(crate) fn always_consults_document(&self) -> bool {
        self.cq
            .norm
            .satisfying
            .first()
            .is_some_and(|clause| clause.conds.iter().any(|wc| consults_document(&wc.cond)))
    }

    /// `score(e)` for a candidate value across one document (§4.4.1).
    pub fn score(&self, doc: &Document, value: &str, conds: &[koko_lang::WeightedCond]) -> f64 {
        self.score_in(&self.evidence(&Article::Corpus(doc)), value, conds)
    }

    /// [`Aggregator::score`] against a document's shared evidence view.
    pub(crate) fn score_in(
        &self,
        ev: &DocEvidence<'_>,
        value: &str,
        conds: &[koko_lang::WeightedCond],
    ) -> f64 {
        let probe = Probe::new(value);
        conds
            .iter()
            .map(|wc| wc.weight * self.confidence_in(ev, &probe, &wc.cond))
            .sum()
    }

    /// Whether an excluding condition holds for the value (boolean reading;
    /// scored conditions count when they reach 0.5).
    pub fn excluded(&self, doc: &Document, value: &str) -> bool {
        self.excluded_in(&self.evidence(&Article::Corpus(doc)), value)
    }

    /// [`Aggregator::excluded`] against a document's shared evidence view.
    pub(crate) fn excluded_in(&self, ev: &DocEvidence<'_>, value: &str) -> bool {
        let probe = Probe::new(value);
        self.cq
            .norm
            .excluding
            .iter()
            .any(|c| self.confidence_in(ev, &probe, c) >= 0.5)
    }

    /// `mᵢ(e)`: the per-condition confidence, capped at 1.
    pub fn confidence(&self, doc: &Document, value: &str, cond: &Cond) -> f64 {
        let article = Article::Corpus(doc);
        self.confidence_in(&self.evidence(&article), &Probe::new(value), cond)
    }

    fn confidence_in(&self, ev: &DocEvidence<'_>, probe: &Probe<'_>, cond: &Cond) -> f64 {
        let value = probe.value;
        let m = match &cond.pred {
            // ---- value-only conditions (no corpus access) ---------------
            Pred::Contains(s) => bool_score(token_seq_contains(value, s)),
            Pred::Mentions(s) => bool_score(value.contains(s.as_str())),
            Pred::Matches(p) => bool_score(self.cq.regex(p).is_full_match(value)),
            Pred::SimilarTo(d) => self.embed.phrase_similarity(value, d).max(0.0),
            Pred::InDict(name) => bool_score(
                gazetteer::dictionary(name)
                    .map(|words| words.iter().any(|w| w.eq_ignore_ascii_case(value)))
                    .unwrap_or(false),
            ),
            // ---- evidence gathered across the document ------------------
            Pred::FollowedBy(s) => bool_score(self.followed_by(ev, probe, s, true)),
            Pred::PrecededBy(s) => bool_score(self.followed_by(ev, probe, s, false)),
            Pred::Near(s) => self.near(ev, probe, s),
            Pred::DescRight(d) => self.descriptor(ev, probe, d, true),
            Pred::DescLeft(d) => self.descriptor(ev, probe, d, false),
        };
        m.min(1.0)
    }

    /// `max_possible_score` for one shard (§4.4.1 read as a weighted sum
    /// of capped terms, the shape the max-score/WAND family exploits):
    /// every satisfying clause's score is `Σ wᵢ·mᵢ` with `mᵢ ∈ [0, 1]`,
    /// so `Σ max(wᵢ·bᵢ, 0)` — `bᵢ` an upper bound on `mᵢ` from the shard
    /// vocabulary — bounds it from above. A clause whose bound cannot
    /// reach its threshold proves the shard row-free; otherwise the
    /// reported bound is the *last* clause's (row scores report the last
    /// satisfying clause, `1.0` when there are no clauses).
    ///
    /// With `stats == None` (no `BOUNDS` section) every `bᵢ` falls back to
    /// the cap `1.0`, giving the conservative weights-only bound — still
    /// sound, it just prunes less.
    pub fn shard_score_bound(&self, stats: Option<&ShardBoundStats>) -> ShardScoreBound {
        self.score_bound(stats)
    }

    /// [`Aggregator::shard_score_bound`] over one document block's
    /// vocabulary ([`BlockVocab`]) — the block-max refinement. Block
    /// vocabularies are subsets of their shard's, so a block bound is
    /// always at least as tight as the shard bound for the same
    /// statistics, and an infeasible block provably contributes no rows.
    pub fn block_score_bound(&self, vocab: &BlockVocab<'_>) -> ShardScoreBound {
        self.score_bound(Some(vocab))
    }

    /// Whether any vocabulary can tighten this query's bounds at all. When
    /// no satisfying condition has a token-level gate (similarity, regex
    /// and substring matching — or no clause at all), every block bound
    /// equals the statistics-free one and is not worth deriving.
    pub(crate) fn bounds_consult_vocabulary(&self) -> bool {
        self.cq
            .norm
            .satisfying
            .iter()
            .flat_map(|clause| &clause.conds)
            .any(|wc| {
                !matches!(
                    wc.cond.pred,
                    Pred::Mentions(_) | Pred::Matches(_) | Pred::SimilarTo(_)
                )
            })
    }

    /// The bound derivation itself, generic over any [`TokenVocab`]
    /// (whole-shard statistics or one block's): vocabulary granularity
    /// changes how tight the bound is, never its soundness.
    fn score_bound<V: TokenVocab>(&self, vocab: Option<&V>) -> ShardScoreBound {
        let mut bound = 1.0; // clause-free queries score every row 1.0
        for clause in &self.cq.norm.satisfying {
            let clause_bound: f64 = clause
                .conds
                .iter()
                .map(|wc| (wc.weight * self.cond_upper_bound(&wc.cond, vocab)).max(0.0))
                .sum();
            if clause_bound < self.threshold(clause.threshold) {
                return ShardScoreBound {
                    feasible: false,
                    bound: 0.0,
                };
            }
            bound = clause_bound;
        }
        ShardScoreBound {
            feasible: true,
            bound,
        }
    }

    /// Upper bound `bᵢ ∈ [0, 1]` on one condition's confidence anywhere
    /// in the text `vocab` describes (a whole shard or one document
    /// block). Soundness rests on a necessary condition: candidate values
    /// are token spans of that text, so a literal token absent from the
    /// vocabulary can never appear in a value or next to one. Where no
    /// token-level gate is sound (substring/regex/similarity matching),
    /// the bound stays at the cap.
    fn cond_upper_bound<V: TokenVocab>(&self, cond: &Cond, vocab: Option<&V>) -> f64 {
        /// Entries past this size are not scanned; the bound stays 1.0.
        const DICT_SCAN_CAP: usize = 4096;
        match &cond.pred {
            Pred::Contains(s) => {
                let words = lower_words(s);
                if words.is_empty() {
                    return 0.0; // `token_seq_contains` never matches empty
                }
                match vocab {
                    Some(st) => bool_score(st.has_all_tokens(words.iter().map(String::as_str))),
                    None => 1.0,
                }
            }
            // Substring, regex and embedding matches are not token-aligned
            // ("choc" mentions-matches "chocolate") — no sound vocabulary
            // gate exists, so these keep the cap.
            Pred::Mentions(_) | Pred::Matches(_) | Pred::SimilarTo(_) => 1.0,
            Pred::InDict(name) => {
                let Some(entries) = gazetteer::dictionary(name) else {
                    return 0.0; // unknown dictionary never matches
                };
                let (Some(st), true) = (vocab, entries.len() <= DICT_SCAN_CAP) else {
                    return 1.0;
                };
                // A value can only equal an entry (ASCII-case-insensitively)
                // if every one of the entry's tokens exists in the shard.
                bool_score(entries.iter().any(|e| {
                    let words = lower_words(e);
                    st.has_all_tokens(words.iter().map(String::as_str))
                }))
            }
            Pred::FollowedBy(s) | Pred::PrecededBy(s) | Pred::Near(s) => {
                let words = self.phrase(s);
                if words.is_empty() {
                    return 0.0;
                }
                match vocab {
                    Some(st) => bool_score(st.has_all_tokens(words.iter().map(String::as_str))),
                    None => 1.0,
                }
            }
            Pred::DescRight(d) | Pred::DescLeft(d) => {
                let Some(exps) = self.descriptor_ids.get(d).map(|&di| &self.expansions[di]) else {
                    return 0.0;
                };
                if exps.exps.is_empty() {
                    return 0.0; // nothing expanded ⇒ descriptor never fires
                }
                match vocab {
                    Some(st) => bool_score(
                        exps.exps
                            .iter()
                            .any(|(seq, _)| st.has_all_tokens(exps.words(seq))),
                    ),
                    None => 1.0,
                }
            }
        }
    }

    /// The lower-cased words of a phrase condition's literal.
    fn phrase(&self, s: &str) -> &[String] {
        self.phrases.get(s).map_or(&[], Vec::as_slice)
    }

    /// Any occurrence of `value` immediately followed (or preceded) by the
    /// token sequence of `s`.
    fn followed_by(&self, ev: &DocEvidence<'_>, probe: &Probe<'_>, s: &str, right: bool) -> bool {
        let swords = self.phrase(s);
        if swords.is_empty() {
            return false;
        }
        let ix = ev.index();
        probe.occurrences(ix).iter().any(|o| {
            let lowers = ix.sentence(o.sentence);
            let at = if right {
                Some(o.end as usize)
            } else {
                (o.start as usize).checked_sub(swords.len())
            };
            at.is_some_and(|p| matches_at(lowers, p, swords))
        })
    }

    /// Best proximity score `1/(1+distance)` across the document (§4.4.1).
    fn near(&self, ev: &DocEvidence<'_>, probe: &Probe<'_>, s: &str) -> f64 {
        let swords = self.phrase(s);
        if swords.is_empty() {
            return 0.0;
        }
        let ix = ev.index();
        let mut best: f64 = 0.0;
        for group in probe
            .occurrences(ix)
            .chunk_by(|a, b| a.sentence == b.sentence)
        {
            let lowers = ix.sentence(group[0].sentence);
            for ss in (0..lowers.len()).filter(|&p| matches_at(lowers, p, swords)) {
                let (ss, se) = (ss as u32, (ss + swords.len()) as u32);
                for o in group {
                    // Tokens separating the two occurrences.
                    let distance = if se <= o.start {
                        (o.start - se) as f64
                    } else if o.end <= ss {
                        (ss - o.end) as f64
                    } else {
                        0.0 // overlapping
                    };
                    best = best.max(1.0 / (1.0 + distance));
                }
            }
        }
        best
    }

    /// Descriptor confidence (§4.4.1(c)): per sentence containing the
    /// value, decompose into canonical clauses, match each expansion
    /// against clauses on the stated side of the value (damped by the
    /// `near` proximity formula), take the best expansion, and sum over
    /// sentences.
    ///
    /// Only expansions whose every word occurs in the sentence are tried:
    /// any other matches no clause, sums to exactly `0.0`, and cannot
    /// raise a maximum that starts at `0.0` — so a sentence none can match
    /// is never even decomposed, and scores are bit-identical to trying
    /// all of `E(d)`.
    fn descriptor(&self, ev: &DocEvidence<'_>, probe: &Probe<'_>, d: &str, right: bool) -> f64 {
        let Some(&di) = self.descriptor_ids.get(d) else {
            return 0.0;
        };
        let exps = &self.expansions[di];
        let ix = ev.index();
        let mut total = 0.0;
        let mut sides: Vec<&[Tid]> = Vec::new();
        for group in probe
            .occurrences(ix)
            .chunk_by(|a, b| a.sentence == b.sentence)
        {
            let sentence = group[0].sentence;
            let live = ix.live_expansions(sentence, di, exps);
            if live.is_empty() {
                continue;
            }
            let clauses = ix.clauses(sentence);
            let lowers = ix.sentence(sentence);
            // Clause tokens on the stated side of each occurrence: clause
            // tokens are in surface order, so that is a suffix (right) or
            // a prefix (left) — the same for every expansion.
            sides.clear();
            for clause in clauses {
                for o in group {
                    sides.push(if right {
                        &clause.tokens[clause.tokens.partition_point(|&t| t < o.end)..]
                    } else {
                        &clause.tokens[..clause.tokens.partition_point(|&t| t < o.start)]
                    });
                }
            }
            // max over expansions of (sum over clauses).
            let mut sentence_conf: f64 = 0.0;
            for &e in live {
                let (seq, ki) = &exps.exps[e as usize];
                let mut sum = 0.0;
                for (clause, clause_sides) in clauses.iter().zip(sides.chunks(group.len())) {
                    // Best over the occurrences (the closest one wins).
                    let mut best_clause: f64 = 0.0;
                    for (o, side) in group.iter().zip(clause_sides) {
                        if let Some(first_match) = seq_occurs(lowers, side, exps.words(seq)) {
                            let distance = if right {
                                (first_match as f64 - o.end as f64).max(0.0)
                            } else {
                                (o.start as f64 - first_match as f64 - 1.0).max(0.0)
                            };
                            let prox = 1.0 / (1.0 + distance);
                            best_clause = best_clause.max(ki * clause.score * prox);
                        }
                    }
                    sum += best_clause;
                }
                sentence_conf = sentence_conf.max(sum);
            }
            total += sentence_conf;
        }
        total
    }
}

/// One occurrence of a value in a document: sentence index and half-open
/// token span within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Occurrence {
    sentence: u32,
    start: u32,
    end: u32,
}

/// One candidate value while its conditions are evaluated: lower-cased and
/// located in the document at most once, however many conditions ask.
struct Probe<'v> {
    value: &'v str,
    occurrences: OnceCell<Vec<Occurrence>>,
}

impl<'v> Probe<'v> {
    fn new(value: &'v str) -> Probe<'v> {
        Probe {
            value,
            occurrences: OnceCell::new(),
        }
    }

    /// Where the value occurs, in document order.
    fn occurrences(&self, ix: &EvidenceIndex<'_>) -> &[Occurrence] {
        self.occurrences
            .get_or_init(|| ix.occurrences(&lower_words(self.value)))
    }
}

/// One document as the document-consulting conditions see it. The index is
/// built on first use, so clauses over the value alone never pay for it.
pub(crate) struct DocEvidence<'d> {
    article: &'d Article<'d>,
    num_descriptors: usize,
    index: OnceCell<EvidenceIndex<'d>>,
}

impl<'d> DocEvidence<'d> {
    fn index(&self) -> &EvidenceIndex<'d> {
        self.index
            .get_or_init(|| EvidenceIndex::build(self.article.whole(), self.num_descriptors))
    }

    /// Whether any condition consulted the document so far.
    #[cfg(test)]
    fn is_built(&self) -> bool {
        self.index.get().is_some()
    }
}

const NO_NEXT: u32 = u32::MAX;

/// Token → position postings over one document, plus per-sentence memos.
struct EvidenceIndex<'d> {
    doc: &'d Document,
    /// Every token's lower-cased form, sentence after sentence.
    lowers: Vec<&'d str>,
    /// Sentence `s` covers `lowers[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    /// Flat position → sentence.
    sentence_of: Vec<u32>,
    /// Token → its first flat position; `next` chains the later ones in
    /// ascending order (`NO_NEXT` ends a chain).
    first: HashMap<&'d str, u32>,
    next: Vec<u32>,
    /// Canonical clauses per sentence, decomposed on first use.
    clauses: Vec<OnceCell<Vec<Clause>>>,
    /// Per descriptor: the expansions whose every word occurs somewhere in
    /// the document — one postings probe per distinct expansion word, so
    /// the per-sentence filter scans a handful of expansions instead of all
    /// of `E(d)` (filtering per sentence alone costs 2.8 instead of 1.1 µs
    /// per tuple on a pure cafe corpus).
    doc_live: Vec<OnceCell<Vec<u32>>>,
    /// Per (sentence, descriptor), sentence-major: the subset of
    /// `doc_live` whose every word occurs in that sentence.
    sentence_live: Vec<OnceCell<Vec<u32>>>,
}

impl<'d> EvidenceIndex<'d> {
    fn build(doc: &'d Document, num_descriptors: usize) -> EvidenceIndex<'d> {
        let n = doc.num_tokens();
        let mut lowers = Vec::with_capacity(n);
        let mut starts = Vec::with_capacity(doc.sentences.len() + 1);
        let mut sentence_of = Vec::with_capacity(n);
        for (s, sentence) in doc.sentences.iter().enumerate() {
            starts.push(lowers.len() as u32);
            for token in &sentence.tokens {
                lowers.push(token.lower.as_str());
                sentence_of.push(s as u32);
            }
        }
        starts.push(lowers.len() as u32);
        // Back to front, so every chain runs in ascending position order.
        let mut first: HashMap<&str, u32> = HashMap::with_capacity(lowers.len());
        let mut next = vec![NO_NEXT; lowers.len()];
        for (i, &w) in lowers.iter().enumerate().rev() {
            if let Some(later) = first.insert(w, i as u32) {
                next[i] = later;
            }
        }
        fn cells<T>(n: usize) -> Vec<OnceCell<T>> {
            (0..n).map(|_| OnceCell::new()).collect()
        }
        EvidenceIndex {
            doc,
            lowers,
            starts,
            sentence_of,
            first,
            next,
            clauses: cells(doc.sentences.len()),
            doc_live: cells(num_descriptors),
            sentence_live: cells(doc.sentences.len() * num_descriptors),
        }
    }

    /// The lower-cased tokens of one sentence.
    fn sentence(&self, s: u32) -> &[&'d str] {
        &self.lowers[self.starts[s as usize] as usize..self.starts[s as usize + 1] as usize]
    }

    /// All occurrences of a lower-cased word sequence, in document order:
    /// the postings of its first word, each checked for the rest.
    fn occurrences(&self, words: &[String]) -> Vec<Occurrence> {
        let mut out = Vec::new();
        let Some(w0) = words.first() else {
            return out;
        };
        let mut at = self.first.get(w0.as_str()).copied().unwrap_or(NO_NEXT);
        while at != NO_NEXT {
            let sentence = self.sentence_of[at as usize];
            let start = at - self.starts[sentence as usize];
            if matches_at(self.sentence(sentence), start as usize, words) {
                out.push(Occurrence {
                    sentence,
                    start,
                    end: start + words.len() as u32,
                });
            }
            at = self.next[at as usize];
        }
        out
    }

    fn clauses(&self, s: u32) -> &[Clause] {
        self.clauses[s as usize].get_or_init(|| decompose(&self.doc.sentences[s as usize]))
    }

    /// The expansions of descriptor `di` that sentence `s` could match.
    fn live_expansions(&self, s: u32, di: usize, exps: &Expansions) -> &[u32] {
        let doc_live = self.doc_live[di].get_or_init(|| {
            let present: Vec<bool> = exps
                .vocab
                .iter()
                .map(|w| self.first.contains_key(w.as_str()))
                .collect();
            (0..exps.exps.len() as u32)
                .filter(|&e| exps.exps[e as usize].0.iter().all(|&w| present[w as usize]))
                .collect()
        });
        self.sentence_live[s as usize * self.doc_live.len() + di].get_or_init(|| {
            let lowers = self.sentence(s);
            doc_live
                .iter()
                .copied()
                .filter(|&e| {
                    exps.words(&exps.exps[e as usize].0)
                        .all(|w| lowers.contains(&w))
                })
                .collect()
        })
    }
}

/// Whether a condition reads the document around the value, as opposed to
/// the value's own text.
pub(crate) fn consults_document(cond: &Cond) -> bool {
    matches!(
        cond.pred,
        Pred::FollowedBy(_)
            | Pred::PrecededBy(_)
            | Pred::Near(_)
            | Pred::DescRight(_)
            | Pred::DescLeft(_)
    )
}

fn bool_score(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

fn lower_words(s: &str) -> Vec<String> {
    s.split_whitespace().map(|w| w.to_lowercase()).collect()
}

/// Token-level containment: the token sequence of `needle` appears in the
/// token sequence of `hay` (the paper's `contains`; "chocolate ice cream"
/// contains "ice" but not "choc").
fn token_seq_contains(hay: &str, needle: &str) -> bool {
    let h: Vec<&str> = hay.split_whitespace().collect();
    let n: Vec<&str> = needle.split_whitespace().collect();
    if n.is_empty() || h.len() < n.len() {
        return false;
    }
    (0..=h.len() - n.len()).any(|i| n.iter().enumerate().all(|(j, w)| h[i + j] == *w))
}

/// Whether `words` matches a sentence's lower-cased tokens starting at
/// `pos`.
fn matches_at(lowers: &[&str], pos: usize, words: &[String]) -> bool {
    lowers
        .get(pos..pos + words.len())
        .is_some_and(|window| window.iter().zip(words).all(|(t, w)| *t == w.as_str()))
}

/// Whether the word sequence `seq` occurs within the (sorted) token
/// positions `positions` of the sentence, in order with gaps allowed
/// (§4.4.1(c)'s occurrence definition); returns the position of the first
/// matched word.
fn seq_occurs<'w>(
    lowers: &[&str],
    positions: &[Tid],
    mut seq: impl Iterator<Item = &'w str>,
) -> Option<Tid> {
    let mut want = seq.next()?;
    let mut first = None;
    for &p in positions {
        if lowers[p as usize] == want {
            first = first.or(Some(p));
            match seq.next() {
                Some(w) => want = w,
                None => return first,
            }
        }
    }
    None
}

/// The straightforward evaluation of the document-consulting conditions —
/// scan every sentence for the value, decompose it again, try every
/// expansion — kept as the oracle the indexed kernel is checked against
/// bit for bit.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::binder::token_occurrences;
    use koko_nlp::Sentence;

    impl Aggregator<'_> {
        pub(super) fn reference_score(
            &self,
            doc: &Document,
            value: &str,
            conds: &[koko_lang::WeightedCond],
        ) -> f64 {
            conds
                .iter()
                .map(|wc| wc.weight * self.reference_confidence(doc, value, &wc.cond))
                .sum()
        }

        pub(super) fn reference_excluded(&self, doc: &Document, value: &str) -> bool {
            self.cq
                .norm
                .excluding
                .iter()
                .any(|c| self.reference_confidence(doc, value, c) >= 0.5)
        }

        fn reference_confidence(&self, doc: &Document, value: &str, cond: &Cond) -> f64 {
            let m = match &cond.pred {
                Pred::FollowedBy(s) => bool_score(followed_by(doc, value, s, true)),
                Pred::PrecededBy(s) => bool_score(followed_by(doc, value, s, false)),
                Pred::Near(s) => near(doc, value, s),
                Pred::DescRight(d) => self.reference_descriptor(doc, value, d, true),
                Pred::DescLeft(d) => self.reference_descriptor(doc, value, d, false),
                // Value-only conditions have one implementation.
                _ => return self.confidence(doc, value, cond),
            };
            m.min(1.0)
        }

        fn reference_descriptor(&self, doc: &Document, value: &str, d: &str, right: bool) -> f64 {
            let Some(exps) = self.descriptor_ids.get(d).map(|&di| &self.expansions[di]) else {
                return 0.0;
            };
            let exps: Vec<(Vec<String>, f64)> = exps
                .exps
                .iter()
                .map(|(seq, k)| (exps.words(seq).map(str::to_string).collect(), *k))
                .collect();
            let vwords = lower_words(value);
            if vwords.is_empty() {
                return 0.0;
            }
            let mut total = 0.0;
            for sentence in &doc.sentences {
                let occurrences = token_occurrences(sentence, &vwords);
                if occurrences.is_empty() {
                    continue;
                }
                let clauses = decompose(sentence);
                let lowers: Vec<&str> = sentence.tokens.iter().map(|t| t.lower.as_str()).collect();
                // max over expansions of (sum over clauses).
                let mut sentence_conf: f64 = 0.0;
                for (di, ki) in &exps {
                    let mut sum = 0.0;
                    for clause in &clauses {
                        // Clause tokens on the correct side of the closest
                        // occurrence.
                        let mut best_clause: f64 = 0.0;
                        for &(vs, ve) in &occurrences {
                            let side_tokens: Vec<usize> = clause
                                .tokens
                                .iter()
                                .map(|&t| t as usize)
                                .filter(|&t| {
                                    if right {
                                        t >= ve as usize
                                    } else {
                                        t < vs as usize
                                    }
                                })
                                .collect();
                            if side_tokens.is_empty() {
                                continue;
                            }
                            if let Some(first_match) = seq_occurs(&lowers, &side_tokens, di) {
                                let distance = if right {
                                    (first_match as f64 - ve as f64).max(0.0)
                                } else {
                                    (vs as f64 - first_match as f64 - 1.0).max(0.0)
                                };
                                let prox = 1.0 / (1.0 + distance);
                                best_clause = best_clause.max(ki * clause.score * prox);
                            }
                        }
                        sum += best_clause;
                    }
                    sentence_conf = sentence_conf.max(sum);
                }
                total += sentence_conf;
            }
            total
        }
    }

    fn followed_by(doc: &Document, value: &str, s: &str, right: bool) -> bool {
        let vwords = lower_words(value);
        let swords = lower_words(s);
        if vwords.is_empty() || swords.is_empty() {
            return false;
        }
        for sentence in &doc.sentences {
            for (start, end) in token_occurrences(sentence, &vwords) {
                let ok = if right {
                    matches_at(sentence, end as usize, &swords)
                } else {
                    (start as usize)
                        .checked_sub(swords.len())
                        .is_some_and(|p| matches_at(sentence, p, &swords))
                };
                if ok {
                    return true;
                }
            }
        }
        false
    }

    fn near(doc: &Document, value: &str, s: &str) -> f64 {
        let vwords = lower_words(value);
        let swords = lower_words(s);
        if vwords.is_empty() || swords.is_empty() {
            return 0.0;
        }
        let mut best: f64 = 0.0;
        for sentence in &doc.sentences {
            let v_occ = token_occurrences(sentence, &vwords);
            if v_occ.is_empty() {
                continue;
            }
            let s_occ = token_occurrences(sentence, &swords);
            for (vs, ve) in &v_occ {
                for (ss, se) in &s_occ {
                    // Tokens separating the two occurrences.
                    let distance = if se <= vs {
                        (vs - se) as f64
                    } else if ve <= ss {
                        (ss - ve) as f64
                    } else {
                        0.0 // overlapping
                    };
                    best = best.max(1.0 / (1.0 + distance));
                }
            }
        }
        best
    }

    fn matches_at(sentence: &Sentence, pos: usize, words: &[String]) -> bool {
        if pos + words.len() > sentence.len() {
            return false;
        }
        words
            .iter()
            .enumerate()
            .all(|(i, w)| sentence.tokens[pos + i].lower == *w)
    }

    fn seq_occurs(lowers: &[&str], positions: &[usize], seq: &[String]) -> Option<usize> {
        if seq.is_empty() {
            return None;
        }
        let mut si = 0usize;
        let mut first = None;
        for &p in positions {
            if lowers[p] == seq[si] {
                if si == 0 {
                    first = Some(p);
                }
                si += 1;
                if si == seq.len() {
                    return first;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::article::Article;
    use crate::binder::CompiledQuery;
    use koko_lang::{normalize, parse_query};
    use koko_nlp::Pipeline;

    fn setup(q: &str) -> (CompiledQuery, &'static Embeddings) {
        let cq = CompiledQuery::compile(normalize(&parse_query(q).unwrap()).unwrap()).unwrap();
        (cq, Embeddings::shared())
    }

    fn doc(text: &str) -> Document {
        Pipeline::new().parse_document(0, text)
    }

    #[test]
    fn boolean_conditions() {
        let (cq, embed) = setup(koko_lang::queries::EXAMPLE_2_3);
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let d = doc("Copper Kettle Cafe opened. It serves espresso.");
        let conds = &cq.norm.satisfying[0].conds;
        // str(x) contains "Cafe" → weight 1 condition fires.
        let score = agg.score(&d, "Copper Kettle Cafe", conds);
        assert!(score >= 1.0, "{score}");
        // Token-level contains: "Cafemath" does not contain token "Cafe".
        let score2 = agg.score(&d, "Cafemath", conds);
        assert!(score2 < 1.0, "{score2}");
    }

    #[test]
    fn followed_by_evidence() {
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (x ", a cafe" {1}) with threshold 0.8"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let d = doc("We visited Copper Kettle , a cafe in Portland.");
        let conds = &cq.norm.satisfying[0].conds;
        assert_eq!(agg.score(&d, "Copper Kettle", conds), 1.0);
        assert_eq!(agg.score(&d, "Portland", conds), 0.0);
    }

    #[test]
    fn near_scoring() {
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (x near "coffee" {1}) with threshold 0.1"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let d = doc("Cafe Benz serves great coffee.");
        let conds = &cq.norm.satisfying[0].conds;
        // "Cafe Benz" … distance 2 (serves, great) → 1/3.
        let s = agg.score(&d, "Cafe Benz", conds);
        assert!((s - 1.0 / 3.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn descriptor_matches_paraphrase() {
        // The paper's motivating case: "serves up delicious cappuccinos"
        // should count as evidence for [["serves coffee"]].
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (x [["serves coffee"]] {1}) with threshold 0.1"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let d = doc("Copper Kettle serves delicious cappuccinos every morning.");
        let conds = &cq.norm.satisfying[0].conds;
        let s = agg.score(&d, "Copper Kettle", conds);
        assert!(s > 0.2, "paraphrase evidence should score: {s}");
        // No evidence on the left side.
        let (cq2, _) = setup(
            r#"extract x:Entity from "t" if () satisfying x ([["serves coffee"]] x {1}) with threshold 0.1"#,
        );
        let agg2 = Aggregator::new(&cq2, embed, AggOpts::default());
        let s2 = agg2.score(&d, "Copper Kettle", &cq2.norm.satisfying[0].conds);
        assert_eq!(s2, 0.0, "evidence is to the right of the mention");
    }

    #[test]
    fn descriptor_ablation_reduces_score() {
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (x [["serves coffee"]] {1}) with threshold 0.1"#,
        );
        let with = Aggregator::new(&cq, embed, AggOpts::default());
        let without = Aggregator::new(
            &cq,
            embed,
            AggOpts {
                use_descriptors: false,
                ..AggOpts::default()
            },
        );
        let d = doc("Copper Kettle sells coffee downtown.");
        let conds = &cq.norm.satisfying[0].conds;
        let s_with = with.score(&d, "Copper Kettle", conds);
        let s_without = without.score(&d, "Copper Kettle", conds);
        assert!(s_with > 0.0, "{s_with}");
        assert_eq!(s_without, 0.0, "the literal phrase never occurs");
    }

    #[test]
    fn evidence_accumulates_across_sentences() {
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (x [["serves coffee"]] {0.5}) or (x [["employs baristas"]] {0.5}) with threshold 0.5"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let conds = &cq.norm.satisfying[0].conds;
        let weak = doc("Copper Kettle serves espresso.");
        let strong = doc(
            "Copper Kettle serves espresso. Copper Kettle recently hired a star barista. Copper Kettle employs three baristas.",
        );
        let s_weak = agg.score(&weak, "Copper Kettle", conds);
        let s_strong = agg.score(&strong, "Copper Kettle", conds);
        assert!(
            s_strong > s_weak,
            "more mentions → more evidence ({s_strong} vs {s_weak})"
        );
    }

    #[test]
    fn excluding_conditions() {
        let (cq, embed) = setup(koko_lang::queries::EXAMPLE_2_3);
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let d = doc("They installed a La Marzocco at the bar.");
        assert!(agg.excluded(&d, "La Marzocco"));
        assert!(agg.excluded(&d, "la Marzocco"));
        assert!(!agg.excluded(&d, "Copper Kettle"));
    }

    #[test]
    fn scores_capped_at_one_per_condition() {
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (x [["serves coffee"]] {1}) with threshold 0.1"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        // Many evidence sentences: sum would exceed 1 without the cap.
        let text = "Copper Kettle serves coffee. ".repeat(10);
        let d = doc(&text);
        let conds = &cq.norm.satisfying[0].conds;
        let s = agg.score(&d, "Copper Kettle", conds);
        assert!(s <= 1.0 + 1e-9, "{s}");
    }

    #[test]
    fn similar_to_condition() {
        let (cq, embed) = setup(koko_lang::queries::EXAMPLE_2_2_Q1);
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let d = doc("cities in asian countries such as Beijing and Tokyo.");
        let conds = &cq.norm.satisfying[0].conds;
        let tokyo = agg.score(&d, "Tokyo", conds);
        let china = agg.score(&d, "China", conds);
        assert!(tokyo > 0.25, "{tokyo}");
        assert!(tokyo > china, "{tokyo} vs {china}");
    }

    fn stats(text: &str) -> ShardBoundStats {
        let c = Pipeline::new().parse_corpus(&[text.to_string()]);
        ShardBoundStats::from_docs(c.documents())
    }

    #[test]
    fn shard_bound_conservative_without_stats() {
        // Two weighted conditions: the weights-only bound is their sum.
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (x near "coffee" {0.6}) or (str(x) contains "cafe" {0.7}) with threshold 0.5"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let b = agg.shard_score_bound(None);
        assert!(b.feasible);
        assert!((b.bound - 1.3).abs() < 1e-9, "{}", b.bound);
    }

    #[test]
    fn shard_bound_gates_on_token_vocabulary() {
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (str(x) contains "cafe" {1}) with threshold 0.5"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        // Vocabulary with the token: full bound.
        let with = stats("The cafe on Main serves espresso.");
        let b = agg.shard_score_bound(Some(&with));
        assert!(b.feasible && (b.bound - 1.0).abs() < 1e-9, "{b:?}");
        // Vocabulary without it: no value can contain "cafe" ⇒ the clause
        // can never reach its threshold ⇒ the shard is provably row-free.
        let without = stats("The bakery on Main serves croissants.");
        let b = agg.shard_score_bound(Some(&without));
        assert!(!b.feasible && b.bound == 0.0, "{b:?}");
    }

    #[test]
    fn shard_bound_gates_proximity_and_descriptors() {
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (x near "coffee" {1}) with threshold 0.1"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        assert!(
            agg.shard_score_bound(Some(&stats("Great coffee here.")))
                .feasible
        );
        assert!(
            !agg.shard_score_bound(Some(&stats("Great tea here.")))
                .feasible
        );

        // Descriptors: feasible only when some expansion's words all occur.
        let (cq2, _) = setup(
            r#"extract x:Entity from "t" if () satisfying x (x [["serves coffee"]] {1}) with threshold 0.1"#,
        );
        let agg2 = Aggregator::new(&cq2, embed, AggOpts::default());
        assert!(
            agg2.shard_score_bound(Some(&stats("Copper Kettle serves delicious coffee.")))
                .feasible
        );
        assert!(
            !agg2
                .shard_score_bound(Some(&stats("An unrelated sentence about trains.")))
                .feasible
        );
    }

    #[test]
    fn shard_bound_is_one_for_clause_free_queries() {
        let (cq, embed) = setup("extract x:Entity from \"t\" if ()");
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        for st in [None, Some(stats("anything at all"))] {
            let b = agg.shard_score_bound(st.as_ref());
            assert!(b.feasible);
            assert_eq!(b.bound, 1.0);
        }
    }

    #[test]
    fn shard_bound_never_underestimates_real_scores() {
        // The invariant pruning rests on: for every document in the shard
        // and every candidate value, score ≤ bound.
        let texts = [
            "Copper Kettle Cafe serves great coffee downtown.",
            "The bakery sells bread. No beverages at all.",
        ];
        for q in [
            koko_lang::queries::EXAMPLE_2_3,
            r#"extract x:Entity from "t" if () satisfying x (x near "coffee" {0.5}) or (str(x) contains "Cafe" {0.5}) with threshold 0.1"#,
        ] {
            let (cq, embed) = setup(q);
            let agg = Aggregator::new(&cq, embed, AggOpts::default());
            for text in texts {
                let st = stats(text);
                let b = agg.shard_score_bound(Some(&st));
                let d = doc(text);
                let last = cq.norm.satisfying.last().unwrap();
                // Candidate values are always spans of the shard's own
                // text — the precondition the bound's soundness rests on —
                // so only probe values the document actually contains.
                let values = ["Copper Kettle Cafe", "Copper Kettle", "bakery", "coffee"]
                    .into_iter()
                    .filter(|v| text.to_lowercase().contains(&v.to_lowercase()));
                for value in values {
                    let all_pass = cq.norm.satisfying.iter().all(|clause| {
                        agg.score(&d, value, &clause.conds) >= agg.threshold(clause.threshold)
                    });
                    if !b.feasible {
                        // An infeasible shard can produce no row at all.
                        assert!(!all_pass, "infeasible shard passed {value:?} in {text:?}");
                    } else {
                        // Row scores (last clause) can never exceed the bound.
                        let s = agg.score(&d, value, &last.conds);
                        assert!(
                            s <= b.bound + 1e-9,
                            "{s} > {} for {value:?} in {text:?}",
                            b.bound
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shard_bound_unknown_dictionary_is_infeasible() {
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (str(x) in dict("NoSuchDict") {1}) with threshold 0.5"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        assert!(!agg.shard_score_bound(None).feasible);
        let (cq2, _) = setup(
            r#"extract x:Entity from "t" if () satisfying x (str(x) in dict("Location") {1}) with threshold 0.5"#,
        );
        let agg2 = Aggregator::new(&cq2, embed, AggOpts::default());
        // Known dictionary: feasible when an entry's tokens are present…
        assert!(
            agg2.shard_score_bound(Some(&stats("Portland is nice.")))
                .feasible
        );
        // …and conservative without stats.
        assert!(agg2.shard_score_bound(None).feasible);
    }

    #[test]
    fn block_bound_gates_per_block() {
        // One shard, two docs, one doc per block: the block with the query
        // vocabulary stays feasible, the other is provably row-free even
        // though the shard-wide bound (union of both) remains feasible.
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (str(x) contains "coffee" {1}) with threshold 0.5"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let c = Pipeline::new().parse_corpus(&[
            "Copper Kettle serves coffee downtown.".to_string(),
            "The bakery sells bread only.".to_string(),
        ]);
        let shard = ShardBoundStats::from_docs(c.documents());
        assert!(agg.shard_score_bound(Some(&shard)).feasible);
        let blocks = koko_index::BlockBoundStats::from_docs(c.documents(), 1);
        assert_eq!(blocks.num_blocks(), 2);
        let b0 = agg.block_score_bound(&blocks.block(0));
        let b1 = agg.block_score_bound(&blocks.block(1));
        assert!(b0.feasible, "{b0:?}");
        assert!((b0.bound - 1.0).abs() < 1e-9, "{b0:?}");
        assert!(!b1.feasible, "{b1:?}");
    }

    #[test]
    fn in_dict_condition() {
        let (cq, embed) = setup(
            r#"extract x:Entity from "t" if () satisfying x (x near "x" {1}) with threshold 0.9 excluding (str(x) in dict("Location"))"#,
        );
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let d = doc("Portland is nice.");
        assert!(agg.excluded(&d, "Portland"));
        assert!(!agg.excluded(&d, "Copper Kettle"));
    }

    /// Every entity mention of every document, as the engine's
    /// `x:Entity` variable would bind it.
    fn entity_values(d: &Document) -> Vec<String> {
        d.sentences
            .iter()
            .flat_map(|s| s.entities.iter().map(|m| s.mention_text(m)))
            .collect()
    }

    #[test]
    fn indexed_kernel_is_bit_identical_to_the_reference() {
        let pipeline = Pipeline::new();
        let cafe = koko_corpus::cafe::generate(koko_corpus::cafe::Style::Barista, 40, 11).texts;
        let sprudge = koko_corpus::cafe::generate(koko_corpus::cafe::Style::Sprudge, 10, 12).texts;
        let tweets = koko_corpus::tweets::generate(150, 13).texts;
        let docs: Vec<Document> = cafe
            .iter()
            .chain(&sprudge)
            .chain(&tweets)
            .enumerate()
            .map(|(i, t)| pipeline.parse_document(i as u32, t))
            .collect();
        let queries = [
            koko_lang::queries::EXAMPLE_2_3.to_string(),
            koko_lang::queries::cafe_query(0.5),
            koko_lang::queries::facility_query(0.5),
            koko_lang::queries::sports_team_query(0.5),
        ];
        let mut compared = 0usize;
        let mut nonzero = 0usize;
        for q in &queries {
            let (cq, embed) = setup(q);
            for use_descriptors in [true, false] {
                let opts = AggOpts {
                    use_descriptors,
                    ..AggOpts::default()
                };
                let agg = Aggregator::new(&cq, embed, opts);
                for d in &docs {
                    // One evidence view per document, as the engine uses it.
                    let article = Article::Corpus(d);
                    let ev = agg.evidence(&article);
                    for value in entity_values(d) {
                        for clause in &cq.norm.satisfying {
                            let got = agg.score_in(&ev, &value, &clause.conds);
                            let want = agg.reference_score(d, &value, &clause.conds);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{value:?} in doc {}: {got} vs {want} (descriptors: {use_descriptors})",
                                d.id
                            );
                            compared += 1;
                            nonzero += usize::from(want > 0.0);
                        }
                        assert_eq!(
                            agg.excluded_in(&ev, &value),
                            agg.reference_excluded(d, &value),
                            "{value:?} in doc {}",
                            d.id
                        );
                    }
                }
            }
        }
        assert!(compared > 4000, "{compared}");
        assert!(
            nonzero > 500,
            "{nonzero}: the corpora must exercise the kernel"
        );
    }

    #[test]
    fn kernel_matches_reference_on_edge_values() {
        // Values the engine never binds but the public API accepts: empty,
        // absent from the document, repeated within a sentence, at a
        // sentence edge, and in mixed case.
        let q = r#"extract x:Entity from "t" if () satisfying x
            (x "serves" {0.3}) or ("the" x {0.3}) or (x near "coffee" {0.3}) or
            (x [["serves coffee"]] {0.5}) or ([["serves coffee"]] x {0.5})
            with threshold 0.1"#;
        let (cq, embed) = setup(q);
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let d = doc(
            "Kettle serves coffee and Kettle sells espresso. The barista pours coffee at Kettle. Kettle",
        );
        let conds = &cq.norm.satisfying[0].conds;
        for value in [
            "",
            "  ",
            "Kettle",
            "kettle",
            "KETTLE",
            "Nowhere",
            "coffee",
            "the barista",
            "Kettle serves",
        ] {
            assert_eq!(
                agg.score(&d, value, conds).to_bits(),
                agg.reference_score(&d, value, conds).to_bits(),
                "{value:?}"
            );
        }
    }

    #[test]
    fn value_only_clauses_never_build_the_evidence_index() {
        let d = doc("Copper Kettle Cafe serves coffee in Portland. Anna was born in 1911.");
        for q in [
            koko_lang::queries::CHOCOLATE,
            koko_lang::queries::DATE_OF_BIRTH,
            koko_lang::queries::EXAMPLE_2_2_Q1,
            r#"extract x:Entity from "t" if () satisfying x (str(x) contains "Cafe" {1}) with threshold 0.5 excluding (str(x) matches "[a-z]+") or (str(x) in dict("Location")) or (str(x) mentions "@")"#,
        ] {
            let (cq, embed) = setup(q);
            let agg = Aggregator::new(&cq, embed, AggOpts::default());
            let article = Article::Corpus(&d);
            let ev = agg.evidence(&article);
            for value in entity_values(&d) {
                for clause in &cq.norm.satisfying {
                    agg.score_in(&ev, &value, &clause.conds);
                }
                agg.excluded_in(&ev, &value);
            }
            assert!(!ev.is_built(), "{q}");
            assert!(!agg.always_consults_document(), "{q}");
            assert!(
                !agg.bounds_consult_vocabulary() || q.contains("contains"),
                "{q}"
            );
        }
        // …and the first document-consulting condition does build it.
        let (cq, embed) = setup(koko_lang::queries::EXAMPLE_2_3);
        let agg = Aggregator::new(&cq, embed, AggOpts::default());
        let article = Article::Corpus(&d);
        let ev = agg.evidence(&article);
        agg.score_in(&ev, "Copper Kettle Cafe", &cq.norm.satisfying[0].conds);
        assert!(ev.is_built());
        assert!(agg.bounds_consult_vocabulary());
        assert!(agg.always_consults_document());
    }
}
