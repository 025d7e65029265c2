//! LoadArticle at sentence granularity: the one article type the executor
//! reads a candidate document through.
//!
//! DPLI names a few sentences of each candidate article, so that is what a
//! store-backed query decodes ([`koko_storage::ArticleView`]). The rest of
//! the article is decoded only when a clause asks for evidence across the
//! whole document ([`Article::whole`], reached through
//! [`DocEvidence`](crate::aggregate::DocEvidence)) — or up front, when the
//! query is known to ask for it on every document.

use koko_nlp::{Document, Sentence};
use koko_storage::{ArticleView, DecodeError, SentenceCursor};
use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::time::{Duration, Instant};

/// What [`Article::whole`] hands out after a failed completion; the failure
/// itself is reported by [`Article::finish`].
static EMPTY: Document = Document {
    id: 0,
    sentences: Vec::new(),
};

/// One candidate document, as much of it as the query has needed so far.
pub(crate) enum Article<'a> {
    /// `store_backed: false`: a parsed document of the in-memory corpus.
    Corpus(&'a Document),
    /// An encoded article of the shard's store.
    Stored(Stored<'a>),
}

pub(crate) struct Stored<'a> {
    view: ArticleView<'a>,
    /// Walks the sentence frames once, in step with the ascending
    /// candidate sentences.
    cursor: SentenceCursor<'a>,
    /// The full decode, once something asked for it.
    whole: OnceCell<Result<Document, DecodeError>>,
    /// Sentences decoded one by one through `cursor`.
    decoded_singly: usize,
    /// Time a lazy [`Article::whole`] spent decoding.
    completion: Cell<Duration>,
}

/// The decode work one article cost, reported by [`Article::finish`].
pub(crate) struct Loaded {
    /// `Sentence` decodes performed (a completed article counts all of its
    /// sentences, on top of any decoded singly before).
    pub sentences_decoded: usize,
    /// Time spent completing the article lazily — inside the satisfying
    /// stage, but LoadArticle work.
    pub completion: Duration,
}

impl<'a> Article<'a> {
    /// An article of the store. `whole` decodes all of it now and skips
    /// the frame walk — for queries that would complete it anyway.
    pub(crate) fn stored(view: ArticleView<'a>, whole: bool) -> Result<Article<'a>, DecodeError> {
        let cell = OnceCell::new();
        if whole {
            let _ = cell.set(Ok(view.document()?));
        }
        Ok(Article::Stored(Stored {
            view,
            cursor: view.cursor(),
            whole: cell,
            decoded_singly: 0,
            completion: Cell::new(Duration::ZERO),
        }))
    }

    /// Sentence `i` of the article. Ask in ascending order: a stored
    /// article decodes it off a forward cursor. A sentence the article
    /// does not hold is an error naming `i` and the count present.
    pub(crate) fn sentence(&mut self, i: u32) -> Result<Cow<'_, Sentence>, DecodeError> {
        let doc: &Document = match self {
            Article::Corpus(doc) => doc,
            Article::Stored(s) => match s.whole.get() {
                Some(Ok(doc)) => doc,
                _ => {
                    let sentence = s.cursor.decode(i)?;
                    s.decoded_singly += 1;
                    return Ok(Cow::Owned(sentence));
                }
            },
        };
        doc.sentences
            .get(i as usize)
            .map(Cow::Borrowed)
            .ok_or_else(|| {
                DecodeError(format!(
                    "sentence {i} wanted, {} present",
                    doc.sentences.len()
                ))
            })
    }

    /// The whole document, decoding what is missing on first use. A decode
    /// failure yields an empty document here and the error from
    /// [`Article::finish`], so the scoring kernel stays infallible.
    pub(crate) fn whole(&self) -> &Document {
        match self {
            Article::Corpus(doc) => doc,
            Article::Stored(s) => s
                .whole
                .get_or_init(|| {
                    let t = Instant::now();
                    let doc = s.view.document();
                    s.completion.set(t.elapsed());
                    doc
                })
                .as_ref()
                .unwrap_or(&EMPTY),
        }
    }

    /// Drop whatever was decoded and report what it cost.
    pub(crate) fn finish(self) -> Result<Loaded, DecodeError> {
        let mut loaded = Loaded {
            sentences_decoded: 0,
            completion: Duration::ZERO,
        };
        if let Article::Stored(s) = self {
            loaded.sentences_decoded = s.decoded_singly;
            loaded.completion = s.completion.get();
            if let Some(whole) = s.whole.into_inner() {
                loaded.sentences_decoded += whole?.sentences.len();
            }
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koko_storage::Codec;

    fn blob() -> Vec<u8> {
        koko_nlp::Pipeline::new()
            .parse_document(3, "Anna ate cake. The cafe was busy. Bob left early.")
            .to_bytes()
    }

    #[test]
    fn candidates_then_lazy_completion_count_every_decode() {
        let blob = blob();
        let doc = Document::from_bytes(&blob).unwrap();
        let view = ArticleView::new(&blob).unwrap();

        let mut article = Article::stored(view, false).unwrap();
        assert_eq!(*article.sentence(1).unwrap(), doc.sentences[1]);
        assert!(article.sentence(3).is_err());
        assert_eq!(article.finish().unwrap().sentences_decoded, 1);

        let mut article = Article::stored(view, false).unwrap();
        assert_eq!(*article.sentence(0).unwrap(), doc.sentences[0]);
        assert_eq!(article.whole(), &doc);
        // Once whole, sentences are borrowed from it.
        assert!(matches!(article.sentence(2).unwrap(), Cow::Borrowed(_)));
        assert_eq!(article.finish().unwrap().sentences_decoded, 1 + 3);

        let mut article = Article::stored(view, true).unwrap();
        assert!(matches!(article.sentence(2).unwrap(), Cow::Borrowed(_)));
        assert_eq!(article.finish().unwrap().sentences_decoded, 3);

        let mut article = Article::Corpus(&doc);
        assert_eq!(*article.sentence(2).unwrap(), doc.sentences[2]);
        assert!(article.sentence(3).is_err());
        assert_eq!(article.finish().unwrap().sentences_decoded, 0);
    }

    #[test]
    fn a_failed_completion_surfaces_at_finish() {
        let mut blob = blob();
        blob.pop();
        let view = ArticleView::new(&blob).unwrap();
        assert!(Article::stored(view, true).is_err());
        let mut article = Article::stored(view, false).unwrap();
        assert!(article.sentence(0).is_ok());
        assert!(article.whole().sentences.is_empty());
        assert!(article.finish().is_err());
    }
}
