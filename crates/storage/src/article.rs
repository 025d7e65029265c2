//! A borrowed view of one encoded article: decode the sentences a query
//! names, step over the rest.
//!
//! The [`Document`] encoding (see [`crate::codec`]) carries no offsets, but
//! every frame in it is self-delimiting, so a reader can measure a
//! [`Sentence`] without materializing it:
//!
//! ```text
//! Document  = id:u32  n:u32  Sentence × n
//! Sentence  = t:u32  Token × t  e:u32  EntityMention × e
//! Token     = len:u32  text:[u8; len]  pos:u8  label:u8  head
//! head      = 0u8 | 1u8 tid:u32
//! EntityMention = start:u32  end:u32  etype:u8          (9 bytes)
//! ```
//!
//! Stepping over a sentence reads one length per token and one tag byte and
//! allocates nothing — well under a microsecond per article, against
//! several for decoding it (two `String`s per token). That is why the blob
//! needs no per-sentence offset table: the table would save less than the
//! walk costs and add bytes to every snapshot.
//!
//! Frames stepped over are measured, not validated: tag bytes and UTF-8 are
//! checked on the sentences that are decoded. Every length is checked
//! against the bytes that remain, so a truncated or overlong frame is a
//! [`DecodeError`], never an out-of-bounds slice.

use crate::codec::{take, Codec, DecodeError};
use koko_nlp::{Document, Sentence};

/// Bytes of an encoded [`koko_nlp::EntityMention`].
const MENTION_BYTES: usize = 9;
/// Bytes of a token after its text: `pos`, `label` and the `head` tag.
const TOKEN_FIXED_BYTES: usize = 3;

/// One encoded [`Document`], borrowed from its store.
#[derive(Debug, Clone, Copy)]
pub struct ArticleView<'a> {
    blob: &'a [u8],
    id: u32,
    num_sentences: u32,
}

impl<'a> ArticleView<'a> {
    /// Read the document header (`id`, sentence count); the sentence
    /// frames behind it are not touched.
    pub fn new(blob: &'a [u8]) -> Result<ArticleView<'a>, DecodeError> {
        let mut input = blob;
        let (Ok(id), Ok(num_sentences)) = (u32::decode(&mut input), u32::decode(&mut input)) else {
            return Err(DecodeError(format!(
                "document blob too short ({} bytes) for a header",
                blob.len()
            )));
        };
        Ok(ArticleView {
            blob,
            id,
            num_sentences,
        })
    }

    /// The document's id, as stored.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The sentence count the header declares.
    pub fn num_sentences(&self) -> u32 {
        self.num_sentences
    }

    /// A cursor standing before sentence 0.
    pub fn cursor(&self) -> SentenceCursor<'a> {
        SentenceCursor {
            rest: &self.blob[8..],
            next: 0,
            num_sentences: self.num_sentences,
        }
    }

    /// Decode sentence `i` alone, stepping over the ones before it. To
    /// decode several, ask one [`ArticleView::cursor`] for them in
    /// ascending order: the walk then happens once.
    pub fn sentence(&self, i: u32) -> Result<Sentence, DecodeError> {
        self.cursor().decode(i)
    }

    /// Decode the whole article — exactly [`Document::from_bytes`] of the
    /// blob.
    pub fn document(&self) -> Result<Document, DecodeError> {
        Document::from_bytes(self.blob)
    }
}

/// A forward walk over the sentence frames of one [`ArticleView`].
#[derive(Debug, Clone)]
pub struct SentenceCursor<'a> {
    rest: &'a [u8],
    /// Index of the sentence whose frame starts at `rest`.
    next: u32,
    num_sentences: u32,
}

impl SentenceCursor<'_> {
    /// Index of the sentence the cursor stands before.
    pub fn position(&self) -> u32 {
        self.next
    }

    /// Step over the frames before sentence `i`, then decode it. `i` must
    /// not lie behind the cursor nor past the declared sentence count.
    pub fn decode(&mut self, i: u32) -> Result<Sentence, DecodeError> {
        if i >= self.num_sentences || i < self.next {
            return Err(DecodeError(format!(
                "sentence {i} asked of a cursor at {} of {} sentences",
                self.next, self.num_sentences
            )));
        }
        while self.next < i {
            self.skip()?;
        }
        let sentence = Sentence::decode(&mut self.rest)?;
        self.next += 1;
        Ok(sentence)
    }

    /// Step over one sentence frame.
    fn skip(&mut self) -> Result<(), DecodeError> {
        let input = &mut self.rest;
        for _ in 0..u32::decode(input)? {
            let len = u32::decode(input)? as usize;
            let token = take(input, len.saturating_add(TOKEN_FIXED_BYTES))?;
            match token[len + TOKEN_FIXED_BYTES - 1] {
                0 => {}
                1 => {
                    take(input, 4)?;
                }
                tag => return Err(DecodeError(format!("invalid option tag {tag}"))),
            }
        }
        let mentions = u32::decode(input)? as usize;
        take(input, mentions.saturating_mul(MENTION_BYTES))?;
        self.next += 1;
        Ok(())
    }

    /// Step over every remaining frame and require that the blob ends
    /// there, as [`Document::from_bytes`] does.
    pub fn finish(mut self) -> Result<(), DecodeError> {
        while self.next < self.num_sentences {
            self.skip()?;
        }
        if !self.rest.is_empty() {
            return Err(DecodeError(format!(
                "{} trailing bytes after the last sentence",
                self.rest.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koko_nlp::{EntityMention, EntityType, ParseLabel, Pipeline, PosTag, Token};
    use proptest::prelude::*;

    fn parsed(text: &str) -> Vec<u8> {
        Pipeline::new().parse_document(7, text).to_bytes()
    }

    #[test]
    fn cursor_decodes_ascending_subsets_in_one_walk() {
        let blob = parsed("Anna ate cake. The cafe was busy. Bob left early. Go Falcons!");
        let whole = Document::from_bytes(&blob).unwrap();
        let view = ArticleView::new(&blob).unwrap();
        assert_eq!(view.id(), 7);
        assert_eq!(view.num_sentences() as usize, whole.sentences.len());
        let mut cursor = view.cursor();
        assert_eq!(cursor.decode(1).unwrap(), whole.sentences[1]);
        assert_eq!(cursor.position(), 2);
        assert_eq!(cursor.decode(3).unwrap(), whole.sentences[3]);
        // Behind the cursor, and past the end: structured, not a panic.
        assert!(cursor.decode(0).is_err());
        assert!(cursor.decode(4).is_err());
        cursor.finish().unwrap();
    }

    #[test]
    fn a_lowered_sentence_count_is_an_error_not_a_panic() {
        let mut blob = parsed("Anna ate cake. The cafe was busy. Bob left early.");
        blob[4..8].copy_from_slice(&2u32.to_le_bytes());
        let view = ArticleView::new(&blob).unwrap();
        assert!(view.sentence(1).is_ok());
        assert!(view.sentence(2).is_err());
        // The frames the header no longer covers are trailing bytes.
        assert!(view.cursor().finish().is_err());
        assert!(view.document().is_err());
    }

    #[test]
    fn every_truncation_and_overlong_length_is_rejected() {
        let blob = parsed("Anna ate cake. The café — “busy” — was loud. Bob left.");
        let last = ArticleView::new(&blob).unwrap().num_sentences() - 1;
        for cut in 0..blob.len() {
            let short = &blob[..cut];
            let Ok(view) = ArticleView::new(short) else {
                assert!(cut < 8);
                continue;
            };
            assert!(view.sentence(last).is_err(), "cut at {cut}");
            assert!(view.cursor().finish().is_err(), "cut at {cut}");
        }
        // The first token's length prefix (document header, then the first
        // sentence's token count) claims more bytes than the blob holds.
        let mut long = blob.clone();
        long[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let view = ArticleView::new(&long).unwrap();
        assert!(view.sentence(last).is_err());
        assert!(view.sentence(0).is_err());
        // So does a token count, and an entity count.
        let mut long = blob.clone();
        long[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ArticleView::new(&long).unwrap().sentence(last).is_err());
    }

    #[test]
    fn non_utf8_text_fails_where_it_is_decoded() {
        let mut doc = Document {
            id: 1,
            sentences: vec![Sentence::default(), Sentence::default()],
        };
        doc.sentences[0].tokens.push(Token::new("ab"));
        doc.sentences[1].tokens.push(Token::new("cd"));
        let mut blob = doc.to_bytes();
        // Header 8, token count 4, text length 4: sentence 0's text.
        blob[16] = 0xff;
        let view = ArticleView::new(&blob).unwrap();
        assert!(view.sentence(0).is_err());
        assert!(view.document().is_err());
        // Stepped over, the frame is only measured.
        assert_eq!(view.sentence(1).unwrap(), doc.sentences[1]);
    }

    fn token() -> impl Strategy<Value = Token> {
        (
            prop::sample::select(vec![
                "",
                "a",
                "Zoë",
                "“quoted”",
                "naïve café",
                "日本語",
                "x\ty",
            ]),
            0..PosTag::ALL.len(),
            0..ParseLabel::ALL.len(),
            prop_oneof![Just(None), (0u32..40).prop_map(Some)],
        )
            .prop_map(|(text, pos, label, head)| {
                let mut t = Token::new(text);
                t.pos = PosTag::ALL[pos];
                t.label = ParseLabel::ALL[label];
                // `None` everywhere, `Some` everywhere (rootless) and
                // heads past the sentence all occur.
                t.head = head;
                t
            })
    }

    fn sentence() -> impl Strategy<Value = Sentence> {
        (
            prop::collection::vec(token(), 0..6),
            prop::collection::vec((0u32..9, 0u32..9, 0..EntityType::ALL.len()), 0..3),
        )
            .prop_map(|(tokens, mentions)| Sentence {
                tokens,
                entities: mentions
                    .into_iter()
                    .map(|(start, end, etype)| EntityMention {
                        start,
                        end,
                        etype: EntityType::ALL[etype],
                    })
                    .collect(),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The view against the full decode: every sentence alone, every
        /// sentence in one ascending walk, the whole document, and a walk
        /// that ends exactly where the blob does.
        #[test]
        fn view_equals_the_full_decode(
            id in any::<u32>(),
            sentences in prop::collection::vec(sentence(), 0..6),
        ) {
            let doc = Document { id, sentences };
            let blob = doc.to_bytes();
            let view = ArticleView::new(&blob).unwrap();
            prop_assert_eq!(view.id(), id);
            prop_assert_eq!(view.num_sentences() as usize, doc.sentences.len());
            let mut cursor = view.cursor();
            for (i, want) in doc.sentences.iter().enumerate() {
                prop_assert_eq!(&view.sentence(i as u32).unwrap(), want);
                prop_assert_eq!(&cursor.decode(i as u32).unwrap(), want);
            }
            cursor.finish().unwrap();
            view.cursor().finish().unwrap();
            prop_assert!(view.sentence(doc.sentences.len() as u32).is_err());
            prop_assert_eq!(view.document().unwrap(), doc);
        }
    }
}
