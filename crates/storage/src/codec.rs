//! Binary serialization for the KOKO data model.
//!
//! A small hand-rolled format (varint-free, little-endian, length-prefixed)
//! chosen over a general-purpose serializer so decode cost is predictable —
//! the Table 2 `LoadArticle` stage measures exactly this path.

use bytes::{BufMut, BytesMut};
use koko_nlp::{
    Document, EntityMention, EntityPosting, EntityType, ParseLabel, PosTag, Posting, Sentence,
    Token,
};
use std::fmt;

/// Decoding failure (truncation, bad tag, trailing bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err<T>(msg: &str) -> Result<T, DecodeError> {
    Err(DecodeError(msg.to_string()))
}

/// Binary encode/decode. Implemented for primitives, containers, and the
/// whole `koko-nlp` data model.
pub trait Codec: Sized {
    fn encode(&self, buf: &mut BytesMut);
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError>;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.to_vec()
    }

    /// Convenience: decode a whole buffer, requiring full consumption.
    fn from_bytes(mut input: &[u8]) -> Result<Self, DecodeError> {
        let v = Self::decode(&mut input)?;
        if !input.is_empty() {
            return err("trailing bytes");
        }
        Ok(v)
    }
}

pub(crate) fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if input.len() < n {
        return err("unexpected end of input");
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

macro_rules! impl_codec_le {
    ($t:ty, $put:ident, $n:expr) => {
        impl Codec for $t {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                let b = take(input, $n)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized slice")))
            }
        }
    };
}

impl_codec_le!(u16, put_u16_le, 2);
impl_codec_le!(u32, put_u32_le, 4);
impl_codec_le!(u64, put_u64_le, 8);
impl_codec_le!(f32, put_f32_le, 4);
impl_codec_le!(f64, put_f64_le, 8);

impl Codec for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(take(input, 1)?[0])
    }
}

impl Codec for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => err("invalid bool"),
        }
    }
}

impl Codec for String {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        buf.put_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u32::decode(input)? as usize;
        let b = take(input, len)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError("invalid utf8".into()))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u32::decode(input)? as usize;
        // Guard against corrupt huge lengths: cap the pre-allocation.
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            _ => err("invalid option tag"),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

macro_rules! impl_codec_enum {
    ($t:ty) => {
        impl Codec for $t {
            fn encode(&self, buf: &mut BytesMut) {
                buf.put_u8(*self as u8);
            }
            fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                let v = take(input, 1)?[0] as usize;
                <$t>::ALL
                    .get(v)
                    .copied()
                    .ok_or_else(|| DecodeError(format!("invalid {} tag {v}", stringify!($t))))
            }
        }
    };
}

impl_codec_enum!(PosTag);
impl_codec_enum!(ParseLabel);
impl_codec_enum!(EntityType);

impl Codec for Token {
    fn encode(&self, buf: &mut BytesMut) {
        self.text.encode(buf);
        self.pos.encode(buf);
        self.label.encode(buf);
        self.head.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let text = String::decode(input)?;
        let mut t = Token::new(text);
        t.pos = PosTag::decode(input)?;
        t.label = ParseLabel::decode(input)?;
        t.head = Option::<u32>::decode(input)?;
        Ok(t)
    }
}

impl Codec for EntityMention {
    fn encode(&self, buf: &mut BytesMut) {
        self.start.encode(buf);
        self.end.encode(buf);
        self.etype.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(EntityMention {
            start: u32::decode(input)?,
            end: u32::decode(input)?,
            etype: EntityType::decode(input)?,
        })
    }
}

impl Codec for Sentence {
    fn encode(&self, buf: &mut BytesMut) {
        self.tokens.encode(buf);
        self.entities.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Sentence {
            tokens: Vec::decode(input)?,
            entities: Vec::decode(input)?,
        })
    }
}

impl Codec for Document {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.sentences.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Document {
            id: u32::decode(input)?,
            sentences: Vec::decode(input)?,
        })
    }
}

impl Codec for Posting {
    fn encode(&self, buf: &mut BytesMut) {
        self.sid.encode(buf);
        self.tid.encode(buf);
        self.left.encode(buf);
        self.right.encode(buf);
        self.depth.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Posting {
            sid: u32::decode(input)?,
            tid: u32::decode(input)?,
            left: u32::decode(input)?,
            right: u32::decode(input)?,
            depth: u16::decode(input)?,
        })
    }
}

impl Codec for EntityPosting {
    fn encode(&self, buf: &mut BytesMut) {
        self.sid.encode(buf);
        self.left.encode(buf);
        self.right.encode(buf);
        self.etype.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(EntityPosting {
            sid: u32::decode(input)?,
            left: u32::decode(input)?,
            right: u32::decode(input)?,
            etype: EntityType::decode(input)?,
        })
    }
}

/// FNV-1a 64-bit hash — the snapshot container's section and table
/// checksum. Chosen over CRC for simplicity (no table) while still
/// catching truncation and bit flips; collision resistance is not a goal.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use koko_nlp::Pipeline;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives() {
        round_trip(&42u8);
        round_trip(&0xBEEFu16);
        round_trip(&0xDEADBEEFu32);
        round_trip(&u64::MAX);
        round_trip(&3.25f64);
        round_trip(&true);
        round_trip(&"héllo wörld".to_string());
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Some(7u32));
        round_trip(&Option::<u32>::None);
        round_trip(&(3u32, "x".to_string()));
    }

    #[test]
    fn enums() {
        for t in PosTag::ALL {
            round_trip(&t);
        }
        for l in ParseLabel::ALL {
            round_trip(&l);
        }
        for e in EntityType::ALL {
            round_trip(&e);
        }
    }

    #[test]
    fn document_round_trip() {
        let p = Pipeline::new();
        let doc = p.parse_document(
            9,
            "Anna ate some delicious cheesecake that she bought at a grocery store. She was happy.",
        );
        round_trip(&doc);
    }

    #[test]
    fn posting_round_trip() {
        round_trip(&Posting {
            sid: 1,
            tid: 2,
            left: 0,
            right: 12,
            depth: 3,
        });
    }

    #[test]
    fn truncated_input_errors() {
        let doc = Document::default();
        let bytes = doc.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Document::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_enum_tag_errors() {
        assert!(PosTag::from_bytes(&[200]).is_err());
    }
}
