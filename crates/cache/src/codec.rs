//! Binary codec for cached payloads.
//!
//! memcached stores opaque bytes; the real CacheGenie pickles Python row
//! lists into it and its triggers unpickle → modify → re-pickle. This
//! module is our equivalent: a small length-prefixed little-endian format
//! with a checksum, over [`Payload`] values (row sets, counts, raw bytes).
//! Trigger bodies pay the same decode-modify-encode cost the paper's do.
//!
//! Every payload ends in a 4-byte checksum of everything before it. It
//! is computed a word at a time, and any change confined to one 4-byte
//! word (so any single corrupted byte) always changes it; a payload from
//! an older format version fails decoding and is refilled, never served.

use crate::error::{CacheError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use genie_storage::{Row, Value};

const MAGIC: u16 = 0xCA6E;
/// Bumped whenever the byte layout or the checksum changes, so entries
/// written in an older format fail decoding and are refilled.
const VERSION: u8 = 2;

/// A typed cache payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// An ordered list of rows (feature/link query results).
    Rows(Vec<Row>),
    /// A scalar count (count-query results).
    Count(i64),
    /// Uninterpreted bytes (application-managed entries).
    Raw(Vec<u8>),
    /// A Top-K list with reserve rows. `complete` records whether the list
    /// covers *every* matching row (total ≤ capacity), which decides
    /// whether a tail append after deletes is sound — the bookkeeping the
    /// paper's reserve mechanism needs.
    TopK {
        /// Rows in sort order, up to K + reserve.
        rows: Vec<Row>,
        /// True iff the list contains every matching database row.
        complete: bool,
    },
}

impl Payload {
    /// Encodes the payload with header and trailing checksum.
    pub fn encode(&self) -> Bytes {
        let len = self.encoded_len();
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION);
        match self {
            Payload::Rows(rows) => {
                buf.put_u8(0);
                buf.put_u32_le(rows.len() as u32);
                for row in rows {
                    encode_row(&mut buf, row);
                }
            }
            Payload::Count(n) => {
                buf.put_u8(1);
                buf.put_i64_le(*n);
            }
            Payload::Raw(bytes) => {
                buf.put_u8(2);
                buf.put_u32_le(bytes.len() as u32);
                buf.put_slice(bytes);
            }
            Payload::TopK { rows, complete } => {
                buf.put_u8(3);
                buf.put_u8(u8::from(*complete));
                buf.put_u32_le(rows.len() as u32);
                for row in rows {
                    encode_row(&mut buf, row);
                }
            }
        }
        let sum = checksum(&buf);
        buf.put_u32_le(sum);
        debug_assert_eq!(buf.len(), len);
        buf.freeze()
    }

    /// Exact length of [`Payload::encode`]'s output.
    fn encoded_len(&self) -> usize {
        const HEADER: usize = 4;
        const TRAILER: usize = 4;
        let body = match self {
            Payload::Rows(rows) => 4 + rows.iter().map(encoded_row_len).sum::<usize>(),
            Payload::Count(_) => 8,
            Payload::Raw(bytes) => 4 + bytes.len(),
            Payload::TopK { rows, .. } => 5 + rows.iter().map(encoded_row_len).sum::<usize>(),
        };
        HEADER + body + TRAILER
    }

    /// Decodes a payload previously produced by [`Payload::encode`].
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] on truncation, bad magic/version, an unknown
    /// tag, or a checksum mismatch.
    pub fn decode(data: &[u8]) -> Result<Payload> {
        if data.len() < 8 {
            return Err(CacheError::Codec("payload too short".into()));
        }
        let (body, sum_bytes) = data.split_at(data.len() - 4);
        let stored = u32::from_le_bytes(sum_bytes.try_into().expect("4 bytes"));
        if checksum(body) != stored {
            return Err(CacheError::Codec("checksum mismatch".into()));
        }
        let mut buf = body;
        let magic = buf.get_u16_le();
        if magic != MAGIC {
            return Err(CacheError::Codec(format!("bad magic {magic:#x}")));
        }
        let version = buf.get_u8();
        if version != VERSION {
            return Err(CacheError::Codec(format!("unsupported version {version}")));
        }
        let tag = buf.get_u8();
        match tag {
            0 => {
                let n = checked_u32(&mut buf, "row count")? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    rows.push(decode_row(&mut buf)?);
                }
                Ok(Payload::Rows(rows))
            }
            1 => {
                if buf.remaining() < 8 {
                    return Err(CacheError::Codec("truncated count".into()));
                }
                Ok(Payload::Count(buf.get_i64_le()))
            }
            2 => {
                let n = checked_u32(&mut buf, "raw length")? as usize;
                if buf.remaining() < n {
                    return Err(CacheError::Codec("truncated raw payload".into()));
                }
                Ok(Payload::Raw(buf[..n].to_vec()))
            }
            3 => {
                if buf.remaining() < 1 {
                    return Err(CacheError::Codec("truncated top-k flag".into()));
                }
                let complete = buf.get_u8() != 0;
                let n = checked_u32(&mut buf, "top-k row count")? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    rows.push(decode_row(&mut buf)?);
                }
                Ok(Payload::TopK { rows, complete })
            }
            other => Err(CacheError::Codec(format!("unknown payload tag {other}"))),
        }
    }

    /// The rows if this is a `Rows` payload.
    pub fn as_rows(&self) -> Option<&[Row]> {
        match self {
            Payload::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// The rows and completeness flag if this is a `TopK` payload.
    pub fn as_top_k(&self) -> Option<(&[Row], bool)> {
        match self {
            Payload::TopK { rows, complete } => Some((rows, *complete)),
            _ => None,
        }
    }

    /// The count if this is a `Count` payload.
    pub fn as_count(&self) -> Option<i64> {
        match self {
            Payload::Count(n) => Some(*n),
            _ => None,
        }
    }
}

fn checked_u32(buf: &mut &[u8], what: &str) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(CacheError::Codec(format!("truncated {what}")));
    }
    Ok(buf.get_u32_le())
}

fn encoded_row_len(row: &Row) -> usize {
    4 + row
        .values()
        .iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 9,
            Value::Text(s) => 5 + s.len(),
        })
        .sum::<usize>()
}

fn encode_row(buf: &mut BytesMut, row: &Row) {
    buf.put_u32_le(row.arity() as u32);
    for v in row.values() {
        encode_value(buf, v);
    }
}

fn decode_row(buf: &mut &[u8]) -> Result<Row> {
    let n = checked_u32(buf, "row arity")? as usize;
    let mut vals = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        vals.push(decode_value(buf)?);
    }
    Ok(Row::new(vals))
}

fn encode_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(x) => {
            buf.put_u8(1);
            buf.put_i64_le(*x);
        }
        Value::Float(x) => {
            buf.put_u8(2);
            buf.put_f64_le(*x);
        }
        Value::Text(s) => {
            buf.put_u8(3);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.put_u8(4);
            buf.put_u8(u8::from(*b));
        }
        Value::Timestamp(t) => {
            buf.put_u8(5);
            buf.put_i64_le(*t);
        }
    }
}

fn decode_value(buf: &mut &[u8]) -> Result<Value> {
    if buf.remaining() < 1 {
        return Err(CacheError::Codec("truncated value tag".into()));
    }
    let tag = buf.get_u8();
    match tag {
        0 => Ok(Value::Null),
        1 => {
            if buf.remaining() < 8 {
                return Err(CacheError::Codec("truncated int".into()));
            }
            Ok(Value::Int(buf.get_i64_le()))
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(CacheError::Codec("truncated float".into()));
            }
            Ok(Value::Float(buf.get_f64_le()))
        }
        3 => {
            let n = checked_u32(buf, "text length")? as usize;
            if buf.remaining() < n {
                return Err(CacheError::Codec("truncated text".into()));
            }
            let s = std::str::from_utf8(&buf[..n])
                .map_err(|_| CacheError::Codec("invalid utf-8 in text".into()))?
                .to_owned();
            buf.advance(n);
            Ok(Value::Text(s))
        }
        4 => {
            if buf.remaining() < 1 {
                return Err(CacheError::Codec("truncated bool".into()));
            }
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        5 => {
            if buf.remaining() < 8 {
                return Err(CacheError::Codec("truncated timestamp".into()));
            }
            Ok(Value::Timestamp(buf.get_i64_le()))
        }
        other => Err(CacheError::Codec(format!("unknown value tag {other}"))),
    }
}

/// The payload checksum: four interleaved 32-bit lanes, each absorbing
/// every fourth little-endian word, then folded together with the length.
///
/// Each step `lane = rotl((lane ^ word) * K, 13)` is a bijection in the
/// word for a fixed lane and in the lane for a fixed word (K is odd), and
/// so is each fold step. Changing any one word therefore changes its lane,
/// every later state, and the result: any single corrupted byte is caught.
/// The independent lanes let the multiplies overlap, so the loop runs
/// several times faster than a byte-at-a-time hash.
fn checksum(data: &[u8]) -> u32 {
    const K: u32 = 0x9E37_79B1;
    fn absorb(lanes: &mut [u32; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            let w = u32::from_le_bytes(word.try_into().expect("4 bytes"));
            *lane = (*lane ^ w).wrapping_mul(K).rotate_left(13);
        }
    }
    let mut lanes = [0x811C_9DC5, 0x0100_0193, 0x85EB_CA6B, 0xC2B2_AE35];
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        absorb(&mut lanes, block);
    }
    let rest = blocks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 16];
        tail[..rest.len()].copy_from_slice(rest);
        absorb(&mut lanes, &tail);
    }
    let mut hash = data.len() as u32;
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(K).rotate_left(13);
    }
    hash ^ (hash >> 16)
}

/// 64-bit hash of a key, used by the consistent-hash ring.
///
/// FNV-1a followed by a splitmix64 finalizer: plain FNV avalanches poorly
/// in the upper bits for near-identical strings (e.g. `server0#vnode1` vs
/// `server0#vnode2`), which would leave the ring badly unbalanced.
pub fn hash_key(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in key.as_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    // splitmix64 finalizer.
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58476d1ce4e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d049bb133111eb);
    hash ^ (hash >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_storage::row;

    #[test]
    fn rows_roundtrip() {
        let p = Payload::Rows(vec![
            row![1i64, "alice", true, 2.5f64],
            row![Value::Null, Value::Timestamp(99)],
        ]);
        let enc = p.encode();
        assert_eq!(Payload::decode(&enc).unwrap(), p);
    }

    #[test]
    fn count_roundtrip() {
        for n in [0i64, -5, i64::MAX, i64::MIN] {
            let p = Payload::Count(n);
            assert_eq!(Payload::decode(&p.encode()).unwrap(), p);
        }
    }

    #[test]
    fn raw_roundtrip() {
        let p = Payload::Raw(vec![0, 1, 2, 255]);
        assert_eq!(Payload::decode(&p.encode()).unwrap(), p);
        let empty = Payload::Raw(vec![]);
        assert_eq!(Payload::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn empty_rows_roundtrip() {
        let p = Payload::Rows(vec![]);
        assert_eq!(Payload::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn corruption_detected() {
        let p = Payload::Count(42);
        let mut bytes = p.encode().to_vec();
        bytes[5] ^= 0xFF;
        assert!(matches!(Payload::decode(&bytes), Err(CacheError::Codec(_))));
    }

    #[test]
    fn truncation_detected() {
        let p = Payload::Rows(vec![row![1i64]]);
        let bytes = p.encode();
        for cut in 0..bytes.len() {
            assert!(
                Payload::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes should not decode"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let p = Payload::Count(1);
        let mut bytes = p.encode().to_vec();
        bytes[0] = 0;
        // Fix up checksum so only the magic check can fail.
        let body_len = bytes.len() - 4;
        let sum = checksum(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = Payload::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    /// Every byte of every payload shape, flipped under several masks,
    /// must fail decoding: the checksum covers each byte on its own.
    #[test]
    fn every_single_byte_corruption_detected() {
        let rows = vec![
            row![1i64, "alice", true, 2.5f64],
            row![Value::Null, Value::Timestamp(99), "a longer text value!"],
            row![-7i64, "", false],
        ];
        let payloads = [
            Payload::Rows(rows.clone()),
            Payload::TopK {
                rows,
                complete: false,
            },
        ];
        for p in payloads {
            let enc = p.encode().to_vec();
            assert_eq!(Payload::decode(&enc).unwrap(), p);
            for i in 0..enc.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut bad = enc.clone();
                    bad[i] ^= mask;
                    assert!(
                        matches!(Payload::decode(&bad), Err(CacheError::Codec(_))),
                        "byte {i} ^ {mask:#x} of {} bytes went undetected",
                        enc.len()
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_roundtrip() {
        for complete in [true, false] {
            let p = Payload::TopK {
                rows: vec![row![1i64, "a"], row![2i64, "b"]],
                complete,
            };
            assert_eq!(Payload::decode(&p.encode()).unwrap(), p);
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Payload::Count(3).as_count(), Some(3));
        assert_eq!(Payload::Count(3).as_rows(), None);
        let rows = Payload::Rows(vec![row![1i64]]);
        assert_eq!(rows.as_rows().unwrap().len(), 1);
        assert_eq!(rows.as_count(), None);
        let tk = Payload::TopK {
            rows: vec![row![1i64]],
            complete: true,
        };
        assert!(tk.as_top_k().unwrap().1);
        assert!(rows.as_top_k().is_none());
    }

    #[test]
    fn hash_key_is_stable_and_spread() {
        let a = hash_key("LatestWallPostsOfUser:42");
        let b = hash_key("LatestWallPostsOfUser:43");
        assert_ne!(a, b);
        assert_eq!(a, hash_key("LatestWallPostsOfUser:42"));
    }
}
