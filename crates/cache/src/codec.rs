//! Binary codec for cached payloads.
//!
//! memcached stores opaque bytes; the real CacheGenie pickles Python row
//! lists into it and its triggers unpickle → modify → re-pickle. This
//! module is our equivalent: a small length-prefixed little-endian format
//! with a checksum, over [`Payload`] values (row sets, counts, raw bytes).
//! Trigger bodies do not decode the lists they maintain: [`EncodedList`]
//! edits a cached list in its encoded form, copying the rows it keeps and
//! encoding only the rows it adds. The paper's decode-modify-encode cost
//! is modelled by the cost-model counters (cache operations and
//! connection opens charged per firing), which do not depend on how the
//! bytes are edited.
//!
//! Every payload ends in a 4-byte checksum of everything before it. It
//! is computed a word at a time, and any change confined to one 4-byte
//! word (so any single corrupted byte) always changes it; a payload from
//! an older format version fails decoding and is refilled, never served.

use crate::error::{CacheError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use genie_storage::{Row, Value};
use std::cell::Cell;
use std::ops::Range;

const MAGIC: u16 = 0xCA6E;
/// Bumped whenever the byte layout or the checksum changes, so entries
/// written in an older format fail decoding and are refilled.
const VERSION: u8 = 2;
/// Payload tags of the two list shapes.
const TAG_ROWS: u8 = 0;
const TAG_TOP_K: u8 = 3;

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
        let mut buf = start(len);
        match self {
            Payload::Rows(rows) => {
                put_list_header(&mut buf, None, rows.len());
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
                put_list_header(&mut buf, Some(*complete), rows.len());
                for row in rows {
                    encode_row(&mut buf, row);
                }
            }
        }
        seal(buf, len)
    }

    /// Exact length of [`Payload::encode`]'s output.
    fn encoded_len(&self) -> usize {
        let rows_len = |rows: &[Row]| rows.iter().map(encoded_row_len).sum::<usize>();
        match self {
            Payload::Rows(rows) => list_header_len(None) + rows_len(rows) + TRAILER,
            Payload::Count(_) => 4 + 8 + TRAILER,
            Payload::Raw(bytes) => 4 + 4 + bytes.len() + TRAILER,
            Payload::TopK { rows, .. } => list_header_len(Some(true)) + rows_len(rows) + TRAILER,
        }
    }

    /// Decodes a payload previously produced by [`Payload::encode`].
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] on truncation, trailing bytes, bad
    /// magic/version, an unknown tag, or a checksum mismatch.
    pub fn decode(data: &[u8]) -> Result<Payload> {
        let mut buf = verified_body(data)?;
        buf.advance(3);
        let tag = buf.get_u8();
        let payload = match tag {
            TAG_ROWS => {
                let n = checked_u32(&mut buf, "row count")? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    rows.push(decode_row(&mut buf)?);
                }
                Payload::Rows(rows)
            }
            1 => {
                if buf.remaining() < 8 {
                    return Err(CacheError::Codec("truncated count".into()));
                }
                Payload::Count(buf.get_i64_le())
            }
            2 => {
                let n = checked_u32(&mut buf, "raw length")? as usize;
                if buf.remaining() < n {
                    return Err(CacheError::Codec("truncated raw payload".into()));
                }
                let raw = buf[..n].to_vec();
                buf.advance(n);
                Payload::Raw(raw)
            }
            TAG_TOP_K => {
                if buf.remaining() < 1 {
                    return Err(CacheError::Codec("truncated top-k flag".into()));
                }
                let complete = buf.get_u8() != 0;
                let n = checked_u32(&mut buf, "top-k row count")? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    rows.push(decode_row(&mut buf)?);
                }
                Payload::TopK { rows, complete }
            }
            other => return Err(CacheError::Codec(format!("unknown payload tag {other}"))),
        };
        if !buf.is_empty() {
            return Err(CacheError::Codec("trailing bytes after payload".into()));
        }
        Ok(payload)
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

/// An edited list: its encoded payload and its row count.
#[derive(Debug, Clone)]
pub struct Edited {
    /// The payload, in the format [`Payload::encode`] writes.
    pub data: Bytes,
    /// Rows in the edited list.
    pub len: usize,
}

/// A cached `Rows` or `TopK` payload edited in its encoded form.
///
/// [`EncodedList::parse`] verifies the checksum, magic and version once,
/// then walks the value tags and lengths to find where each row starts.
/// The walk accepts exactly what [`Payload::decode`] accepts (UTF-8 text
/// included) but builds no `Value`s. Each edit copies the bytes of the
/// rows it keeps, encodes only the rows it adds, and seals the result
/// with a fresh checksum: the output is byte-for-byte what `encode` gives
/// for the decoded list with the same edit applied, so the format and
/// its version stay as they are.
///
/// Edits that compare rows decode only the compared columns (the primary
/// key, the rank column, or a link-target slice) and compare them as
/// `Value`s, never as raw bytes: `Int(2)` equals `Float(2.0)` though
/// their encodings differ. [`EncodedList::values_decoded`] counts them.
/// As in [`Row::get`], a column past a row's end reads as `NULL`.
#[derive(Debug)]
pub struct EncodedList {
    data: Bytes,
    /// `Some(complete)` for a Top-K list, `None` for plain rows.
    complete: Option<bool>,
    /// Byte offset of each row, then the end of the last row.
    bounds: Vec<usize>,
    decoded: Cell<u64>,
}

/// A run of an edited list's rows.
enum Part<'r> {
    /// Original rows, copied verbatim.
    Copy(Range<usize>),
    /// A new row, encoded afresh.
    New(&'r Row),
    /// An original row's leading values (`keep` of them, at the byte range
    /// `values`), followed by `tail` in place of the rest.
    Rebase {
        values: Range<usize>,
        keep: usize,
        tail: &'r [Value],
    },
}

/// The rows of an edited list, as parts in output order.
#[derive(Default)]
struct Splice<'r> {
    parts: Vec<Part<'r>>,
    len: usize,
}

impl<'r> Splice<'r> {
    /// Appends original rows, merging with a preceding adjacent run.
    fn copy(&mut self, rows: Range<usize>) {
        if rows.is_empty() {
            return;
        }
        self.len += rows.len();
        if let Some(Part::Copy(last)) = self.parts.last_mut() {
            if last.end == rows.start {
                last.end = rows.end;
                return;
            }
        }
        self.parts.push(Part::Copy(rows));
    }

    /// Appends one new or rebased row.
    fn push(&mut self, part: Part<'r>) {
        self.len += 1;
        self.parts.push(part);
    }
}

impl EncodedList {
    /// Verifies an encoded payload and locates its rows. `Ok(None)` means
    /// the payload is valid but not a list (a count or raw bytes).
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] wherever [`Payload::decode`] would fail.
    pub fn parse(data: Bytes) -> Result<Option<EncodedList>> {
        let body = verified_body(&data)?;
        let complete = match body[3] {
            TAG_ROWS => None,
            TAG_TOP_K => Some(*body.get(4).ok_or_else(|| truncated("top-k flag"))? != 0),
            _ => return Payload::decode(&data).map(|_| None),
        };
        let mut at = list_header_len(complete);
        let n = read_u32(body, at - 4, "row count")? as usize;
        // Every row takes at least its 4-byte arity.
        if n > (body.len() - at) / 4 {
            return Err(truncated("rows"));
        }
        let mut bounds = Vec::with_capacity(n + 1);
        for _ in 0..n {
            bounds.push(at);
            let arity = read_u32(body, at, "row arity")?;
            at += 4;
            for _ in 0..arity {
                let end = value_end(body, at).ok_or_else(malformed)?;
                if body[at] == 3 {
                    let text = &body[at + 5..end];
                    if !text.is_ascii() && std::str::from_utf8(text).is_err() {
                        return Err(CacheError::Codec("invalid utf-8 in text".into()));
                    }
                }
                at = end;
            }
        }
        if at != body.len() {
            return Err(CacheError::Codec("trailing bytes after payload".into()));
        }
        bounds.push(at);
        Ok(Some(EncodedList {
            data,
            complete,
            bounds,
            decoded: Cell::new(0),
        }))
    }

    /// The list as parsed, as an edit that changes nothing.
    pub fn unchanged(&self) -> Edited {
        Edited {
            data: self.data.clone(),
            len: self.len(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// True if the list has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Some(complete)` for a Top-K list, `None` for a plain row list.
    pub fn top_k_complete(&self) -> Option<bool> {
        self.complete
    }

    /// Values decoded so far to compare rows.
    pub fn values_decoded(&self) -> u64 {
        self.decoded.get()
    }

    /// Appends `rows` at the end.
    pub fn append(&self, rows: &[Row]) -> Edited {
        let mut splice = Splice::default();
        splice.copy(0..self.len());
        for row in rows {
            splice.push(Part::New(row));
        }
        self.emit(self.complete, &splice)
    }

    /// Removes every row whose first column (the primary key) equals
    /// `pk`. `None` when no row does.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if a compared value fails to decode.
    pub fn remove_pk(&self, pk: &Value) -> Result<Option<Edited>> {
        let hits = self.rows_with_pk(pk)?;
        Ok((!hits.is_empty()).then(|| self.remove(&hits)))
    }

    /// Replaces the first row whose primary key equals `row`'s with `row`,
    /// or appends `row` when no row has that key.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if a compared value fails to decode.
    pub fn upsert_pk(&self, row: &Row) -> Result<Edited> {
        let pk = row.get(0);
        for i in 0..self.len() {
            if self.value_at(i, 0)? == *pk {
                let splice = self.rewrite([(i, Some(Part::New(row)))]);
                return Ok(self.emit(self.complete, &splice));
            }
        }
        Ok(self.append(std::slice::from_ref(row)))
    }

    /// Removes every row whose values from column `from` on equal
    /// `target` (a link object's joined target row). `None` when no row
    /// matches.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if a compared value fails to decode.
    pub fn remove_slice(&self, from: usize, target: &[Value]) -> Result<Option<Edited>> {
        let hits: Vec<usize> = self
            .slice_matches(from, target)?
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        Ok((!hits.is_empty()).then(|| self.remove(&hits)))
    }

    /// In every row whose values from column `from` on equal `old`,
    /// replaces those values with `new`, keeping the leading ones. `None`
    /// when no row matches.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if a compared value fails to decode.
    pub fn replace_slice(
        &self,
        from: usize,
        old: &[Value],
        new: &[Value],
    ) -> Result<Option<Edited>> {
        let hits = self.slice_matches(from, old)?;
        if hits.is_empty() {
            return Ok(None);
        }
        let splice = self.rewrite(hits.into_iter().map(|(i, split)| {
            let values = self.bounds[i] + 4..split;
            let part = Part::Rebase {
                values,
                keep: from,
                tail: new,
            };
            (i, Some(part))
        }));
        Ok(Some(self.emit(self.complete, &splice)))
    }

    /// Top-K ordered insert: places `row` before the first cached row it
    /// ranks ahead of (`ranks_ahead` is given that row's column
    /// `rank_col`), after first dropping the rows whose primary key equals
    /// `replacing` (the row's old image, on an update).
    ///
    /// Returns `None` when `row` ranks behind every remaining row and the
    /// list is incomplete: it may or may not belong at the tail, so the
    /// list is left alone. Otherwise the list is cut to `capacity` rows,
    /// and a cut clears the completeness flag.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if a compared value fails to decode.
    pub fn top_k_insert(
        &self,
        row: &Row,
        rank_col: usize,
        ranks_ahead: impl Fn(&Value) -> bool,
        capacity: usize,
        replacing: Option<&Value>,
    ) -> Result<Option<Edited>> {
        let skipped = match replacing {
            Some(pk) => self.rows_with_pk(pk)?,
            None => Vec::new(),
        };
        let kept: Vec<usize> = (0..self.len()).filter(|i| !skipped.contains(i)).collect();
        let mut pos = kept.len();
        for (p, &i) in kept.iter().enumerate() {
            if ranks_ahead(&self.value_at(i, rank_col)?) {
                pos = p;
                break;
            }
        }
        let complete = self.complete.unwrap_or(false);
        if pos == kept.len() && !complete {
            return Ok(None);
        }
        // The kept rows with the new one (`None`) at `pos`, cut to capacity.
        let (before, after) = kept.split_at(pos);
        let order = before
            .iter()
            .map(Some)
            .chain([None])
            .chain(after.iter().map(Some));
        let complete = complete && kept.len() < capacity;
        let mut splice = Splice::default();
        for i in order.take(capacity) {
            match i {
                Some(&i) => splice.copy(i..i + 1),
                None => splice.push(Part::New(row)),
            }
        }
        Ok(Some(self.emit(self.complete.map(|_| complete), &splice)))
    }

    /// The payload without its checksum.
    fn body(&self) -> &[u8] {
        &self.data[..self.data.len() - TRAILER]
    }

    /// Decodes column `col` of row `row` (`NULL` past the row's end).
    fn value_at(&self, row: usize, col: usize) -> Result<Value> {
        let body = self.body();
        let start = self.bounds[row];
        if col >= read_u32(body, start, "row arity")? as usize {
            return Ok(Value::Null);
        }
        let mut at = start + 4;
        for _ in 0..col {
            at = value_end(body, at).ok_or_else(malformed)?;
        }
        self.decoded.set(self.decoded.get() + 1);
        decode_value(&mut &body[at..])
    }

    /// Rows whose primary key equals `pk`, in order.
    fn rows_with_pk(&self, pk: &Value) -> Result<Vec<usize>> {
        let mut hits = Vec::new();
        for i in 0..self.len() {
            if self.value_at(i, 0)? == *pk {
                hits.push(i);
            }
        }
        Ok(hits)
    }

    /// Rows whose values from column `from` on equal `target`, with the
    /// byte offset where that slice starts.
    fn slice_matches(&self, from: usize, target: &[Value]) -> Result<Vec<(usize, usize)>> {
        let body = self.body();
        let mut hits = Vec::new();
        'rows: for i in 0..self.len() {
            let start = self.bounds[i];
            let arity = read_u32(body, start, "row arity")? as usize;
            if arity.checked_sub(from) != Some(target.len()) {
                continue;
            }
            let mut at = start + 4;
            for _ in 0..from {
                at = value_end(body, at).ok_or_else(malformed)?;
            }
            let split = at;
            for want in target {
                let mut buf = &body[at..];
                self.decoded.set(self.decoded.get() + 1);
                if decode_value(&mut buf)? != *want {
                    continue 'rows;
                }
                at = body.len() - buf.len();
            }
            hits.push((i, split));
        }
        Ok(hits)
    }

    /// The original rows in order, with each row of `edits` (ascending)
    /// replaced by its part, or dropped when that is `None`.
    fn rewrite<'r>(
        &self,
        edits: impl IntoIterator<Item = (usize, Option<Part<'r>>)>,
    ) -> Splice<'r> {
        let mut splice = Splice::default();
        let mut next = 0;
        for (i, part) in edits {
            splice.copy(next..i);
            if let Some(part) = part {
                splice.push(part);
            }
            next = i + 1;
        }
        splice.copy(next..self.len());
        splice
    }

    /// The list without the rows `hits` (ascending).
    fn remove(&self, hits: &[usize]) -> Edited {
        let splice = self.rewrite(hits.iter().map(|&i| (i, None)));
        self.emit(self.complete, &splice)
    }

    /// Writes the edited list: header, parts, checksum.
    fn emit(&self, complete: Option<bool>, splice: &Splice<'_>) -> Edited {
        let run = |rows: &Range<usize>| self.bounds[rows.start]..self.bounds[rows.end];
        let rows_len: usize = splice
            .parts
            .iter()
            .map(|part| match part {
                Part::Copy(rows) => run(rows).len(),
                Part::New(row) => encoded_row_len(row),
                Part::Rebase { values, tail, .. } => {
                    4 + values.len() + tail.iter().map(encoded_value_len).sum::<usize>()
                }
            })
            .sum();
        let len = list_header_len(complete) + rows_len + TRAILER;
        let mut buf = start(len);
        put_list_header(&mut buf, complete, splice.len);
        for part in &splice.parts {
            match part {
                Part::Copy(rows) => buf.put_slice(&self.data[run(rows)]),
                Part::New(row) => encode_row(&mut buf, row),
                Part::Rebase { values, keep, tail } => {
                    buf.put_u32_le((keep + tail.len()) as u32);
                    buf.put_slice(&self.data[values.clone()]);
                    for v in *tail {
                        encode_value(&mut buf, v);
                    }
                }
            }
        }
        Edited {
            data: seal(buf, len),
            len: splice.len,
        }
    }
}

/// Bytes after the payload body: the checksum.
const TRAILER: usize = 4;

/// Magic, version and tag; then for a list the Top-K completeness flag
/// and the row count.
fn list_header_len(complete: Option<bool>) -> usize {
    4 + usize::from(complete.is_some()) + 4
}

/// A buffer for a `len`-byte payload, holding its magic and version.
fn start(len: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u16_le(MAGIC);
    buf.put_u8(VERSION);
    buf
}

fn put_list_header(buf: &mut BytesMut, complete: Option<bool>, rows: usize) {
    match complete {
        None => buf.put_u8(TAG_ROWS),
        Some(complete) => {
            buf.put_u8(TAG_TOP_K);
            buf.put_u8(u8::from(complete));
        }
    }
    buf.put_u32_le(rows as u32);
}

/// Appends the checksum to a payload body `len - TRAILER` bytes long.
fn seal(mut buf: BytesMut, len: usize) -> Bytes {
    let sum = checksum(&buf);
    buf.put_u32_le(sum);
    debug_assert_eq!(buf.len(), len);
    buf.freeze()
}

/// Checks the checksum, magic and version; returns the payload without
/// its checksum (from the magic on).
fn verified_body(data: &[u8]) -> Result<&[u8]> {
    if data.len() < 4 + TRAILER {
        return Err(CacheError::Codec("payload too short".into()));
    }
    let (body, sum_bytes) = data.split_at(data.len() - TRAILER);
    let stored = u32::from_le_bytes(sum_bytes.try_into().expect("4 bytes"));
    if checksum(body) != stored {
        return Err(CacheError::Codec("checksum mismatch".into()));
    }
    let magic = u16::from_le_bytes([body[0], body[1]]);
    if magic != MAGIC {
        return Err(CacheError::Codec(format!("bad magic {magic:#x}")));
    }
    if body[2] != VERSION {
        return Err(CacheError::Codec(format!(
            "unsupported version {}",
            body[2]
        )));
    }
    Ok(body)
}

fn truncated(what: &str) -> CacheError {
    CacheError::Codec(format!("truncated {what}"))
}

fn read_u32(body: &[u8], at: usize, what: &str) -> Result<u32> {
    let bytes = body.get(at..at + 4).ok_or_else(|| truncated(what))?;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

/// Where the value encoded at `at` ends; `None` if its tag is unknown or
/// it runs past `body`.
#[inline]
fn value_end(body: &[u8], at: usize) -> Option<usize> {
    let end = match *body.get(at)? {
        0 => at + 1,
        4 => at + 2,
        1 | 2 | 5 => at + 9,
        3 => at + 5 + u32::from_le_bytes(body.get(at + 1..at + 5)?.try_into().ok()?) as usize,
        _ => return None,
    };
    (end <= body.len()).then_some(end)
}

fn malformed() -> CacheError {
    CacheError::Codec("malformed value".into())
}

fn checked_u32(buf: &mut &[u8], what: &str) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(CacheError::Codec(format!("truncated {what}")));
    }
    Ok(buf.get_u32_le())
}

fn encoded_row_len(row: &Row) -> usize {
    4 + row.values().iter().map(encoded_value_len).sum::<usize>()
}

fn encoded_value_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 9,
        Value::Text(s) => 5 + s.len(),
    }
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

    fn sample_rows() -> Vec<Row> {
        vec![
            row![1i64, "alice", true, 2.5f64],
            row![2i64, "日本語 €", Value::Null, -0.0f64],
            row![3i64, "", false, Value::Timestamp(99)],
        ]
    }

    fn list(p: &Payload) -> EncodedList {
        EncodedList::parse(p.encode()).unwrap().unwrap()
    }

    /// Every editor operation on `data`, each from a fresh parse.
    fn every_op(data: &Bytes) -> Vec<Result<Option<Edited>>> {
        let new = row![9i64, "new", 1.0f64];
        let tail = [Value::Bool(true), Value::Float(-0.0)];
        let apply = |op: &dyn Fn(&EncodedList) -> Result<Option<Edited>>| {
            EncodedList::parse(data.clone()).and_then(|l| op(&l.expect("a list")))
        };
        vec![
            apply(&|l| Ok(Some(l.append(std::slice::from_ref(&new))))),
            apply(&|l| l.remove_pk(&Value::Int(2))),
            apply(&|l| l.upsert_pk(&new).map(Some)),
            apply(&|l| l.remove_slice(2, &tail)),
            apply(&|l| l.replace_slice(2, &tail, &[Value::Null])),
            apply(&|l| l.top_k_insert(&new, 0, |v| Value::Int(2) < *v, 4, Some(&Value::Int(1)))),
        ]
    }

    #[test]
    fn edits_match_decode_edit_encode() {
        let rows = sample_rows();
        let l = list(&Payload::Rows(rows.clone()));
        assert_eq!(l.len(), 3);
        assert_eq!(l.top_k_complete(), None);

        let new = row![4i64, "ü"];
        let mut want = rows.clone();
        want.push(new.clone());
        let e = l.append(std::slice::from_ref(&new));
        assert_eq!(e.data, Payload::Rows(want).encode());
        assert_eq!(e.len, 4);

        let e = l.remove_pk(&Value::Int(2)).unwrap().unwrap();
        let want = vec![rows[0].clone(), rows[2].clone()];
        assert_eq!(e.data, Payload::Rows(want).encode());
        assert!(l.remove_pk(&Value::Int(7)).unwrap().is_none());

        let swapped = row![3i64, "x"];
        let e = l.upsert_pk(&swapped).unwrap();
        let want = vec![rows[0].clone(), rows[1].clone(), swapped];
        assert_eq!(e.data, Payload::Rows(want).encode());

        let e = l.replace_slice(3, &[Value::Float(-0.0)], &[Value::Int(5), Value::Null]);
        let mut want = rows.clone();
        want[1] = row![2i64, "日本語 €", Value::Null, 5i64, Value::Null];
        assert_eq!(e.unwrap().unwrap().data, Payload::Rows(want).encode());
        let e = l.remove_slice(1, &rows[2].values()[1..]).unwrap().unwrap();
        assert_eq!(e.data, Payload::Rows(rows[..2].to_vec()).encode());
    }

    /// Comparisons use `Value` equality: `-0.0` is not `0.0` under the
    /// storage order, and `Int(2)` equals `Float(2.0)` though their bytes
    /// differ.
    #[test]
    fn comparisons_use_value_semantics() {
        let rows = vec![row![2i64, "a"], row![-0.0f64, "b"], row![f64::NAN, "c"]];
        let l = list(&Payload::Rows(rows.clone()));
        let e = l.remove_pk(&Value::Float(2.0)).unwrap().unwrap();
        assert_eq!(e.data, Payload::Rows(rows[1..].to_vec()).encode());
        assert!(l.remove_pk(&Value::Float(0.0)).unwrap().is_none());
        assert_eq!(
            l.remove_pk(&Value::Float(f64::NAN)).unwrap().unwrap().len,
            2
        );
        assert!(l
            .remove_slice(1, &[Value::Text("b".into())])
            .unwrap()
            .is_some());
        // One pk per row, then the first slice value of each same-arity row.
        assert_eq!(l.values_decoded(), 9 + 3);
    }

    #[test]
    fn top_k_insert_orders_truncates_and_clears_complete() {
        let rows: Vec<Row> = [50i64, 40, 30].iter().map(|&r| row![r, r]).collect();
        let desc = |new: i64| move |v: &Value| Value::Int(new) > *v;
        for complete in [true, false] {
            let l = list(&Payload::TopK {
                rows: rows.clone(),
                complete,
            });
            // Middle insert into room: the flag is kept.
            let e = l
                .top_k_insert(&row![45i64, 45i64], 1, desc(45), 5, None)
                .unwrap();
            let mut want = rows.clone();
            want.insert(1, row![45i64, 45i64]);
            let want = Payload::TopK {
                rows: want,
                complete,
            };
            assert_eq!(e.unwrap().data, want.encode());
            // Past the tail: only a complete list can take it.
            let e = l
                .top_k_insert(&row![1i64, 1i64], 1, desc(1), 5, None)
                .unwrap();
            assert_eq!(e.is_some(), complete);
            // At capacity: the cut drops the tail and the flag.
            let e = l.top_k_insert(&row![60i64, 60i64], 1, desc(60), 3, None);
            let mut want = vec![row![60i64, 60i64]];
            want.extend(rows[..2].iter().cloned());
            let want = Payload::TopK {
                rows: want,
                complete: false,
            };
            assert_eq!(e.unwrap().unwrap().data, want.encode());
            // Repositioning a cached row moves it.
            let e = l.top_k_insert(&row![50i64, 35i64], 1, desc(35), 5, Some(&Value::Int(50)));
            let want = Payload::TopK {
                rows: vec![rows[1].clone(), row![50i64, 35i64], rows[2].clone()],
                complete,
            };
            assert_eq!(e.unwrap().unwrap().data, want.encode());
        }
    }

    /// A corrupted list fails every edit: none re-seals it under a fresh
    /// checksum.
    #[test]
    fn every_single_byte_corruption_fails_every_edit() {
        for p in [
            Payload::Rows(sample_rows()),
            Payload::TopK {
                rows: sample_rows(),
                complete: true,
            },
        ] {
            let enc = p.encode().to_vec();
            assert!(every_op(&p.encode()).iter().all(|r| r.is_ok()));
            for i in 0..enc.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut bad = enc.clone();
                    bad[i] ^= mask;
                    for (op, got) in every_op(&Bytes::from(bad)).iter().enumerate() {
                        assert!(
                            matches!(got, Err(CacheError::Codec(_))),
                            "op {op}: byte {i} ^ {mask:#x} went undetected"
                        );
                    }
                }
            }
        }
    }

    /// Malformed bodies under a valid checksum fail like `decode` does.
    #[test]
    fn resealed_malformed_lists_are_rejected() {
        let reseal = |mut body: Vec<u8>| {
            let sum = checksum(&body);
            body.extend_from_slice(&sum.to_le_bytes());
            Bytes::from(body)
        };
        let enc = Payload::Rows(vec![row![1i64, "ab"]]).encode().to_vec();
        let body = enc[..enc.len() - 4].to_vec();
        let mut trailing = body.clone();
        trailing.push(0);
        let mut bad_utf8 = body.clone();
        *bad_utf8.last_mut().unwrap() = 0xFF;
        let mut short_count = body.clone();
        short_count[4] = 2;
        for bad in [trailing, bad_utf8, short_count] {
            let bad = reseal(bad);
            assert!(Payload::decode(&bad).is_err());
            assert!(matches!(EncodedList::parse(bad), Err(CacheError::Codec(_))));
        }
        assert!(EncodedList::parse(Payload::Count(3).encode())
            .unwrap()
            .is_none());
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
