//! Binary codecs for [`Value`].
//!
//! Two encodings with different jobs:
//!
//! * [`encode_value`] / [`decode_value`] — a compact tagged encoding used by
//!   the storage engine to put any value in a page, WAL record or SSTable.
//! * [`encode_key`] — an **order-preserving** ("memcomparable") encoding:
//!   `encode_key(a) < encode_key(b)` (bytewise) iff `a < b` under the
//!   cross-model total order. B+-trees and SSTables compare raw bytes, so
//!   any value can serve as an index key without a custom comparator.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{Error, Result};
use crate::value::{Number, ObjectMap, Value};

// ---- tagged storage encoding ------------------------------------------------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STRING: u8 = 0x05;
const TAG_BYTES: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

/// Encode a value into `out` using the compact storage encoding.
pub fn encode_value(v: &Value, out: &mut BytesMut) {
    match v {
        Value::Null => out.put_u8(TAG_NULL),
        Value::Bool(false) => out.put_u8(TAG_FALSE),
        Value::Bool(true) => out.put_u8(TAG_TRUE),
        Value::Number(Number::Int(i)) => {
            out.put_u8(TAG_INT);
            put_varint(out, zigzag(*i));
        }
        Value::Number(Number::Float(f)) => {
            out.put_u8(TAG_FLOAT);
            out.put_f64(*f);
        }
        Value::String(s) => {
            out.put_u8(TAG_STRING);
            put_varint(out, s.len() as u64);
            out.put_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.put_u8(TAG_BYTES);
            put_varint(out, b.len() as u64);
            out.put_slice(b);
        }
        Value::Array(items) => {
            out.put_u8(TAG_ARRAY);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(obj) => {
            out.put_u8(TAG_OBJECT);
            put_varint(out, obj.len() as u64);
            for (k, val) in obj.iter() {
                put_varint(out, k.len() as u64);
                out.put_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

/// Encode a value to a fresh buffer.
pub fn value_to_bytes(v: &Value) -> Bytes {
    let mut b = BytesMut::new();
    encode_value(v, &mut b);
    b.freeze()
}

/// Decode one value from the front of `buf`, advancing it. No nesting
/// limit: this reads what the engine itself wrote.
pub fn decode_value(buf: &mut &[u8]) -> Result<Value> {
    decode_nested(buf, usize::MAX)
}

/// Decode a value from a complete buffer, rejecting trailing bytes.
pub fn value_from_bytes(buf: &[u8]) -> Result<Value> {
    value_from_bytes_bounded(buf, usize::MAX)
}

/// [`value_from_bytes`] for untrusted input: nesting deeper than
/// `max_depth` levels (a scalar is one level, as in
/// [`json::MAX_DEPTH`](crate::json::MAX_DEPTH)) is an error before the
/// decoder recurses any further, so a hostile payload cannot overflow
/// the stack.
pub fn value_from_bytes_bounded(mut buf: &[u8], max_depth: usize) -> Result<Value> {
    let v = decode_nested(&mut buf, max_depth)?;
    if !buf.is_empty() {
        return Err(Error::Storage("trailing bytes after value".into()));
    }
    Ok(v)
}

/// Decode one value allowed at most `depth` levels of nesting.
fn decode_nested(buf: &mut &[u8], depth: usize) -> Result<Value> {
    let corrupt = || Error::Storage("corrupt value encoding".into());
    if buf.is_empty() {
        return Err(corrupt());
    }
    let Some(inner) = depth.checked_sub(1) else {
        return Err(Error::Storage("value nesting exceeds the depth limit".into()));
    };
    let tag = buf.get_u8();
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_INT => Value::Number(Number::Int(unzigzag(get_varint(buf)?))),
        TAG_FLOAT => {
            if buf.len() < 8 {
                return Err(corrupt());
            }
            Value::Number(Number::Float(buf.get_f64()))
        }
        TAG_STRING => {
            let len = get_varint(buf)? as usize;
            if buf.len() < len {
                return Err(corrupt());
            }
            let s = std::str::from_utf8(&buf[..len]).map_err(|_| corrupt())?.to_string();
            buf.advance(len);
            Value::String(s)
        }
        TAG_BYTES => {
            let len = get_varint(buf)? as usize;
            if buf.len() < len {
                return Err(corrupt());
            }
            let b = buf[..len].to_vec();
            buf.advance(len);
            Value::Bytes(b)
        }
        TAG_ARRAY => {
            let n = get_varint(buf)? as usize;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_nested(buf, inner)?);
            }
            Value::Array(items)
        }
        TAG_OBJECT => {
            let n = get_varint(buf)? as usize;
            let mut obj = ObjectMap::new();
            for _ in 0..n {
                let klen = get_varint(buf)? as usize;
                if buf.len() < klen {
                    return Err(corrupt());
                }
                let k = std::str::from_utf8(&buf[..klen])
                    .map_err(|_| corrupt())?
                    .to_string();
                buf.advance(klen);
                obj.insert(k, decode_nested(buf, inner)?);
            }
            Value::Object(obj)
        }
        _ => return Err(corrupt()),
    })
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn put_varint(out: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if buf.is_empty() || shift >= 64 {
            return Err(Error::Storage("corrupt varint".into()));
        }
        let byte = buf.get_u8();
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// ---- order-preserving key encoding ------------------------------------------

// Type-bracket prefixes chosen so bytewise order matches Value::cmp's
// null < bool < number < string < bytes < array < object.
const K_NULL: u8 = 0x10;
const K_BOOL: u8 = 0x20;
const K_NUM: u8 = 0x30;
const K_STR: u8 = 0x40;
const K_BYTES: u8 = 0x50;
const K_ARRAY: u8 = 0x60;
const K_OBJECT: u8 = 0x70;
// Terminator/escape for variable-length segments inside composite keys.
const SEG_END: u8 = 0x00;
const SEG_ESC: u8 = 0x01;

/// Order-preserving encoding of a value.
///
/// Bytewise comparison of two encodings agrees with [`Value`]'s `Ord`.
/// Numbers are encoded via the classic IEEE-754 total-order bit trick on
/// the `f64` image, which matches `Value`'s numeric order (ints compare by
/// f64 image too, exact up to 2^53 — beyond that the f64 image *is* the
/// comparison `Value::cmp` performs for mixed types, and pure-int
/// comparisons in that range are handled with a tiebreak suffix).
pub fn encode_key(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(K_NULL),
        Value::Bool(b) => {
            out.push(K_BOOL);
            out.push(*b as u8);
        }
        Value::Number(n) => {
            out.push(K_NUM);
            let f = n.as_f64();
            let bits = f.to_bits();
            // Flip so that negative floats order before positive ones.
            let ordered = if bits & (1 << 63) != 0 { !bits } else { bits | (1 << 63) };
            out.extend_from_slice(&ordered.to_be_bytes());
            // Exact-integer tiebreak, mirroring Number::cmp, so distinct
            // large ints with equal f64 images stay distinct and ordered,
            // while Int(1) and Float(1.0) (equal values) share one key.
            let tie = number_tiebreak(n);
            out.extend_from_slice(&((tie as u128) ^ (1 << 127)).to_be_bytes());
        }
        Value::String(s) => {
            out.push(K_STR);
            escape_segment(s.as_bytes(), out);
        }
        Value::Bytes(b) => {
            out.push(K_BYTES);
            escape_segment(b, out);
        }
        Value::Array(items) => {
            out.push(K_ARRAY);
            for item in items {
                out.push(SEG_ESC); // element marker > SEG_END ⇒ prefix orders first
                encode_key(item, out);
            }
            out.push(SEG_END);
        }
        Value::Object(obj) => {
            out.push(K_OBJECT);
            let mut fields: Vec<(&str, &Value)> = obj.iter().collect();
            fields.sort_by_key(|(k, _)| *k);
            for (k, val) in fields {
                out.push(SEG_ESC);
                escape_segment(k.as_bytes(), out);
                encode_key(val, out);
            }
            out.push(SEG_END);
        }
    }
}

/// Encode a composite key (e.g. a multi-column index key). Each component
/// is terminated so that composite prefixes order correctly.
pub fn encode_composite_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 12);
    for v in values {
        encode_key(v, &mut out);
        out.push(SEG_END);
    }
    out
}

/// Convenience: order-preserving encoding of a single value.
pub fn key_of(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    encode_key(v, &mut out);
    out
}

fn number_tiebreak(n: &Number) -> i128 {
    n.exact_tiebreak()
}

fn escape_segment(bytes: &[u8], out: &mut Vec<u8>) {
    // 0x00 and 0x01 are escaped as 0x01 0xFF / 0x01 0xFE so the terminator
    // 0x00 can never appear inside a segment; escape keeps ordering because
    // 0x01 0xFE/0xFF sorts exactly where the original bytes did relative to
    // other content ≥ 0x02.
    for &b in bytes {
        match b {
            0x00 => out.extend_from_slice(&[SEG_ESC, 0xFE]),
            0x01 => out.extend_from_slice(&[SEG_ESC, 0xFF]),
            other => out.push(other),
        }
    }
    out.push(SEG_END);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::from_json;

    fn roundtrip(v: &Value) {
        let b = value_to_bytes(v);
        let back = value_from_bytes(&b).unwrap();
        assert_eq!(&back, v);
    }

    /// `depth` levels of nesting as the JSON parser counts them: arrays
    /// around one scalar.
    fn nested(depth: usize) -> Value {
        (1..depth).fold(Value::int(1), |v, _| Value::Array(vec![v]))
    }

    #[test]
    fn bounded_decoding_counts_depth_like_the_json_parser() {
        use crate::json::MAX_DEPTH;
        let at_cap = nested(MAX_DEPTH);
        assert_eq!(from_json(&crate::json::to_json(&at_cap)).unwrap(), at_cap);
        let bytes = value_to_bytes(&at_cap);
        assert_eq!(value_from_bytes_bounded(&bytes, MAX_DEPTH).unwrap(), at_cap);

        let too_deep = nested(MAX_DEPTH + 1);
        assert!(from_json(&crate::json::to_json(&too_deep)).is_err());
        let bytes = value_to_bytes(&too_deep);
        let err = value_from_bytes_bounded(&bytes, MAX_DEPTH).unwrap_err();
        assert!(err.to_string().contains("depth"), "{err}");
        // Storage decoding keeps reading whatever the engine wrote.
        assert_eq!(value_from_bytes(&bytes).unwrap(), too_deep);
    }

    #[test]
    fn a_hostile_nesting_prefix_is_rejected_without_recursing() {
        // 100 000 one-element array headers and no leaf: the bounded
        // decoder stops at the cap instead of overflowing the stack.
        let bytes = [TAG_ARRAY, 1].repeat(100_000);
        let err = value_from_bytes_bounded(&bytes, 256).unwrap_err();
        assert!(err.to_string().contains("depth"), "{err}");
    }

    #[test]
    fn storage_roundtrips() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-1",
            "9223372036854775807",
            "-9223372036854775808",
            "3.25",
            "\"héllo 😀\"",
            "[]",
            "[1,[2,[3]]]",
            "{}",
            r#"{"order_no":"0c6df508","orderlines":[{"price":66},{"price":40}],"flag":true}"#,
        ] {
            roundtrip(&from_json(text).unwrap());
        }
        roundtrip(&Value::Bytes(vec![0, 1, 2, 255]));
    }

    #[test]
    fn decode_rejects_corruption() {
        assert!(value_from_bytes(&[]).is_err());
        assert!(value_from_bytes(&[0xFF]).is_err());
        assert!(value_from_bytes(&[TAG_STRING, 5, b'a']).is_err());
        let mut good = value_to_bytes(&Value::int(3)).to_vec();
        good.push(0);
        assert!(value_from_bytes(&good).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for i in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }

    fn assert_key_order(a: &Value, b: &Value) {
        let (ka, kb) = (key_of(a), key_of(b));
        assert_eq!(
            ka.cmp(&kb),
            a.cmp(b),
            "key order mismatch for {a} vs {b}"
        );
    }

    #[test]
    fn key_encoding_preserves_order() {
        let vals: Vec<Value> = [
            "null", "false", "true", "-100", "-1.5", "0", "0.5", "1", "1.0", "2", "100",
            "\"\"", "\"a\"", "\"ab\"", "\"b\"", "[]", "[1]", "[1,2]", "[2]",
            "{}", r#"{"a":1}"#, r#"{"a":2}"#, r#"{"b":1}"#,
        ]
        .iter()
        .map(|t| from_json(t).unwrap())
        .chain([Value::Bytes(vec![]), Value::Bytes(vec![0]), Value::Bytes(vec![0, 0]), Value::Bytes(vec![1])])
        .collect();
        for a in &vals {
            for b in &vals {
                assert_key_order(a, b);
            }
        }
    }

    #[test]
    fn key_encoding_handles_embedded_zero_bytes() {
        let a = Value::Bytes(vec![0x00]);
        let b = Value::Bytes(vec![0x00, 0x00]);
        let c = Value::Bytes(vec![0x01]);
        assert_key_order(&a, &b);
        assert_key_order(&b, &c);
        let s1 = Value::str("a\u{0000}b");
        let s2 = Value::str("a\u{0000}c");
        assert_key_order(&s1, &s2);
    }

    #[test]
    fn array_prefix_orders_before_extension() {
        let short = from_json("[1]").unwrap();
        let long = from_json("[1,0]").unwrap();
        assert!(short < long);
        assert_key_order(&short, &long);
    }

    #[test]
    fn large_int_keys_are_distinct_and_ordered() {
        let a = Value::int(i64::MAX - 1);
        let b = Value::int(i64::MAX);
        assert_ne!(key_of(&a), key_of(&b));
        assert!(key_of(&a) < key_of(&b));
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let k1 = encode_composite_key(&[Value::str("a"), Value::int(2)]);
        let k2 = encode_composite_key(&[Value::str("a"), Value::int(10)]);
        let k3 = encode_composite_key(&[Value::str("b"), Value::int(0)]);
        assert!(k1 < k2);
        assert!(k2 < k3);
        // Prefix of a composite orders before its extensions.
        let p = encode_composite_key(&[Value::str("a")]);
        assert!(p < k1);
    }
}
