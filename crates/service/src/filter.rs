//! Per-vector attributes and composable attribute filters.
//!
//! Each vector may carry a small typed key→value record ([`AttrRecord`])
//! alongside its external id. Attributes are journaled in the write-ahead
//! log (a dedicated record type, replayed idempotently by LSN), persisted
//! in the SNP1 v3 envelope's attribute section, and served read-only from
//! every [`crate::Snapshot`]. Queries restrict results with a
//! [`FilterExpr`] — evaluated *during* beam search via the
//! [`ann_graph::SearchFilter`] machinery, so non-matching vectors still
//! steer the traversal but never occupy a result slot.
//!
//! The binary attribute layout lives here because two independent
//! persistence layers share it byte-for-byte: the WAL `SetAttrs` record
//! body and the snapshot envelope's attribute entries. Both write it
//! through [`ann_vectors::codec`] inside their own checksummed frames.

use ann_vectors::codec::{self, Reader, Writer};
use ann_vectors::error::{AnnError, IntegrityCheck, Result};

/// One typed attribute value.
///
/// Deliberately small: equality-filterable scalars only. Range predicates
/// and full-text filtering are different machines; the point here is
/// low-cardinality tenant/category/flag metadata.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (ids, timestamps, enums).
    U64(u64),
    /// Boolean flag.
    Bool(bool),
    /// Short UTF-8 string (labels, tenant names, categories).
    Str(String),
}

impl AttrValue {
    fn tag(&self) -> u8 {
        match self {
            AttrValue::U64(_) => 1,
            AttrValue::Bool(_) => 2,
            AttrValue::Str(_) => 3,
        }
    }
}

/// A vector's attribute record: key→value pairs, sorted by key, unique
/// keys. Construct through [`normalize_attrs`] (or the writer APIs, which
/// call it) so equality and the binary codec are canonical.
pub type AttrRecord = Vec<(String, AttrValue)>;

/// Ceilings keeping attribute records "small typed metadata", not blobs:
/// a record is at most [`MAX_ATTR_KEYS`] pairs, keys at most
/// [`MAX_ATTR_KEY_LEN`] bytes, string values at most
/// [`MAX_ATTR_STR_LEN`] bytes.
pub const MAX_ATTR_KEYS: usize = 64;
/// Maximum key length in bytes.
pub const MAX_ATTR_KEY_LEN: usize = 255;
/// Maximum string-value length in bytes.
pub const MAX_ATTR_STR_LEN: usize = 1024;

/// Validate and canonicalize an attribute record: enforce the size
/// ceilings, sort by key, reject duplicate keys.
///
/// # Errors
/// `InvalidParameter` on any ceiling violation or duplicate key.
pub fn normalize_attrs(mut attrs: AttrRecord) -> Result<AttrRecord> {
    if attrs.len() > MAX_ATTR_KEYS {
        return Err(AnnError::InvalidParameter(format!(
            "attribute record has {} keys (max {MAX_ATTR_KEYS})",
            attrs.len()
        )));
    }
    for (k, v) in &attrs {
        if k.is_empty() || k.len() > MAX_ATTR_KEY_LEN {
            return Err(AnnError::InvalidParameter(format!(
                "attribute key {k:?} length {} outside 1..={MAX_ATTR_KEY_LEN}",
                k.len()
            )));
        }
        if let AttrValue::Str(s) = v {
            if s.len() > MAX_ATTR_STR_LEN {
                return Err(AnnError::InvalidParameter(format!(
                    "attribute {k:?} string value is {} bytes (max {MAX_ATTR_STR_LEN})",
                    s.len()
                )));
            }
        }
    }
    attrs.sort_by(|a, b| a.0.cmp(&b.0));
    if attrs.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(AnnError::InvalidParameter("duplicate attribute key".into()));
    }
    Ok(attrs)
}

/// Look up `key` in a canonical (sorted) record.
pub fn attr_get<'a>(attrs: &'a AttrRecord, key: &str) -> Option<&'a AttrValue> {
    attrs.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok().map(|i| &attrs[i].1)
}

/// A composable predicate over attribute records.
///
/// Evaluates against `Option<&AttrRecord>` — a vector with no attributes
/// matches nothing except under [`FilterExpr::Not`] (and compositions
/// thereof), the conventional tri-state-free semantics of metadata
/// filtering.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterExpr {
    /// `attrs[key] == value`.
    Eq(String, AttrValue),
    /// `attrs[key] ∈ values`.
    OneOf(String, Vec<AttrValue>),
    /// `key` is present, any value.
    Exists(String),
    /// Every sub-expression matches (empty = always true).
    And(Vec<FilterExpr>),
    /// At least one sub-expression matches (empty = always false).
    Or(Vec<FilterExpr>),
    /// The sub-expression does not match.
    Not(Box<FilterExpr>),
}

impl FilterExpr {
    /// Convenience: `Eq` from borrowed parts.
    pub fn eq(key: &str, value: AttrValue) -> FilterExpr {
        FilterExpr::Eq(key.to_string(), value)
    }

    /// Whether a record (or its absence) satisfies this predicate.
    pub fn matches(&self, attrs: Option<&AttrRecord>) -> bool {
        match self {
            FilterExpr::Eq(key, value) => {
                attrs.and_then(|a| attr_get(a, key)).is_some_and(|v| v == value)
            }
            FilterExpr::OneOf(key, values) => attrs
                .and_then(|a| attr_get(a, key))
                .is_some_and(|v| values.iter().any(|w| w == v)),
            FilterExpr::Exists(key) => attrs.is_some_and(|a| attr_get(a, key).is_some()),
            FilterExpr::And(subs) => subs.iter().all(|s| s.matches(attrs)),
            FilterExpr::Or(subs) => subs.iter().any(|s| s.matches(attrs)),
            FilterExpr::Not(sub) => !sub.matches(attrs),
        }
    }
}

// ---------------------------------------------------------------------------
// Binary layout — shared by the WAL `SetAttrs` record body and the SNP1 v3
// envelope attribute section, both of which frame it (all little-endian):
//
//   record: nkeys u16 | nkeys × (key_len u16 | key utf8 | tag u8 | value)
//   value:  tag 1 → u64 | tag 2 → u8 (0/1) | tag 3 → len u16 + utf8
// ---------------------------------------------------------------------------

/// Append the canonical encoding of `attrs` to `w`.
pub(crate) fn encode_attrs(w: &mut Writer, attrs: &AttrRecord) {
    // cast: normalize_attrs caps the record at MAX_ATTR_KEYS (< u16::MAX).
    w.u16(attrs.len() as u16);
    for (k, v) in attrs {
        // cast: normalize_attrs caps keys at MAX_ATTR_KEY_LEN (< u16::MAX).
        w.u16(k.len() as u16).bytes(k.as_bytes()).u8(v.tag());
        match v {
            AttrValue::U64(x) => w.u64(*x),
            AttrValue::Bool(b) => w.u8(u8::from(*b)),
            // cast: normalize_attrs caps strings at MAX_ATTR_STR_LEN.
            AttrValue::Str(s) => w.u16(s.len() as u16).bytes(s.as_bytes()),
        };
    }
}

/// A `u16`-length-prefixed UTF-8 string of at most `max` bytes.
fn utf8(r: &mut Reader, max: usize, what: &str) -> codec::Result<String> {
    let len = usize::from(r.u16()?);
    if len > max {
        return Err((
            IntegrityCheck::Bounds,
            format!("attribute {what} of {len} bytes (max {max})"),
        ));
    }
    String::from_utf8(r.take(len)?.to_vec())
        .map_err(|_| (IntegrityCheck::Payload, format!("attribute {what} is not UTF-8")))
}

/// Decode one attribute record from `r`, advancing it.
///
/// # Errors
/// The failing check on truncation, an unknown value tag, invalid UTF-8, or
/// a non-canonical (unsorted / duplicate-key / over-ceiling) record —
/// callers wrap this in their own `CorruptWal`/`CorruptFile` context.
pub(crate) fn decode_attrs(r: &mut Reader) -> codec::Result<AttrRecord> {
    let bad = |detail: String| Err((IntegrityCheck::Payload, detail));
    let nkeys = usize::from(r.u16()?);
    if nkeys > MAX_ATTR_KEYS {
        return bad(format!("attribute record claims {nkeys} keys (max {MAX_ATTR_KEYS})"));
    }
    let mut attrs = Vec::with_capacity(nkeys);
    for _ in 0..nkeys {
        let key = utf8(r, MAX_ATTR_KEY_LEN, "key")?;
        if key.is_empty() {
            return bad("empty attribute key".into());
        }
        let value = match r.u8()? {
            1 => AttrValue::U64(r.u64()?),
            2 => match r.u8()? {
                0 => AttrValue::Bool(false),
                1 => AttrValue::Bool(true),
                other => {
                    return bad(format!("attribute bool value byte {other} is neither 0 nor 1"))
                }
            },
            3 => AttrValue::Str(utf8(r, MAX_ATTR_STR_LEN, "string value")?),
            other => return bad(format!("unknown attribute value tag {other}")),
        };
        attrs.push((key, value));
    }
    if attrs.windows(2).any(|w| w[0].0 >= w[1].0) {
        return bad("attribute record is not sorted-unique by key".into());
    }
    Ok(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pairs: &[(&str, AttrValue)]) -> AttrRecord {
        normalize_attrs(pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()).unwrap()
    }

    #[test]
    fn normalize_sorts_and_rejects_duplicates_and_ceilings() {
        let r = rec(&[("b", AttrValue::U64(2)), ("a", AttrValue::Bool(true))]);
        assert_eq!(r[0].0, "a");
        assert_eq!(r[1].0, "b");
        let dup = vec![("x".to_string(), AttrValue::U64(1)), ("x".to_string(), AttrValue::U64(2))];
        assert!(normalize_attrs(dup).is_err());
        assert!(normalize_attrs(vec![(String::new(), AttrValue::U64(1))]).is_err());
        let long_key = "k".repeat(MAX_ATTR_KEY_LEN + 1);
        assert!(normalize_attrs(vec![(long_key, AttrValue::U64(1))]).is_err());
        let long_val = AttrValue::Str("v".repeat(MAX_ATTR_STR_LEN + 1));
        assert!(normalize_attrs(vec![("k".to_string(), long_val)]).is_err());
        let too_many: AttrRecord =
            (0..=MAX_ATTR_KEYS).map(|i| (format!("k{i:03}"), AttrValue::U64(0))).collect();
        assert!(normalize_attrs(too_many).is_err());
    }

    #[test]
    fn filter_expr_semantics() {
        let r = rec(&[
            ("color", AttrValue::Str("red".into())),
            ("flag", AttrValue::Bool(true)),
            ("tier", AttrValue::U64(3)),
        ]);
        let some = Some(&r);
        assert!(FilterExpr::eq("color", AttrValue::Str("red".into())).matches(some));
        assert!(!FilterExpr::eq("color", AttrValue::Str("blue".into())).matches(some));
        // Same key, wrong type: no match (typed equality).
        assert!(!FilterExpr::eq("tier", AttrValue::Str("3".into())).matches(some));
        assert!(FilterExpr::OneOf("tier".into(), vec![AttrValue::U64(1), AttrValue::U64(3)])
            .matches(some));
        assert!(FilterExpr::Exists("flag".into()).matches(some));
        assert!(!FilterExpr::Exists("missing".into()).matches(some));
        assert!(FilterExpr::And(vec![
            FilterExpr::eq("flag", AttrValue::Bool(true)),
            FilterExpr::eq("tier", AttrValue::U64(3)),
        ])
        .matches(some));
        assert!(FilterExpr::Or(vec![
            FilterExpr::eq("flag", AttrValue::Bool(false)),
            FilterExpr::eq("tier", AttrValue::U64(3)),
        ])
        .matches(some));
        assert!(!FilterExpr::Or(vec![]).matches(some));
        assert!(FilterExpr::And(vec![]).matches(some));
        assert!(FilterExpr::Not(Box::new(FilterExpr::Exists("missing".into()))).matches(some));
        // No attributes at all: only negations match.
        assert!(!FilterExpr::eq("color", AttrValue::Str("red".into())).matches(None));
        assert!(FilterExpr::Not(Box::new(FilterExpr::Exists("color".into()))).matches(None));
    }

    #[test]
    fn codec_round_trips_canonical_records() {
        for r in [
            rec(&[]),
            rec(&[("a", AttrValue::U64(u64::MAX))]),
            rec(&[
                ("bool", AttrValue::Bool(false)),
                ("num", AttrValue::U64(42)),
                ("s", AttrValue::Str("héllo wörld".into())),
            ]),
        ] {
            let mut buf = Writer::default();
            encode_attrs(&mut buf, &r);
            let buf = buf.into_bytes();
            let mut b = Reader::new(&buf);
            let back = decode_attrs(&mut b).unwrap();
            assert_eq!(back, r);
            assert!(b.is_empty(), "decoder must consume exactly the record");
        }
    }

    #[test]
    fn codec_rejects_damage() {
        let r = rec(&[("k", AttrValue::Str("value".into()))]);
        let mut buf = Writer::default();
        encode_attrs(&mut buf, &r);
        let buf = buf.into_bytes();
        // Truncation at every prefix length must error, never panic.
        for cut in 0..buf.len() {
            let mut b = Reader::new(&buf[..cut]);
            assert!(decode_attrs(&mut b).is_err(), "accepted truncation at {cut}");
        }
        // Unknown tag.
        let mut bad = buf;
        let tag_pos = 2 + 2 + 1; // nkeys + klen + "k"
        bad[tag_pos] = 9;
        assert!(decode_attrs(&mut Reader::new(&bad)).is_err());
        // Unsorted pair order.
        let unsorted =
            vec![("z".to_string(), AttrValue::U64(1)), ("a".to_string(), AttrValue::U64(2))];
        let mut buf = Writer::default();
        encode_attrs(&mut buf, &unsorted);
        assert!(decode_attrs(&mut Reader::new(&buf.into_bytes())).is_err());
    }

    #[test]
    fn attr_get_uses_binary_search_on_canonical_records() {
        let r =
            rec(&[("a", AttrValue::U64(1)), ("m", AttrValue::U64(2)), ("z", AttrValue::U64(3))]);
        assert_eq!(attr_get(&r, "m"), Some(&AttrValue::U64(2)));
        assert_eq!(attr_get(&r, "q"), None);
    }
}
