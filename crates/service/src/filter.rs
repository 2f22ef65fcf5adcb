//! Per-vector attributes and composable attribute filters.
//!
//! Each vector may carry a small typed key→value record ([`AttrRecord`])
//! alongside its external id. Attributes are journaled in the write-ahead
//! log (a dedicated record type, replayed idempotently by LSN), persisted
//! in the SNP1 v3 envelope's attribute section, and served read-only from
//! every [`crate::Snapshot`]. Queries restrict results with a
//! [`FilterExpr`], which a snapshot compiles into one bit per point from its
//! [`AttrPostings`]; the search then scans the admitted points or walks the
//! graph, where non-matching vectors still steer the traversal but never
//! occupy a result slot.
//!
//! The binary attribute layout lives here because two independent
//! persistence layers share it byte-for-byte: the WAL `SetAttrs` record
//! body and the snapshot envelope's attribute entries. Both write it
//! through [`ann_vectors::codec`] inside their own checksummed frames.

use ann_vectors::codec::{self, Reader, Writer};
use ann_vectors::error::{AnnError, IntegrityCheck, Result};
use std::collections::HashMap;

/// One typed attribute value.
///
/// Deliberately small: equality-filterable scalars only. Range predicates
/// and full-text filtering are different machines; the point here is
/// low-cardinality tenant/category/flag metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

/// The inverted attribute index of one snapshot: for every key and value,
/// the internal ids whose record carries that pair, ascending.
///
/// Built once per snapshot, on its first attribute-filtered query, in one
/// pass over the records. Compiling a [`FilterExpr`] from it then costs the
/// ids the expression names plus a few word operations per 64 points; no
/// record is looked up and no predicate is called per point, so a query
/// with a never-seen expression costs about what a repeated one does.
#[derive(Debug, Default)]
pub(crate) struct AttrPostings {
    rows: usize,
    by_key: HashMap<String, HashMap<AttrValue, Vec<u32>>>,
}

impl AttrPostings {
    /// Postings over internal ids `0..external_ids.len()`, where internal
    /// id `i` carries the record of `external_ids[i]`.
    pub(crate) fn build(external_ids: &[u64], attrs: &HashMap<u64, AttrRecord>) -> Self {
        let mut by_key: HashMap<String, HashMap<AttrValue, Vec<u32>>> = HashMap::new();
        for (internal, ext) in external_ids.iter().enumerate() {
            // cast: internal < external_ids.len(), a u32 node count.
            let id = internal as u32;
            for (key, value) in attrs.get(ext).into_iter().flatten() {
                if let Some(values) = by_key.get_mut(key) {
                    if let Some(ids) = values.get_mut(value) {
                        ids.push(id);
                    } else {
                        values.insert(value.clone(), vec![id]);
                    }
                } else {
                    by_key.insert(key.clone(), HashMap::from([(value.clone(), vec![id])]));
                }
            }
        }
        AttrPostings { rows: external_ids.len(), by_key }
    }

    /// One bit per internal id where `expr` holds (bit `i % 64` of word
    /// `i / 64` for id `i`; no bit at or past the row count is set). Agrees
    /// with [`FilterExpr::matches`] on every row's record.
    pub(crate) fn eval(&self, expr: &FilterExpr) -> Vec<u64> {
        let mut words = vec![0u64; self.rows.div_ceil(64)];
        match expr {
            FilterExpr::Eq(key, value) => self.set(&mut words, key, std::slice::from_ref(value)),
            FilterExpr::OneOf(key, values) => self.set(&mut words, key, values),
            FilterExpr::Exists(key) => {
                for ids in self.by_key.get(key).into_iter().flat_map(HashMap::values) {
                    set_bits(&mut words, ids);
                }
            }
            FilterExpr::And(subs) => {
                words = self.all();
                for sub in subs {
                    words.iter_mut().zip(self.eval(sub)).for_each(|(w, s)| *w &= s);
                }
            }
            FilterExpr::Or(subs) => {
                for sub in subs {
                    words.iter_mut().zip(self.eval(sub)).for_each(|(w, s)| *w |= s);
                }
            }
            FilterExpr::Not(sub) => {
                words = self.eval(sub);
                words.iter_mut().zip(self.all()).for_each(|(w, all)| *w ^= all);
            }
        }
        words
    }

    /// Sets the bits of the ids carrying `key` with any of `values`.
    fn set(&self, words: &mut [u64], key: &str, values: &[AttrValue]) {
        if let Some(by_value) = self.by_key.get(key) {
            for ids in values.iter().filter_map(|v| by_value.get(v)) {
                set_bits(words, ids);
            }
        }
    }

    /// Every row's bit set.
    fn all(&self) -> Vec<u64> {
        let mut words = vec![u64::MAX; self.rows.div_ceil(64)];
        if let (Some(last), tail @ 1..) = (words.last_mut(), self.rows % 64) {
            *last = (1u64 << tail) - 1;
        }
        words
    }
}

fn set_bits(words: &mut [u64], ids: &[u32]) {
    for &id in ids {
        words[id as usize / 64] |= 1 << (id % 64);
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
    fn postings_compile_every_expression_as_matches_evaluates_it() {
        // 130 rows (a partial last word), externals in reverse internal
        // order, rows with no record, several keys, one typed collision.
        let n = 130u64;
        let external_ids: Vec<u64> = (0..n).rev().collect();
        let attrs: HashMap<u64, AttrRecord> = (0..n)
            .filter(|e| e % 7 != 0)
            .map(|e| {
                let mut pairs = vec![("tier", AttrValue::U64(e % 5))];
                if e % 3 == 0 {
                    pairs.push(("color", AttrValue::Str(["red", "blue"][(e % 2) as usize].into())));
                }
                if e % 11 == 0 {
                    pairs.push(("flag", AttrValue::Bool(e % 2 == 0)));
                }
                (e, rec(&pairs))
            })
            .collect();
        let postings = AttrPostings::build(&external_ids, &attrs);
        let red = FilterExpr::eq("color", AttrValue::Str("red".into()));
        let tiers = FilterExpr::OneOf("tier".into(), vec![AttrValue::U64(1), AttrValue::U64(4)]);
        let exprs = [
            red.clone(),
            FilterExpr::eq("tier", AttrValue::Str("3".into())),
            tiers.clone(),
            FilterExpr::OneOf("tier".into(), vec![]),
            FilterExpr::Exists("flag".into()),
            FilterExpr::Exists("missing".into()),
            FilterExpr::And(vec![]),
            FilterExpr::Or(vec![]),
            FilterExpr::And(vec![red.clone(), tiers.clone()]),
            FilterExpr::Or(vec![red.clone(), FilterExpr::Exists("flag".into())]),
            FilterExpr::Not(Box::new(red.clone())),
            FilterExpr::Not(Box::new(FilterExpr::And(vec![tiers, FilterExpr::Not(Box::new(red))]))),
        ];
        for expr in &exprs {
            let words = postings.eval(expr);
            assert_eq!(words.len(), 3, "{expr:?}");
            assert_eq!(words[2] >> 2, 0, "{expr:?}: a bit past the last row is set");
            for (internal, ext) in external_ids.iter().enumerate() {
                let bit = (words[internal / 64] >> (internal % 64)) & 1 == 1;
                assert_eq!(bit, expr.matches(attrs.get(ext)), "{expr:?} on external {ext}");
            }
        }
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
