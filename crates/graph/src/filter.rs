//! Composable search filters: predicates over node ids applied *during*
//! beam traversal.
//!
//! Filtered ANN has two classic strategies. **Post-filter** searches the
//! unfiltered graph and discards non-matching results afterwards — cheap,
//! but at selectivity `s` a beam of width `L` yields only `~s·L` admissible
//! candidates, so recall collapses exactly when filters are selective.
//! **Filter-during-search** (this module) keeps the traversal unfiltered —
//! non-matching nodes still steer the beam, preserving graph connectivity —
//! but accumulates *results* in a separate pool that only admits matching
//! nodes. Every evaluated node is a result candidate, so no beam slot is
//! wasted on a node the filter would reject.
//!
//! The same mechanism serves deletion tombstones (a filter over dead ids)
//! and attribute predicates (a filter over metadata); the serving layer
//! compiles both into one [`BitFilter`] per query.

/// A predicate over node ids consulted by the filtered beam search.
///
/// `admits` is called once per *evaluated* node (a node whose distance was
/// actually computed), so implementations should be O(1) — a bitset, hash
/// lookup, or small attribute comparison.
pub trait SearchFilter {
    /// Whether node `id` may appear in search results. Non-admitted nodes
    /// are still traversed (they steer the beam) but never returned.
    fn admits(&self, id: u32) -> bool;

    /// Estimated fraction of nodes this filter admits, in `(0, 1]`.
    ///
    /// Drives adaptive beam widening: the caller scales the traversal beam
    /// by `1/selectivity` (capped) so the *expected* number of admitted
    /// candidates matches the unfiltered beam. The default claims no
    /// selectivity (no widening).
    fn selectivity(&self) -> f64 {
        1.0
    }
}

/// The identity filter: admits every node. Filtered search with `AcceptAll`
/// visits the same nodes as the unfiltered search at the same beam width.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptAll;

impl SearchFilter for AcceptAll {
    #[inline]
    fn admits(&self, _id: u32) -> bool {
        true
    }
}

/// A filter from a closure plus an explicit selectivity estimate.
///
/// The workhorse adapter for upper layers: the serving layer captures its
/// tombstone set and attribute predicate in the closure and supplies a
/// measured selectivity.
pub struct FnFilter<F: Fn(u32) -> bool> {
    f: F,
    selectivity: f64,
}

impl<F: Fn(u32) -> bool> FnFilter<F> {
    /// Wrap `f` with a selectivity estimate (clamped to `(0, 1]`; NaN and
    /// out-of-range values degrade to 1.0 — never panic on a bad estimate).
    pub fn new(f: F, selectivity: f64) -> Self {
        let selectivity = if selectivity.is_finite() && selectivity > 0.0 && selectivity <= 1.0 {
            selectivity
        } else {
            1.0
        };
        FnFilter { f, selectivity }
    }
}

impl<F: Fn(u32) -> bool> SearchFilter for FnFilter<F> {
    #[inline]
    fn admits(&self, id: u32) -> bool {
        (self.f)(id)
    }

    fn selectivity(&self) -> f64 {
        self.selectivity
    }
}

/// A filter compiled to one bit per node id.
///
/// The serving layer compiles its deletion set and attribute predicate
/// into this form, so the traversal's sink tests a single bit per
/// evaluated node instead of a hash lookup and a predicate walk. Because
/// every bit is known, [`BitFilter::count`] is the
/// *exact* number of admitted nodes — the input of the plan choice between
/// walking the graph and scanning the admitted rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitFilter {
    words: Vec<u64>,
    len: usize,
    count: usize,
}

impl BitFilter {
    /// Evaluate `admit` once for every id in `0..len`.
    pub fn from_fn(len: usize, mut admit: impl FnMut(u32) -> bool) -> Self {
        let mut words = vec![0u64; len.div_ceil(64)];
        let mut count = 0;
        for (w, word) in words.iter_mut().enumerate() {
            let base = w * 64;
            for bit in 0..(len - base).min(64) {
                // cast: ids are u32 node ids; `len` is a graph's node count.
                if admit((base + bit) as u32) {
                    *word |= 1 << bit;
                    count += 1;
                }
            }
        }
        BitFilter { words, len, count }
    }

    /// The filter admitting the set bits of `words`: bit `i % 64` of word
    /// `i / 64` admits id `i`. Bits at or past `len` are dropped.
    pub fn from_words(len: usize, mut words: Vec<u64>) -> Self {
        words.resize(len.div_ceil(64), 0);
        if let (Some(last), tail @ 1..) = (words.last_mut(), len % 64) {
            *last &= (1u64 << tail) - 1;
        }
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        BitFilter { words, len, count }
    }

    /// The bits, in the layout [`BitFilter::from_words`] takes.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of ids the filter ranges over (admitted or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the filter ranges over no ids at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exact number of admitted ids (the popcount).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether `id` is admitted; ids past [`BitFilter::len`] never are.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let id = id as usize;
        self.words.get(id / 64).is_some_and(|w| (w >> (id % 64)) & 1 == 1)
    }

    /// The admitted ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    // cast: below `len`, which counts u32 node ids.
                    (w * 64 + bit) as u32
                })
            })
        })
    }
}

impl SearchFilter for BitFilter {
    #[inline]
    fn admits(&self, id: u32) -> bool {
        self.contains(id)
    }

    /// The exact admitted fraction; 1.0 (no widening) for an empty range.
    fn selectivity(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.count as f64 / self.len as f64
        }
    }
}

/// Every `&F` is itself a filter — lets callers pass `&dyn SearchFilter`
/// through generic entry points without re-monomorphizing.
impl<F: SearchFilter + ?Sized> SearchFilter for &F {
    #[inline]
    fn admits(&self, id: u32) -> bool {
        (**self).admits(id)
    }

    fn selectivity(&self) -> f64 {
        (**self).selectivity()
    }
}

/// Cap on adaptive widening: a 1% selectivity filter must not inflate a
/// beam 100×; beyond this factor the filtered search accepts recall loss
/// rather than unbounded cost (E14 measures the trade).
pub const MAX_WIDEN_FACTOR: usize = 8;

/// Widen beam width `l` by the filter's estimated selectivity:
/// `ceil(l / selectivity)`, capped at [`MAX_WIDEN_FACTOR`]`·l` and at `n`
/// (no point in a beam wider than the graph).
pub fn widened_beam(l: usize, selectivity: f64, n: usize) -> usize {
    let l = l.max(1);
    let s = if selectivity.is_finite() && selectivity > 0.0 && selectivity <= 1.0 {
        selectivity
    } else {
        1.0
    };
    let widened = ((l as f64) / s).ceil() as usize;
    widened.min(l.saturating_mul(MAX_WIDEN_FACTOR)).max(l).min(n.max(l))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_all_admits_everything_with_unit_selectivity() {
        assert!(AcceptAll.admits(0));
        assert!(AcceptAll.admits(u32::MAX));
        assert_eq!(AcceptAll.selectivity(), 1.0);
    }

    #[test]
    fn fn_filter_clamps_bad_selectivity() {
        let f = FnFilter::new(|id| id % 2 == 0, 0.5);
        assert!(f.admits(4));
        assert!(!f.admits(3));
        assert_eq!(f.selectivity(), 0.5);
        assert_eq!(FnFilter::new(|_| true, 0.0).selectivity(), 1.0);
        assert_eq!(FnFilter::new(|_| true, f64::NAN).selectivity(), 1.0);
        assert_eq!(FnFilter::new(|_| true, 7.0).selectivity(), 1.0);
    }

    #[test]
    fn widened_beam_scales_and_caps() {
        // No selectivity: unchanged.
        assert_eq!(widened_beam(32, 1.0, 10_000), 32);
        // 50% admitted: double the beam.
        assert_eq!(widened_beam(32, 0.5, 10_000), 64);
        // 1% admitted: capped at MAX_WIDEN_FACTOR x, not 100x.
        assert_eq!(widened_beam(32, 0.01, 10_000), 32 * MAX_WIDEN_FACTOR);
        // Never wider than the graph…
        assert_eq!(widened_beam(32, 0.01, 100), 100);
        // …but never narrower than the requested beam either.
        assert_eq!(widened_beam(32, 0.5, 8), 32);
        // Bad estimates degrade to no widening.
        assert_eq!(widened_beam(32, f64::NAN, 10_000), 32);
    }

    #[test]
    fn bit_filter_counts_tests_and_iterates_exactly() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let bits = BitFilter::from_fn(len, |id| id % 3 == 1);
            let want: Vec<u32> = (0..len as u32).filter(|id| id % 3 == 1).collect();
            assert_eq!(bits.len(), len);
            assert_eq!(bits.count(), want.len(), "len {len}");
            assert_eq!(bits.iter().collect::<Vec<_>>(), want, "len {len}");
            for id in 0..len as u32 + 70 {
                assert_eq!(bits.admits(id), id < len as u32 && id % 3 == 1, "len {len} id {id}");
            }
        }
        let bits = BitFilter::from_fn(10, |id| id < 4);
        assert_eq!(bits.selectivity(), 0.4);
        assert_eq!(BitFilter::from_fn(0, |_| true).selectivity(), 1.0);
        assert!(!bits.admits(u32::MAX), "out-of-range ids are never admitted");
    }

    #[test]
    fn reference_to_filter_is_a_filter() {
        fn takes_filter<F: SearchFilter>(f: F) -> bool {
            f.admits(2)
        }
        let inner = FnFilter::new(|id| id == 2, 0.25);
        let dynref: &dyn SearchFilter = &inner;
        assert!(takes_filter(dynref));
        assert_eq!(dynref.selectivity(), 0.25);
    }
}
