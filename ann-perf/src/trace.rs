//! Spans of the traced run.
//!
//! The engine has no spans of its own yet, and this benchmark may not add
//! any, so the span tree of a request is rebuilt from outside by *replay*:
//! the request goes through `AnnService` (root span `service.request`, real
//! wall-clock times), and the same query is then re-run against the same
//! snapshots through each level's public function. Replayed spans carry
//! their measured duration and are laid out inside their parent back to
//! back, ending where the parent ends (what precedes them in a request —
//! queueing, the channel, the wake-up — is the parent's self time).
//!
//! Spans are kept in memory and written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use ann_graph::SearchStats;

use crate::json::{obj, s, Value};

/// One span: a call into a layer, caused by `parent`, on behalf of `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its recorder.
    pub span: u32,
    /// The span that caused it (`None` for a request's root).
    pub parent: Option<u32>,
    /// Request the span belongs to; spans of one request share it.
    pub request: u32,
    /// `layer.function`.
    pub name: &'static str,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
    /// Work counted at this boundary.
    pub stats: SearchStats,
}

/// In-memory span store.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Record a span and return its id.
    pub fn push(
        &mut self,
        parent: Option<u32>,
        request: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        stats: SearchStats,
    ) -> u32 {
        let span = self.spans.len() as u32;
        self.spans.push(Span { span, parent, request, name, start_ns, end_ns, stats });
        span
    }

    /// Record replayed children of `parent`, given their measured durations:
    /// laid out back to back so that the last one ends where the parent ends
    /// (or from the parent's start, if they do not fit). Returns their ids.
    pub fn push_children(
        &mut self,
        parent: u32,
        children: &[(&'static str, u64, SearchStats)],
    ) -> Vec<u32> {
        let (p_start, p_end, request) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns, p.request)
        };
        let total: u64 = children.iter().map(|c| c.1).sum();
        let mut at = p_end.saturating_sub(total).max(p_start);
        children
            .iter()
            .map(|&(name, dur, stats)| {
                let id = self.push(Some(parent), request, name, at, at + dur, stats);
                at += dur;
                id
            })
            .collect()
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its child spans cover (overlapping children are not counted
    /// twice; a child reaching outside its parent is clipped).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                let parent = &self.spans[p as usize];
                let (a, b) = (sp.start_ns.max(parent.start_ns), sp.end_ns.min(parent.end_ns));
                if a < b {
                    children[p as usize].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(sp, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, sp.start_ns);
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (sp.end_ns - sp.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: `(spans, mean duration ns, mean self ns)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let self_times = self.self_times();
        let mut sums: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (sp, own) in self.spans.iter().zip(self_times) {
            let e = sums.entry(sp.name).or_default();
            e.0 += 1;
            e.1 += sp.end_ns - sp.start_ns;
            e.2 += own;
        }
        sums.into_iter()
            .map(|(name, (n, total, own))| {
                (name, (n, total as f64 / n as f64, own as f64 / n as f64))
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// The I/O error, rendered.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let e = |err: std::io::Error| format!("writing {}: {err}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(e)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(e)?);
        for sp in &self.spans {
            let line = obj(vec![
                ("span", Value::Num(f64::from(sp.span))),
                ("parent", sp.parent.map_or(Value::Null, |p| Value::Num(f64::from(p)))),
                ("request", Value::Num(f64::from(sp.request))),
                ("name", s(sp.name)),
                ("start_ns", Value::Num(sp.start_ns as f64)),
                ("end_ns", Value::Num(sp.end_ns as f64)),
                ("ndc", Value::Num(sp.stats.ndc as f64)),
                ("hops", Value::Num(sp.stats.hops as f64)),
                ("skipped", Value::Num(sp.stats.skipped as f64)),
            ]);
            writeln!(out, "{}", line.render()).map_err(e)?;
        }
        out.flush().map_err(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn none() -> SearchStats {
        SearchStats::default()
    }

    #[test]
    fn self_time_is_duration_minus_covered_part() {
        let mut r = Recorder::default();
        let root = r.push(None, 0, "root", 100, 1_100, none());
        // Two overlapping children and one reaching past the parent's end.
        r.push(Some(root), 0, "a", 200, 500, none());
        r.push(Some(root), 0, "b", 400, 600, none());
        let c = r.push(Some(root), 0, "c", 1_000, 1_300, none());
        r.push(Some(c), 0, "leaf", 1_000, 1_050, none());
        let own = r.self_times();
        // Covered: [200,600) = 400 and [1000,1100) = 100 of the 1000 ns.
        assert_eq!(own[root as usize], 500);
        assert_eq!(own[1], 300, "a leaf's self time is its duration");
        assert_eq!(own[c as usize], 250);
    }

    #[test]
    fn replayed_children_end_where_the_parent_ends() {
        let mut r = Recorder::default();
        let root = r.push(None, 3, "service.request", 1_000, 2_000, none());
        let kids = r.push_children(root, &[("x", 300, none()), ("y", 200, none())]);
        let (x, y) = (&r.spans()[kids[0] as usize], &r.spans()[kids[1] as usize]);
        assert_eq!((x.start_ns, x.end_ns, y.start_ns, y.end_ns), (1_500, 1_800, 1_800, 2_000));
        assert_eq!(x.request, 3);
        assert_eq!(r.self_times()[root as usize], 500);
        // Children longer than the parent start with it; self time clamps at 0.
        let tight = r.push(None, 4, "service.request", 0, 100, none());
        r.push_children(tight, &[("x", 300, none())]);
        assert_eq!(r.self_times()[tight as usize], 0);
        let by = r.by_name();
        assert_eq!(by["x"].0, 2);
    }
}
