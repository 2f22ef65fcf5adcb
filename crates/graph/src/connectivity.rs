//! Connectivity utilities used by graph construction (NSG-style spanning-tree
//! repair) and by the analysis experiments.

use crate::adjacency::{GraphView, VarGraph};
use crate::search::{beam_search_dyn, Scratch};
use ann_vectors::{Metric, VecStore};

/// Ids reachable from `start` by directed BFS (including `start`).
pub fn bfs_reachable<G: GraphView>(graph: &G, start: u32) -> Vec<bool> {
    let n = graph.num_nodes();
    let mut seen = vec![false; n];
    if n == 0 {
        return seen;
    }
    let mut queue = std::collections::VecDeque::new();
    seen[start as usize] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

/// Number of nodes reachable from `start` (including itself).
pub fn reachable_count<G: GraphView>(graph: &G, start: u32) -> usize {
    bfs_reachable(graph, start).iter().filter(|&&b| b).count()
}

/// Whether every node is reachable from `start`.
pub fn fully_reachable<G: GraphView>(graph: &G, start: u32) -> bool {
    reachable_count(graph, start) == graph.num_nodes()
}

/// Make every node reachable from `root` by attaching each unreached node to
/// a reached "anchor" chosen by the caller.
///
/// Repeatedly BFS-es from `root`; for the first unreached node found, calls
/// `anchor(unreached) -> anchor_id` (the construction algorithms answer with
/// the nearest reached node found by a beam search) and adds the directed
/// edge `anchor -> unreached`. Falls back to linking straight from `root` if
/// the returned anchor is itself unreached — guaranteeing termination in at
/// most `n` repairs.
///
/// Returns the number of edges added.
pub fn attach_unreachable<F>(graph: &mut VarGraph, root: u32, mut anchor: F) -> usize
where
    F: FnMut(&VarGraph, u32) -> u32,
{
    let mut added = 0;
    loop {
        let seen = bfs_reachable(graph, root);
        let Some(orphan) = seen.iter().position(|&b| !b) else {
            return added;
        };
        let orphan = orphan as u32; // cast: node index fits u32
        let mut a = anchor(graph, orphan);
        if !seen[a as usize] || a == orphan {
            a = root;
        }
        graph.add_edge_dedup(a, orphan);
        added += 1;
    }
}

/// Connectivity repair: make every node reachable from `entry` by linking
/// each orphan from the nearest node a beam search (for the orphan's vector)
/// can reach, without letting any out-list exceed `cap`. Returns edges added.
///
/// The repair alternates two phases until both are quiescent:
///
/// 1. **attach** — for each unreached node, pick the nearest beam-reached
///    anchor (preferring one with a free slot so phase 2 has no work) and add
///    the directed edge `anchor -> orphan`, remembering it as *forced*;
/// 2. **trim** — any node the attach pushed over `cap` keeps all forced
///    edges plus its nearest remaining neighbors up to `cap`.
///
/// Trimming can in principle cut a bridge and re-orphan nodes, so the loop
/// re-checks reachability; the forced set only grows, which bounds the
/// iteration. A node keeps more than `cap` edges only in the degenerate case
/// where more than `cap` orphans were forced onto it, which spare-slot anchor
/// selection makes unreachable in practice.
pub fn repair_connectivity(
    graph: &mut VarGraph,
    store: &VecStore,
    metric: Metric,
    entry: u32,
    l: usize,
    cap: usize,
) -> usize {
    let n = store.len();
    let mut scratch = Scratch::new(n);
    let mut forced: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    let mut added = 0usize;
    loop {
        // Phase 1: attach every orphan.
        loop {
            let seen = bfs_reachable(graph, entry);
            let Some(orphan) = seen.iter().position(|&s| !s) else {
                break;
            };
            let orphan = orphan as u32; // cast: node index fits u32
            beam_search_dyn(metric, store, graph, &[entry], store.get(orphan), l, &mut scratch);
            let pool = scratch.pool.as_slice();
            // Every pool entry was reached from `entry`, so any of them is a
            // valid anchor; prefer the nearest with a free slot.
            let anchor = pool
                .iter()
                .map(|c| c.id)
                .find(|&id| id != orphan && graph.neighbors(id).len() < cap)
                .or_else(|| pool.iter().map(|c| c.id).find(|&id| id != orphan))
                .unwrap_or(entry);
            graph.add_edge_dedup(anchor, orphan);
            forced.insert((anchor, orphan));
            added += 1;
        }
        // Phase 2: restore the degree cap, never dropping forced edges.
        let mut trimmed = false;
        // cast: node count fits u32, the graph id type
        for u in 0..n as u32 {
            if graph.neighbors(u).len() <= cap {
                continue;
            }
            let vu = store.get(u);
            let mut nbrs: Vec<(bool, f32, u32)> = graph
                .neighbors(u)
                .iter()
                .map(|&w| (!forced.contains(&(u, w)), metric.distance(vu, store.get(w)), w))
                .collect();
            // Forced edges first (false < true), then by distance.
            nbrs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
            let keep = cap.max(nbrs.iter().filter(|e| !e.0).count());
            let list: Vec<u32> = nbrs.into_iter().take(keep).map(|e| e.2).collect();
            graph.set_neighbors(u, list);
            trimmed = true;
        }
        if !trimmed {
            return added;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_components() -> VarGraph {
        let mut g = VarGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        g
    }

    #[test]
    fn bfs_sees_only_its_component() {
        let g = two_components();
        let seen = bfs_reachable(&g, 0);
        assert_eq!(seen, vec![true, true, true, false, false]);
        assert_eq!(reachable_count(&g, 0), 3);
        assert!(!fully_reachable(&g, 0));
    }

    #[test]
    fn bfs_respects_direction() {
        let mut g = VarGraph::new(2);
        g.add_edge(0, 1);
        assert!(fully_reachable(&g, 0));
        assert_eq!(reachable_count(&g, 1), 1);
    }

    #[test]
    fn attach_repairs_connectivity() {
        let mut g = two_components();
        let added = attach_unreachable(&mut g, 0, |_, orphan| {
            // Pretend a search found node 2 as the nearest reached anchor.
            assert!(orphan == 3 || orphan == 4);
            2
        });
        assert_eq!(added, 1, "attaching 3 also reaches 4");
        assert!(fully_reachable(&g, 0));
        assert!(g.neighbors(2).contains(&3));
    }

    #[test]
    fn attach_falls_back_to_root_on_bad_anchor() {
        let mut g = two_components();
        let added = attach_unreachable(&mut g, 0, |_, orphan| orphan); // useless anchor
        assert_eq!(added, 1);
        assert!(g.neighbors(0).contains(&3));
        assert!(fully_reachable(&g, 0));
    }

    #[test]
    fn already_connected_adds_nothing() {
        let mut g = VarGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let added = attach_unreachable(&mut g, 0, |_, _| unreachable!());
        assert_eq!(added, 0);
    }

    #[test]
    fn empty_graph_is_trivially_connected() {
        let g = VarGraph::new(0);
        assert_eq!(bfs_reachable(&g, 0).len(), 0);
    }
}
