//! Graph adjacency storage.
//!
//! Two representations with one read interface ([`GraphView`]):
//!
//! * [`VarGraph`] — `Vec<Vec<u32>>`, mutable, used *during construction* where
//!   degrees fluctuate (pruning, reverse-edge insertion, connectivity repair);
//! * [`FlatGraph`] — a single flat `Vec<u32>` with fixed per-node capacity and
//!   a length array, used *at search time*: no pointer chasing, neighbors of a
//!   node are one contiguous cache-friendly slice, and (de)serialization is a
//!   pair of bulk copies.
//!
//! Node ids are `u32` throughout the workspace (datasets ≤ 4.29 B points).

/// Read-only view over adjacency, shared by both representations and by the
/// search routines.
pub trait GraphView {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Out-neighbors of `u`.
    fn neighbors(&self, u: u32) -> &[u32];

    /// Sum of out-degrees.
    fn num_edges(&self) -> usize {
        (0..self.num_nodes() as u32).map(|u| self.neighbors(u).len()).sum()
    }
    /// Average out-degree.
    fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }
    /// Maximum out-degree.
    fn max_degree(&self) -> usize {
        (0..self.num_nodes() as u32).map(|u| self.neighbors(u).len()).max().unwrap_or(0)
    }
}

/// Mutable adjacency used during index construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarGraph {
    adj: Vec<Vec<u32>>,
}

impl VarGraph {
    /// Create a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        VarGraph { adj: vec![Vec::new(); n] }
    }

    /// Add a directed edge `u -> v` (no dedup; callers dedup where needed).
    #[inline]
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.adj[u as usize].push(v);
    }

    /// Add `u -> v` only if not already present. Returns whether it was added.
    pub fn add_edge_dedup(&mut self, u: u32, v: u32) -> bool {
        let list = &mut self.adj[u as usize];
        if list.contains(&v) {
            false
        } else {
            list.push(v);
            true
        }
    }

    /// Replace the out-neighbors of `u`.
    pub fn set_neighbors(&mut self, u: u32, neighbors: Vec<u32>) {
        self.adj[u as usize] = neighbors;
    }

    /// Mutable access to the neighbor list of `u`.
    pub fn neighbors_mut(&mut self, u: u32) -> &mut Vec<u32> {
        &mut self.adj[u as usize]
    }

    /// Append a node with the given out-neighbors, returning its id.
    pub fn push_node(&mut self, neighbors: Vec<u32>) -> u32 {
        let id = self.adj.len() as u32;
        self.adj.push(neighbors);
        id
    }
}

impl From<Vec<Vec<u32>>> for VarGraph {
    /// A graph whose node `u` has out-list `adj[u]`.
    fn from(adj: Vec<Vec<u32>>) -> Self {
        VarGraph { adj }
    }
}

impl GraphView for VarGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.adj.len()
    }
    #[inline]
    fn neighbors(&self, u: u32) -> &[u32] {
        &self.adj[u as usize]
    }
}

/// Frozen flat adjacency with fixed per-node capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatGraph {
    cap: u32,
    lens: Vec<u32>,
    data: Vec<u32>,
}

impl FlatGraph {
    /// Freeze a [`VarGraph`]. `cap` must be ≥ the maximum out-degree; pass
    /// `None` to use the maximum out-degree exactly.
    ///
    /// # Panics
    /// If an explicit `cap` is smaller than some node's degree — freezing
    /// must never silently drop edges (pruning is the construction
    /// algorithms' job, not the storage layer's).
    pub fn freeze(var: &VarGraph, cap: Option<usize>) -> Self {
        let max_deg = var.max_degree();
        let cap = cap.unwrap_or(max_deg);
        assert!(
            cap >= max_deg,
            "freeze cap {cap} smaller than max degree {max_deg}; would drop edges"
        );
        let n = var.num_nodes();
        let mut lens = Vec::with_capacity(n);
        let mut data = vec![0u32; n * cap];
        for u in 0..n as u32 {
            let nbrs = var.neighbors(u);
            lens.push(nbrs.len() as u32);
            data[u as usize * cap..u as usize * cap + nbrs.len()].copy_from_slice(nbrs);
        }
        FlatGraph { cap: cap as u32, lens, data }
    }

    /// Per-node capacity.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Bytes of adjacency payload (the index-size statistic in E2).
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * 4 + self.lens.len() * 4
    }

    /// Apply a node-id permutation: new node `i` gets old node `order[i]`'s
    /// neighbor list (slot order preserved), with every neighbor id rewritten
    /// through `old_to_new`. `old_to_new` must be the inverse of `order` (see
    /// `crate::relayout::invert_order`); capacity is unchanged, so auxiliary
    /// slot-aligned arrays (e.g. QEO edge lengths) can be permuted in
    /// lockstep.
    pub fn permute(&self, order: &[u32], old_to_new: &[u32]) -> FlatGraph {
        let n = self.num_nodes();
        debug_assert_eq!(order.len(), n, "permutation length mismatch");
        debug_assert_eq!(old_to_new.len(), n, "inverse permutation length mismatch");
        let cap = self.cap as usize;
        let mut lens = Vec::with_capacity(n);
        let mut data = vec![0u32; n * cap];
        for (new_u, &old_u) in order.iter().enumerate() {
            let nbrs = self.neighbors(old_u);
            lens.push(nbrs.len() as u32);
            for (slot, &v) in nbrs.iter().enumerate() {
                data[new_u * cap + slot] = old_to_new[v as usize];
            }
        }
        FlatGraph { cap: self.cap, lens, data }
    }

    /// Internal accessors for serialization.
    pub(crate) fn raw_parts(&self) -> (u32, &[u32], &[u32]) {
        (self.cap, &self.lens, &self.data)
    }

    /// Rebuild from serialized parts (validated by the caller).
    pub(crate) fn from_raw_parts(cap: u32, lens: Vec<u32>, data: Vec<u32>) -> Self {
        FlatGraph { cap, lens, data }
    }
}

impl GraphView for FlatGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.lens.len()
    }
    #[inline]
    fn neighbors(&self, u: u32) -> &[u32] {
        let u = u as usize;
        let cap = self.cap as usize;
        &self.data[u * cap..u * cap + self.lens[u] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> VarGraph {
        let mut g = VarGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(0, 2);
        g
    }

    #[test]
    fn var_graph_basics() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dedup_insert() {
        let mut g = VarGraph::new(2);
        assert!(g.add_edge_dedup(0, 1));
        assert!(!g.add_edge_dedup(0, 1));
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn set_and_mutate_neighbors() {
        let mut g = triangle();
        g.set_neighbors(0, vec![2]);
        assert_eq!(g.neighbors(0), &[2]);
        g.neighbors_mut(0).push(1);
        assert_eq!(g.neighbors(0), &[2, 1]);
    }

    #[test]
    fn push_node_appends() {
        let mut g = triangle();
        let id = g.push_node(vec![0, 1]);
        assert_eq!(id, 3);
        assert_eq!(g.neighbors(3), &[0, 1]);
    }

    #[test]
    fn freeze_preserves_adjacency() {
        let g = triangle();
        let f = FlatGraph::freeze(&g, None);
        assert_eq!(f.num_nodes(), 3);
        assert_eq!(f.capacity(), 2);
        for u in 0..3u32 {
            assert_eq!(f.neighbors(u), g.neighbors(u));
        }
        assert_eq!(f.num_edges(), g.num_edges());
    }

    #[test]
    fn freeze_with_larger_cap() {
        let g = triangle();
        let f = FlatGraph::freeze(&g, Some(8));
        assert_eq!(f.capacity(), 8);
        assert_eq!(f.neighbors(1), &[2]);
    }

    #[test]
    #[should_panic(expected = "would drop edges")]
    fn freeze_with_too_small_cap_panics() {
        let g = triangle();
        let _ = FlatGraph::freeze(&g, Some(1));
    }

    #[test]
    fn empty_graph() {
        let g = VarGraph::new(0);
        let f = FlatGraph::freeze(&g, None);
        assert_eq!(f.num_nodes(), 0);
        assert_eq!(f.num_edges(), 0);
        assert_eq!(f.max_degree(), 0);
        assert_eq!(f.avg_degree(), 0.0);
    }

    #[test]
    fn isolated_nodes_have_no_neighbors() {
        let g = VarGraph::new(4);
        let f = FlatGraph::freeze(&g, Some(3));
        for u in 0..4u32 {
            assert!(f.neighbors(u).is_empty());
        }
        assert_eq!(f.memory_bytes(), 4 * 3 * 4 + 4 * 4);
    }
}
