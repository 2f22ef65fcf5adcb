//! # ann-graph
//!
//! Proximity-graph substrate: adjacency storage ([`adjacency`]), the bounded
//! sorted candidate pool ([`pool`]), O(1)-clear visited sets ([`visited`]),
//! a thread-safe scratch-buffer pool for concurrent serving
//! ([`scratch_pool`]), the one beam-search traversal core with uniform
//! NDC/hop accounting ([`search`]), connectivity
//! repair utilities ([`connectivity`]), binary persistence ([`serialize`]),
//! the one greedy neighbour-selection loop and reverse-edge offer every
//! builder prunes with ([`mod@select`]),
//! and the [`index::AnnIndex`] trait every index in the workspace implements.

#![forbid(unsafe_code)]

pub mod adjacency;
pub mod connectivity;
pub mod filter;
pub mod index;
pub mod pool;
pub mod relayout;
pub mod scratch_pool;
pub mod search;
pub mod select;
pub mod serialize;
pub mod visited;

pub use adjacency::{FlatGraph, GraphView, VarGraph};
pub use filter::{widened_beam, AcceptAll, BitFilter, FnFilter, SearchFilter, MAX_WIDEN_FACTOR};
pub use index::{exact_scan, AnnIndex, BruteForceIndex, FrozenGraphIndex, GraphStats, QueryResult};
pub use pool::{Candidate, Pool};
pub use relayout::{bfs_order, invert_order};
pub use scratch_pool::ScratchPool;
pub use search::{
    beam_search_collect_dyn, beam_search_dyn, beam_search_sq8_rerank, greedy_descent_dyn, traverse,
    DistanceSource, EdgeGate, Exact, NoGate, Scratch, SearchStats,
};
pub use select::{by_distance, mrng_occludes, offer_edge, select};
pub use visited::VisitedSet;

#[cfg(test)]
mod send_sync_assertions {
    //! Compile-time concurrency audit: the serving layer shares these
    //! across threads, so a lost auto-trait is a build error, not a
    //! runtime surprise.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn substrate_types_are_send_sync() {
        assert_send_sync::<FlatGraph>();
        assert_send_sync::<VarGraph>();
        assert_send_sync::<Pool>();
        assert_send_sync::<VisitedSet>();
        assert_send_sync::<Scratch>();
        assert_send_sync::<ScratchPool>();
    }
}
