//! # ann-nsg
//!
//! From-scratch NSG and SSG baselines — the MRNG-approximation family the
//! τ-MG paper builds on and compares against — and the refinement pipeline
//! they share with τ-MNG.
//!
//! * [`common::refine`] — the one pipeline: validate, medoid entry, per-node
//!   candidates pruned in parallel, reverse-edge interconnection under the
//!   same rule ([`common::inter_insert`]), spanning-tree connectivity repair,
//!   freeze. A builder supplies only its candidate source and its rule, a
//!   predicate for the one selection loop [`ann_graph::select()`];
//! * [`nsg::build_nsg`] — Navigating Spreading-out Graph: medoid-rooted
//!   candidate search ([`common::search_candidates`]) and MRNG occlusion
//!   ([`ann_graph::mrng_occludes`]);
//! * [`ssg::build_ssg`] — Satellite System Graph: 2-hop candidates and
//!   angle-based (θ = 60°) occlusion;
//! * `tau_mg::build_tau_mng` — NSG's candidate search with the τ-MG rule;
//!   at τ = 0 it builds NSG's graph;
//! * NSG and SSG yield a [`common::MonotonicIndex`] implementing
//!   [`ann_graph::AnnIndex`].

#![forbid(unsafe_code)]

pub mod common;
pub mod nsg;
pub mod ssg;

pub use common::{inter_insert, refine, repair_connectivity, search_candidates, MonotonicIndex};
pub use nsg::{build_nsg, NsgParams};
pub use ssg::{build_ssg, SsgParams};
