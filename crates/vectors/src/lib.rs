//! # ann-vectors
//!
//! Vector substrate for the τ-MG reproduction workspace: flat storage,
//! distance kernels, synthetic dataset generators, exact ground truth,
//! accuracy metrics, file formats and a small scoped-thread parallel layer.
//!
//! Everything downstream (graph construction, baselines, the τ-MG core, the
//! evaluation harness) is built on the types in this crate:
//!
//! * [`store::VecStore`] — contiguous row-major f32 vectors;
//! * [`metric::Metric`] / [`metric::MetricKernel`] — dissimilarities with a
//!   uniform smaller-is-better orientation;
//! * [`kernel`] — the runtime-dispatched scalar/SIMD kernel pair behind
//!   every distance call (`ANN_KERNEL=scalar|simd`);
//! * [`sq8`] — u8 scalar-quantized side-car with fused asymmetric kernels
//!   (the beam-expansion fast path; exact re-rank lives in the search layer);
//! * [`synthetic`] — seeded generators standing in for the paper's datasets;
//! * [`gt`] + [`accuracy`] — exact answers, recall@k and rderr@k;
//! * [`parallel`] — dynamic-block `parallel_for`/`parallel_map` on scoped
//!   threads (the approved dependency set has no rayon);
//! * [`codec`] — the one checksummed frame codec every on-disk format uses;
//! * [`io`] — fvecs/ivecs interchange plus a checksummed binary snapshot.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod codec;
pub mod error;
pub mod gt;
pub mod io;
pub mod kernel;
pub mod metric;
pub mod parallel;
pub mod route;
pub mod sq8;
pub mod store;
pub mod synthetic;
pub mod topk;

pub use error::{AnnError, Result};
pub use gt::{brute_force_ground_truth, GroundTruth};
pub use kernel::{kernel_path, set_kernel_path, KernelPath};
pub use metric::{CosineKernel, IpKernel, L2Kernel, Metric, MetricKernel};
pub use sq8::{Sq8Query, Sq8Store};
pub use store::VecStore;
pub use synthetic::{Dataset, Recipe};
pub use topk::TopK;

#[cfg(test)]
mod send_sync_assertions {
    //! Compile-time concurrency audit: serving shares these across threads.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn vector_types_are_send_sync() {
        assert_send_sync::<VecStore>();
        assert_send_sync::<Metric>();
        assert_send_sync::<GroundTruth>();
    }
}
