//! # pce-gpu-sim
//!
//! A deterministic GPU micro-architecture simulator standing in for the
//! paper's NVIDIA RTX 3080 + profiler (nvprof/Nsight Compute) stack.
//!
//! The paper's pipeline consumes exactly five profiled quantities per kernel
//! launch — SP-FLOPs, DP-FLOPs, INTOPs, DRAM read/write bytes, and execution
//! time (§2.1). This crate reproduces that interface:
//!
//! * [`ir`] — a compact kernel IR (loop nests over arithmetic ops and
//!   pattern-annotated memory accesses) that benchmark programs lower to,
//! * [`launch`] — CUDA-style grid/block launch geometry and kernel
//!   parameters, plus an occupancy model,
//! * [`memory`] — warp-level coalescing (32-byte sectors) and a capacity/
//!   locality L2 model that converts *requested* bytes into *DRAM* bytes —
//!   the crucial source of divergence between source-apparent and empirical
//!   arithmetic intensity,
//! * [`timing`] — a bounded-resource timing model
//!   (`max(compute, memory) + launch overhead`, scaled by occupancy and
//!   divergence efficiency),
//! * [`profiler`] — the nvprof-like front end producing
//!   [`KernelProfile`](profiler::KernelProfile)s, memoized through a
//!   shared [`SimCaches`](cache::SimCaches) bundle when one is attached.
//!
//! Everything is pure arithmetic over the IR: the same (kernel, launch,
//! hardware) triple always produces bit-identical profiles, which keeps the
//! whole evaluation pipeline reproducible.
//!
//! ```
//! use pce_gpu_sim::prelude::*;
//! use pce_roofline::HardwareSpec;
//!
//! // A SAXPY kernel: y[i] = a*x[i] + y[i]
//! let kernel = KernelIr::builder("saxpy")
//!     .buffer("x", 4, Extent::Param("n".into()))
//!     .buffer("y", 4, Extent::Param("n".into()))
//!     .op(Op::load("x", AccessPattern::Coalesced))
//!     .op(Op::load("y", AccessPattern::Coalesced))
//!     .op(Op::fma(Precision::F32))
//!     .op(Op::store("y", AccessPattern::Coalesced))
//!     .guard_fraction(1.0)
//!     .build();
//!
//! let launch = LaunchConfig::linear(1 << 20, 256)
//!     .expect("valid launch shape")
//!     .with_param("n", 1 << 20);
//! let profile = Profiler::new(HardwareSpec::rtx_3080()).profile(&kernel, &launch);
//! assert!(profile.counts.flops_sp > 0);
//! assert!(profile.runtime_s > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod ir;
pub mod launch;
pub mod memory;
pub mod profiler;
pub mod timing;

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::cache::{CacheCounters, SimBudget, SimCaches};
    pub use crate::ir::{AccessPattern, Extent, IntKind, KernelIr, Op, Precision, SpecialFn};
    pub use crate::launch::{Dim3, LaunchConfig};
    pub use crate::profiler::{KernelProfile, Profiler};
}

pub use cache::{CacheCounters, SimBudget, SimCaches};
pub use ir::{AccessPattern, Extent, IntKind, KernelIr, Op, Precision, SpecialFn};
pub use launch::{Dim3, LaunchConfig};
pub use profiler::{KernelProfile, Profiler};
