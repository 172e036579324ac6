//! The nvprof-like profiler front end.
//!
//! [`Profiler::profile`] runs the whole pipeline for one launch in two
//! phases — a hardware-*independent* summary phase ([`Profiler::summary`]:
//! fold the IR against the launch parameters) and a hardware-*dependent*
//! resolve phase ([`Profiler::resolve`]: memory system + timing) — and
//! packages the result as a [`KernelProfile`] exposing exactly the
//! counters the paper's ground-truth labeling consumes, plus a
//! human-readable report.
//!
//! Attach a [`SimCaches`] bundle with [`Profiler::with_caches`] to memoize
//! both phases: summaries are shared across every hardware spec that folds
//! the same (IR, params) pair, and whole profiles are shared across
//! repeated suite runs. Cached and uncached profiling are bit-identical —
//! both phases are pure functions of their inputs.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pce_roofline::{HardwareSpec, KernelObservation, OpCounts};

use crate::cache::SimCaches;
use crate::ir::{BodySummary, KernelIr};
use crate::launch::LaunchConfig;
use crate::memory::{resolve_memory, BufferTraffic, MemoryResolution};
use crate::timing::{estimate_runtime, TimingBreakdown};

/// A complete profiled kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name.
    pub kernel: String,
    /// Hardware the profile was taken on.
    pub hardware: String,
    /// The five paper counters (ops + DRAM bytes).
    pub counts: OpCounts,
    /// Estimated runtime in seconds.
    pub runtime_s: f64,
    /// Timing breakdown (bottleneck analysis).
    pub timing: TimingBreakdown,
    /// Per-buffer traffic breakdown.
    pub buffers: Vec<BufferTraffic>,
    /// Launch geometry, echoed for reports.
    pub grid: (u32, u32, u32),
    /// Block geometry.
    pub block: (u32, u32, u32),
}

impl KernelProfile {
    /// Convert to the roofline crate's observation type.
    pub fn observation(&self) -> KernelObservation {
        KernelObservation::new(self.counts, self.runtime_s)
    }

    /// Render an `nvprof`-style text report.
    pub fn report(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "==PROF== Kernel: {}  on {}\n",
            self.kernel, self.hardware
        ));
        out.push_str(&format!(
            "  grid {:?}  block {:?}  runtime {:.3} us  bottleneck {}\n",
            self.grid,
            self.block,
            self.runtime_s * 1e6,
            self.timing.bottleneck()
        ));
        out.push_str(&format!(
            "  flop_count_sp {:>16}\n  flop_count_dp {:>16}\n  int_count     {:>16}\n",
            self.counts.flops_sp, self.counts.flops_dp, self.counts.intops
        ));
        out.push_str(&format!(
            "  dram_read     {:>16} B\n  dram_write    {:>16} B\n",
            self.counts.dram_read_bytes, self.counts.dram_write_bytes
        ));
        out.push_str(&format!(
            "  occupancy {:.2}  wave_eff {:.2}\n",
            self.timing.occupancy, self.timing.wave_efficiency
        ));
        for b in &self.buffers {
            out.push_str(&format!(
                "  buffer {:<12} footprint {:>12.0} B  dram_rd {:>14.0} B  dram_wr {:>14.0} B  hit {:.2}\n",
                b.buffer,
                b.footprint_bytes,
                b.dram_read_bytes,
                b.dram_write_bytes,
                b.read_hit_rate()
            ));
        }
        out
    }
}

/// The profiler: owns the hardware model and, optionally, a shared cache
/// bundle.
#[derive(Debug, Clone)]
pub struct Profiler {
    hw: HardwareSpec,
    /// When false, the L2 model is bypassed and requested bytes hit DRAM
    /// directly — the "no cache" ablation from DESIGN.md.
    cache_enabled: bool,
    /// Memoization layer; `None` profiles from scratch on every call.
    caches: Option<SimCaches>,
}

impl Profiler {
    /// Create a profiler for the given hardware.
    pub fn new(hw: HardwareSpec) -> Self {
        Profiler {
            hw,
            cache_enabled: true,
            caches: None,
        }
    }

    /// Disable the L2 model (ablation).
    pub fn without_cache(mut self) -> Self {
        self.cache_enabled = false;
        self
    }

    /// Attach a shared memoization bundle (builder style). Clones of one
    /// [`SimCaches`] share storage, so profilers for different hardware
    /// specs reuse each other's body summaries.
    pub fn with_caches(mut self, caches: SimCaches) -> Self {
        self.caches = Some(caches);
        self
    }

    /// The hardware model in use.
    pub fn hardware(&self) -> &HardwareSpec {
        &self.hw
    }

    /// Phase 1 (hardware-independent): fold the kernel body against the
    /// launch parameters. Served from the shared summary cache when one is
    /// attached.
    pub fn summary(&self, kernel: &KernelIr, launch: &LaunchConfig) -> Arc<BodySummary> {
        match &self.caches {
            Some(c) => c.summaries().summary(kernel, &launch.params),
            None => Arc::new(kernel.summarize(&launch.params)),
        }
    }

    /// Phase 2 (hardware-dependent): resolve the memory system and timing
    /// model for a pre-folded summary and package the profile.
    pub fn resolve(
        &self,
        kernel: &KernelIr,
        launch: &LaunchConfig,
        summary: &BodySummary,
    ) -> KernelProfile {
        let mem = if self.cache_enabled {
            resolve_memory(&self.hw, kernel, launch, &summary.demands)
        } else {
            uncached_memory(&self.hw, kernel, launch, &summary.demands)
        };
        let timing = estimate_runtime(&self.hw, launch, &summary.costs, &mem);

        let threads = launch.total_threads() as f64;
        let counts = OpCounts {
            flops_sp: (summary.costs.flops_sp * threads).round() as u64,
            flops_dp: (summary.costs.flops_dp * threads).round() as u64,
            intops: (summary.costs.intops * threads).round() as u64,
            dram_read_bytes: mem.dram_read_bytes.round() as u64,
            dram_write_bytes: mem.dram_write_bytes.round() as u64,
        };

        KernelProfile {
            kernel: kernel.name.clone(),
            hardware: self.hw.name.clone(),
            counts,
            runtime_s: timing.runtime_s,
            timing,
            buffers: mem.buffers,
            grid: (launch.grid.x, launch.grid.y, launch.grid.z),
            block: (launch.block.x, launch.block.y, launch.block.z),
        }
    }

    /// Profile one kernel launch (summary phase, then resolve phase).
    pub fn profile(&self, kernel: &KernelIr, launch: &LaunchConfig) -> KernelProfile {
        match &self.caches {
            None => {
                let summary = kernel.summarize(&launch.params);
                self.resolve(kernel, launch, &summary)
            }
            Some(_) => (*self.profile_shared(kernel, launch)).clone(),
        }
    }

    /// Profile one kernel launch, sharing the result allocation through
    /// the attached profile memo (or a fresh `Arc` when uncached). The
    /// preferred entry point for bulk pipelines that only read the profile.
    pub fn profile_shared(&self, kernel: &KernelIr, launch: &LaunchConfig) -> Arc<KernelProfile> {
        match &self.caches {
            None => {
                let summary = kernel.summarize(&launch.params);
                Arc::new(self.resolve(kernel, launch, &summary))
            }
            Some(c) => c
                .profiles()
                .profile(kernel, launch, &self.hw, self.cache_enabled, || {
                    let summary = self.summary(kernel, launch);
                    self.resolve(kernel, launch, &summary)
                }),
        }
    }
}

/// The no-cache ablation: requested bytes (after coalescing) go straight
/// to DRAM.
fn uncached_memory(
    hw: &HardwareSpec,
    kernel: &KernelIr,
    launch: &LaunchConfig,
    demands: &[crate::ir::MemDemand],
) -> MemoryResolution {
    // Reuse the full model but with an L2 of one byte: every capacity term
    // collapses to a miss.
    let mut tiny = hw.clone();
    tiny.l2_bytes = 1;
    resolve_memory(&tiny, kernel, launch, demands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AccessPattern, Extent, Op, Precision};

    fn saxpy(n: u64) -> (KernelIr, LaunchConfig) {
        let k = KernelIr::builder("saxpy")
            .buffer("x", 4, Extent::Param("n".into()))
            .buffer("y", 4, Extent::Param("n".into()))
            .op(Op::load("x", AccessPattern::Coalesced))
            .op(Op::load("y", AccessPattern::Coalesced))
            .op(Op::fma(Precision::F32))
            .op(Op::store("y", AccessPattern::Coalesced))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        (k, lc)
    }

    #[test]
    fn profile_counts_match_analytic_expectation() {
        let n = 1 << 22;
        let (k, lc) = saxpy(n);
        let p = Profiler::new(HardwareSpec::rtx_3080()).profile(&k, &lc);
        assert_eq!(p.counts.flops_sp, 2 * lc.total_threads());
        assert_eq!(p.counts.flops_dp, 0);
        // 3 implied address int ops per thread.
        assert_eq!(p.counts.intops, 3 * lc.total_threads());
        assert!(p.runtime_s > 0.0);
    }

    #[test]
    fn saxpy_is_bandwidth_bound_on_3080() {
        let n = 16_000_000;
        let (k, lc) = saxpy(n);
        let hw = HardwareSpec::rtx_3080();
        let p = Profiler::new(hw.clone()).profile(&k, &lc);
        let joint = pce_roofline::classify_joint(&hw, &p.counts);
        assert_eq!(joint.label, pce_roofline::Boundedness::Bandwidth);
    }

    #[test]
    fn profiling_is_deterministic() {
        let (k, lc) = saxpy(1 << 20);
        let prof = Profiler::new(HardwareSpec::rtx_3080());
        let a = prof.profile(&k, &lc);
        let b = prof.profile(&k, &lc);
        assert_eq!(a, b);
    }

    #[test]
    fn phase_split_matches_fused_profile() {
        let (k, lc) = saxpy(1 << 20);
        let prof = Profiler::new(HardwareSpec::rtx_3080());
        let summary = prof.summary(&k, &lc);
        assert_eq!(*summary, k.summarize(&lc.params));
        assert_eq!(prof.resolve(&k, &lc, &summary), prof.profile(&k, &lc));
    }

    #[test]
    fn cached_profiling_is_bit_identical_and_shares_summaries() {
        let caches = SimCaches::new();
        let jobs: Vec<_> = (18..22).map(|s| saxpy(1 << s)).collect();
        // Two "specs" fold the same IR: the second must hit the summary
        // cache for every job.
        let specs = [HardwareSpec::rtx_3080(), HardwareSpec::a100()];
        for hw in &specs {
            let cold = Profiler::new(hw.clone());
            let warm = Profiler::new(hw.clone()).with_caches(caches.clone());
            for (k, lc) in &jobs {
                assert_eq!(warm.profile(k, lc), cold.profile(k, lc), "{}", hw.name);
            }
        }
        let sc = caches.summaries().counters();
        assert_eq!(sc.misses, jobs.len() as u64);
        assert_eq!(sc.hits, jobs.len() as u64, "second spec re-folded IR");
        // Re-running an identical launch hits the profile memo.
        let warm = Profiler::new(HardwareSpec::rtx_3080()).with_caches(caches.clone());
        let a = warm.profile_shared(&jobs[0].0, &jobs[0].1);
        let b = warm.profile_shared(&jobs[0].0, &jobs[0].1);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(caches.profiles().counters().hits >= 1);
    }

    #[test]
    fn l2_ablation_entries_do_not_collide_in_the_profile_memo() {
        let caches = SimCaches::new();
        let n = 4096u64;
        let k = KernelIr::builder("reuse")
            .buffer("t", 4, Extent::Param("n".into()))
            .op(Op::loop_n(
                Extent::Const(64),
                vec![Op::load("t", AccessPattern::Coalesced)],
            ))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        let hw = HardwareSpec::rtx_3080();
        let cached = Profiler::new(hw.clone()).with_caches(caches.clone());
        let ablated = Profiler::new(hw).without_cache().with_caches(caches);
        assert!(
            ablated.profile(&k, &lc).counts.dram_read_bytes
                > cached.profile(&k, &lc).counts.dram_read_bytes
        );
    }

    #[test]
    fn cache_ablation_increases_traffic_for_reuse_kernels() {
        let n = 4096u64;
        let k = KernelIr::builder("reuse")
            .buffer("t", 4, Extent::Param("n".into()))
            .op(Op::loop_n(
                Extent::Const(64),
                vec![Op::load("t", AccessPattern::Coalesced)],
            ))
            .build();
        let lc = LaunchConfig::linear(n, 256).unwrap().with_param("n", n);
        let hw = HardwareSpec::rtx_3080();
        let cached = Profiler::new(hw.clone()).profile(&k, &lc);
        let uncached = Profiler::new(hw).without_cache().profile(&k, &lc);
        assert!(
            uncached.counts.dram_read_bytes > 10 * cached.counts.dram_read_bytes,
            "uncached {} vs cached {}",
            uncached.counts.dram_read_bytes,
            cached.counts.dram_read_bytes
        );
    }

    #[test]
    fn report_contains_all_counters() {
        let (k, lc) = saxpy(1 << 18);
        let p = Profiler::new(HardwareSpec::rtx_3080()).profile(&k, &lc);
        let report = p.report();
        for needle in ["flop_count_sp", "dram_read", "occupancy", "buffer"] {
            assert!(report.contains(needle), "missing {needle} in report");
        }
    }

    #[test]
    fn observation_conversion_preserves_counts() {
        let (k, lc) = saxpy(1 << 18);
        let p = Profiler::new(HardwareSpec::rtx_3080()).profile(&k, &lc);
        let obs = p.observation();
        assert_eq!(obs.counts, p.counts);
        assert_eq!(obs.runtime_s, p.runtime_s);
    }
}
