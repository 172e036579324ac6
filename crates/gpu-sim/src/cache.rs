//! Suite-scale memoization for the profiler.
//!
//! Profiles are pure functions of (kernel IR, launch, hardware), and the
//! body-fold [`KernelIr::summarize`] is pure in (kernel IR, launch
//! parameters) alone — it never sees the hardware. A cross-hardware suite
//! therefore re-derives enormous amounts of identical work: every spec
//! re-folds the same 210-kernel corpus, and every repeated suite run
//! re-profiles launches that were profiled before.
//!
//! [`SimCaches`] collapses both:
//!
//! * [`SummaryCache`] — one [`BodySummary`] per distinct (IR, params)
//!   pair, shared by every hardware spec,
//! * [`ProfileCache`] — one [`KernelProfile`] per distinct
//!   (IR, launch, hardware, L2-ablation) tuple, shared across suite runs.
//!
//! Entries are bucketed by a structural fingerprint and verified with
//! full equality before reuse, so a fingerprint collision can never
//! surface a wrong value: cached and cold paths are bit-identical by
//! construction (the [`pce_memo::Memo`] contract). Hit/miss counters feed
//! the bench harness's cache-effectiveness report.

use std::collections::BTreeMap;
use std::sync::Arc;

use pce_memo::{Fnv, LayerBudget, Memo};
use pce_roofline::HardwareSpec;

use crate::ir::{BodySummary, KernelIr};
use crate::launch::LaunchConfig;
use crate::profiler::KernelProfile;

pub use pce_memo::CacheCounters;

/// Byte budget for the simulator's two memo layers (body summaries and
/// profiles), each bounded to the same capacity.
pub type SimBudget = LayerBudget;

/// Approximate heap bytes of a launch-parameter map.
fn map_bytes(map: &BTreeMap<String, u64>) -> u64 {
    map.keys().map(|k| k.len() as u64 + 16).sum()
}

/// Key of one memoized body summary: the hardware-independent inputs of
/// [`KernelIr::summarize`].
#[derive(Debug, PartialEq)]
struct SummaryKey {
    ir: KernelIr,
    params: BTreeMap<String, u64>,
}

/// The shared body-summary cache (hardware-independent phase).
#[derive(Debug, Default)]
pub struct SummaryCache {
    memo: Memo<SummaryKey, BodySummary>,
}

impl SummaryCache {
    /// A cache bounded per `budget`, charging each entry its key's
    /// IR/params footprint plus the summary itself.
    fn with_budget(budget: SimBudget) -> SummaryCache {
        let cost = |k: &SummaryKey, v: &BodySummary| {
            k.ir.approx_bytes()
                + map_bytes(&k.params)
                + std::mem::size_of::<BodySummary>() as u64
                + v.demands.len() as u64 * 64
        };
        SummaryCache {
            memo: budget.memo(cost),
        }
    }
    /// The folded summary of `ir` under `params`, computed at most once
    /// per distinct (IR, params) pair.
    pub fn summary(&self, ir: &KernelIr, params: &BTreeMap<String, u64>) -> Arc<BodySummary> {
        let mut h = Fnv::new();
        h.u64(ir.fingerprint());
        h.map_u64(params);
        self.memo.get_or_insert_with(
            h.finish(),
            |k| k.ir == *ir && k.params == *params,
            || SummaryKey {
                ir: ir.clone(),
                params: params.clone(),
            },
            || ir.summarize(params),
        )
    }

    /// Hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        self.memo.counters()
    }

    /// Number of distinct summaries held.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Key of one memoized profile: the full launch identity, hardware
/// included (hardware-dependent phase).
#[derive(Debug, PartialEq)]
struct ProfileKey {
    ir: KernelIr,
    launch: LaunchConfig,
    hw: HardwareSpec,
    l2_enabled: bool,
}

/// The per-(kernel, launch, hardware) profile memo.
#[derive(Debug, Default)]
pub struct ProfileCache {
    memo: Memo<ProfileKey, KernelProfile>,
}

impl ProfileCache {
    /// A cache bounded per `budget`, charging each entry its full
    /// launch-identity key plus the profile.
    fn with_budget(budget: SimBudget) -> ProfileCache {
        let cost = |k: &ProfileKey, v: &KernelProfile| {
            k.ir.approx_bytes()
                + map_bytes(&k.launch.params)
                + std::mem::size_of::<LaunchConfig>() as u64
                + std::mem::size_of::<HardwareSpec>() as u64
                + k.hw.name.len() as u64
                + std::mem::size_of::<KernelProfile>() as u64
                + v.kernel.len() as u64
                + v.hardware.len() as u64
                + v.buffers.len() as u64 * 64
        };
        ProfileCache {
            memo: budget.memo(cost),
        }
    }

    /// The profile for this launch identity, computed at most once.
    pub(crate) fn profile(
        &self,
        ir: &KernelIr,
        launch: &LaunchConfig,
        hw: &HardwareSpec,
        l2_enabled: bool,
        compute: impl FnOnce() -> KernelProfile,
    ) -> Arc<KernelProfile> {
        let mut h = Fnv::new();
        h.u64(ir.fingerprint());
        h.map_u64(&launch.params);
        for d in [launch.grid, launch.block] {
            h.u64(d.x as u64);
            h.u64(d.y as u64);
            h.u64(d.z as u64);
        }
        h.u64(launch.regs_per_thread as u64);
        h.u64(launch.shared_bytes_per_block as u64);
        h.str(&hw.name);
        h.u64(l2_enabled as u64);
        self.memo.get_or_insert_with(
            h.finish(),
            |k| k.l2_enabled == l2_enabled && k.ir == *ir && k.launch == *launch && k.hw == *hw,
            || ProfileKey {
                ir: ir.clone(),
                launch: launch.clone(),
                hw: hw.clone(),
                l2_enabled,
            },
            compute,
        )
    }

    /// Hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        self.memo.counters()
    }

    /// Number of distinct profiles held.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The simulator's shared cache bundle. `Clone` is shallow: clones share
/// storage, so one bundle can serve a whole suite (and successive suite
/// runs) across threads.
#[derive(Debug, Clone, Default)]
pub struct SimCaches {
    inner: Arc<SimCachesInner>,
}

#[derive(Debug, Default)]
struct SimCachesInner {
    summaries: SummaryCache,
    profiles: ProfileCache,
}

impl SimCaches {
    /// A fresh, empty, unbounded cache bundle.
    pub fn new() -> SimCaches {
        SimCaches::default()
    }

    /// A fresh bundle with each layer bounded per `budget`. Bounded and unbounded bundles produce
    /// byte-identical results — every cached function is pure, so an
    /// eviction only costs recomputation.
    pub fn with_budget(budget: SimBudget) -> SimCaches {
        SimCaches {
            inner: Arc::new(SimCachesInner {
                summaries: SummaryCache::with_budget(budget),
                profiles: ProfileCache::with_budget(budget),
            }),
        }
    }

    /// The shared body-summary cache.
    pub fn summaries(&self) -> &SummaryCache {
        &self.inner.summaries
    }

    /// The per-(kernel, launch, hardware) profile memo.
    pub fn profiles(&self) -> &ProfileCache {
        &self.inner.profiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AccessPattern, Extent, Op, Precision};

    fn saxpy() -> (KernelIr, LaunchConfig) {
        let k = KernelIr::builder("saxpy")
            .buffer("x", 4, Extent::Param("n".into()))
            .buffer("y", 4, Extent::Param("n".into()))
            .op(Op::load("x", AccessPattern::Coalesced))
            .op(Op::load("y", AccessPattern::Coalesced))
            .op(Op::fma(Precision::F32))
            .op(Op::store("y", AccessPattern::Coalesced))
            .build();
        let lc = LaunchConfig::linear(1 << 20, 256)
            .unwrap()
            .with_param("n", 1 << 20);
        (k, lc)
    }

    #[test]
    fn summary_cache_returns_identical_values_and_counts_hits() {
        let caches = SimCaches::new();
        let (k, lc) = saxpy();
        let a = caches.summaries().summary(&k, &lc.params);
        let b = caches.summaries().summary(&k, &lc.params);
        assert_eq!(*a, *b);
        assert_eq!(*a, k.summarize(&lc.params));
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the entry");
        let c = caches.summaries().counters();
        assert_eq!((c.hits, c.misses), (1, 1));
        assert_eq!(caches.summaries().len(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_cache_distinguishes_params() {
        let caches = SimCaches::new();
        let (k, _) = saxpy();
        let p1 = LaunchConfig::linear(1 << 10, 256)
            .unwrap()
            .with_param("n", 1 << 10);
        let p2 = LaunchConfig::linear(1 << 12, 256)
            .unwrap()
            .with_param("n", 1 << 12);
        let a = caches.summaries().summary(&k, &p1.params);
        let b = caches.summaries().summary(&k, &p2.params);
        // saxpy's per-thread costs do not depend on n, so the values are
        // equal — but the entries must stay distinct (no false sharing).
        assert!(!Arc::ptr_eq(&a, &b), "distinct params shared one entry");
        assert_eq!(caches.summaries().len(), 2);
        assert_eq!(caches.summaries().counters().misses, 2);
    }

    #[test]
    fn shared_clones_share_storage() {
        let caches = SimCaches::new();
        let alias = caches.clone();
        let (k, lc) = saxpy();
        let _ = caches.summaries().summary(&k, &lc.params);
        assert_eq!(alias.summaries().counters().misses, 1);
        let _ = alias.summaries().summary(&k, &lc.params);
        assert_eq!(caches.summaries().counters().hits, 1);
    }

    #[test]
    fn memo_is_safe_under_concurrent_lookups() {
        let caches = SimCaches::new();
        let (k, lc) = saxpy();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let caches = caches.clone();
                let (k, lc) = (k.clone(), lc.clone());
                s.spawn(move || {
                    for _ in 0..50 {
                        let v = caches.summaries().summary(&k, &lc.params);
                        assert_eq!(*v, k.summarize(&lc.params));
                    }
                });
            }
        });
        assert_eq!(caches.summaries().len(), 1);
        let c = caches.summaries().counters();
        assert_eq!(c.total(), 400);
        assert!(c.hits >= 392, "at most one miss per racing thread: {c:?}");
    }
}
