//! Suite-scale memoization for the surrogate engine.
//!
//! A cross-hardware suite asks the engine the same pure questions over and
//! over: with 7 hardware specs × 9 models × 2 shot styles, a single corpus
//! source is statically analyzed up to ~126 times even though only a
//! handful of distinct [`AnalyzeOptions`] ever reach the estimator, and
//! each rendered prompt is re-parsed once per model despite being
//! byte-identical across the zoo.
//!
//! [`LlmCaches`] collapses that redundancy with three caches:
//!
//! * an **analysis cache** keyed by (source hash, analyze options) in
//!   front of `pce_static_analysis::analyze` — the 762-line estimator runs
//!   once per distinct question,
//! * a **classify parse cache** keyed by prompt hash in front of
//!   [`parse_classify`], which also precomputes the CLI-argument binding
//!   deep readers feed the estimator,
//! * an **RQ1 parse cache** keyed by prompt hash in front of
//!   [`parse_rq1`].
//!
//! All cached functions are pure, so cached and cold runs are
//! bit-identical; entries live in sharded, fingerprint-bucketed
//! [`pce_memo::Memo`] tables (full-equality-verified, so collisions can
//! only cost a scan). Clones share storage: one bundle can serve every
//! model, hardware spec, and repeated run of a suite.

use std::collections::BTreeMap;
use std::sync::Arc;

use pce_memo::{Fnv, LayerBudget, Memo};
use pce_static_analysis::{analyze, AnalyzeOptions, SourceAnalysis};

use crate::parse::{bind_args_to_params, parse_classify, parse_rq1, ClassifyQuestion, Rq1Question};

pub use pce_memo::CacheCounters;

/// Byte budget for the engine's three memo layers (static analyses and
/// the two prompt-parse caches), each bounded to the same capacity.
pub type LlmBudget = LayerBudget;

/// Fingerprint a prompt: word-granular FNV-1a over its bytes.
///
/// This is the engine's single per-request pass over the prompt text —
/// it keys the parse caches *and* seeds the response noise stream, so an
/// 11 KB prompt is digested once per completion instead of once per
/// consumer. Pure function of the prompt bytes.
pub fn prompt_fingerprint(prompt: &str) -> u64 {
    let mut h = Fnv::new();
    h.str(prompt);
    h.finish()
}

/// Key of one memoized static analysis: exactly the inputs of
/// [`pce_static_analysis::analyze`].
#[derive(Debug, PartialEq)]
struct AnalysisKey {
    source: String,
    params: BTreeMap<String, u64>,
    default_trip_bits: u64,
    loop_aware: bool,
}

/// A classify prompt parsed once: the recovered question plus the
/// CLI-argument binding deep readers feed the estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedClassify {
    /// The recovered classification question.
    pub question: ClassifyQuestion,
    /// `bind_args_to_params(question.source, question.args)`, precomputed
    /// so deep readers don't re-scan the source per model.
    pub deep_params: BTreeMap<String, u64>,
}

/// The engine's shared cache bundle. `Clone` is shallow: clones share
/// storage across models, hardware specs, and repeated runs.
#[derive(Debug, Clone, Default)]
pub struct LlmCaches {
    inner: Arc<LlmCachesInner>,
}

#[derive(Debug, Default)]
struct LlmCachesInner {
    analyses: Memo<AnalysisKey, SourceAnalysis>,
    classify: Memo<String, Option<ParsedClassify>>,
    rq1: Memo<String, Option<Rq1Question>>,
}

impl LlmCaches {
    /// A fresh, empty, unbounded cache bundle.
    pub fn new() -> LlmCaches {
        LlmCaches::default()
    }

    /// A fresh bundle with each layer bounded per `budget`. Entry costs are approximations dominated by the
    /// cached source/prompt text; evictions only cost recomputation, so
    /// bounded and unbounded bundles stay byte-identical.
    pub fn with_budget(budget: LlmBudget) -> LlmCaches {
        let analysis_cost = |k: &AnalysisKey, v: &SourceAnalysis| {
            k.source.len() as u64
                + k.params.keys().map(|p| p.len() as u64 + 16).sum::<u64>()
                + std::mem::size_of::<SourceAnalysis>() as u64
                + v.kernels.len() as u64 * 256
        };
        // Parsed questions carry the source text extracted from the
        // prompt, so a parse entry weighs roughly two prompt lengths.
        let classify_cost = |k: &String, _: &Option<ParsedClassify>| 2 * k.len() as u64 + 512;
        let rq1_cost = |k: &String, _: &Option<Rq1Question>| k.len() as u64 + 256;
        LlmCaches {
            inner: Arc::new(LlmCachesInner {
                analyses: budget.memo(analysis_cost),
                classify: budget.memo(classify_cost),
                rq1: budget.memo(rq1_cost),
            }),
        }
    }

    /// Run (or recall) the static analyzer for `source` under the given
    /// options, computed at most once per distinct (source, options) key.
    pub fn analysis(
        &self,
        source: &str,
        params: &BTreeMap<String, u64>,
        default_trip: f64,
        loop_aware: bool,
    ) -> Arc<SourceAnalysis> {
        let mut h = Fnv::new();
        h.str(source);
        h.map_u64(params);
        h.f64(default_trip);
        h.u64(loop_aware as u64);
        self.inner.analyses.get_or_insert_with(
            h.finish(),
            |k| {
                k.loop_aware == loop_aware
                    && k.default_trip_bits == default_trip.to_bits()
                    && k.params == *params
                    && k.source == source
            },
            || AnalysisKey {
                source: source.to_string(),
                params: params.clone(),
                default_trip_bits: default_trip.to_bits(),
                loop_aware,
            },
            || {
                analyze(
                    source,
                    &AnalyzeOptions {
                        params: params.clone(),
                        default_trip,
                        loop_aware,
                    },
                )
            },
        )
    }

    /// Parse (or recall) a classification prompt, including the deep
    /// readers' CLI-argument binding. `None` is cached too: a malformed
    /// prompt is re-answered from the prior without re-scanning.
    pub fn classify(&self, prompt: &str) -> Arc<Option<ParsedClassify>> {
        self.classify_fp(prompt, prompt_fingerprint(prompt))
    }

    /// [`LlmCaches::classify`] with the prompt's fingerprint precomputed
    /// (callers that already digested the prompt skip a second pass).
    pub fn classify_fp(&self, prompt: &str, prompt_fp: u64) -> Arc<Option<ParsedClassify>> {
        let mut h = Fnv::resume(prompt_fp);
        h.u64(0xc1);
        self.inner.classify.get_or_insert_with(
            h.finish(),
            |k| k == prompt,
            || prompt.to_string(),
            || {
                parse_classify(prompt).ok().map(|question| {
                    let deep_params = bind_args_to_params(&question.source, &question.args);
                    ParsedClassify {
                        question,
                        deep_params,
                    }
                })
            },
        )
    }

    /// Parse (or recall) the last RQ1 roofline question in a prompt.
    pub fn rq1(&self, prompt: &str) -> Arc<Option<Rq1Question>> {
        self.rq1_fp(prompt, prompt_fingerprint(prompt))
    }

    /// [`LlmCaches::rq1`] with the prompt's fingerprint precomputed.
    pub fn rq1_fp(&self, prompt: &str, prompt_fp: u64) -> Arc<Option<Rq1Question>> {
        let mut h = Fnv::resume(prompt_fp);
        h.u64(0x51);
        self.inner.rq1.get_or_insert_with(
            h.finish(),
            |k| k == prompt,
            || prompt.to_string(),
            || parse_rq1(prompt).ok(),
        )
    }

    /// Hit/miss counters of the analysis cache.
    pub fn analysis_counters(&self) -> CacheCounters {
        self.inner.analyses.counters()
    }

    /// Hit/miss counters of the classify parse cache.
    pub fn classify_counters(&self) -> CacheCounters {
        self.inner.classify.counters()
    }

    /// Hit/miss counters of the RQ1 parse cache.
    pub fn rq1_counters(&self) -> CacheCounters {
        self.inner.rq1.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "__global__ void burn(long n, float* out) {\n\
                       \x20 long i = blockIdx.x * (long)blockDim.x + threadIdx.x;\n\
                       \x20 float x = 1.5f;\n\
                       \x20 for (int s = 0; s < 1000; s++) { x = x * 1.0001f + 0.1f; }\n\
                       \x20 out[i] = x;\n}\n";

    #[test]
    fn analysis_cache_matches_direct_analyze() {
        let caches = LlmCaches::new();
        let params = BTreeMap::from([("n".to_string(), 4096u64)]);
        let a = caches.analysis(SRC, &params, 64.0, true);
        let direct = analyze(
            SRC,
            &AnalyzeOptions {
                params: params.clone(),
                default_trip: 64.0,
                loop_aware: true,
            },
        );
        assert_eq!(*a, direct);
        let b = caches.analysis(SRC, &params, 64.0, true);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(caches.analysis_counters().hits, 1);
        assert_eq!(caches.analysis_counters().misses, 1);
    }

    #[test]
    fn analysis_cache_distinguishes_options() {
        let caches = LlmCaches::new();
        let deep = caches.analysis(SRC, &BTreeMap::new(), 64.0, true);
        let shallow = caches.analysis(SRC, &BTreeMap::new(), 64.0, false);
        assert!(!Arc::ptr_eq(&deep, &shallow));
        assert_eq!(caches.analysis_counters().misses, 2);
        // Same options again: both hit.
        caches.analysis(SRC, &BTreeMap::new(), 64.0, true);
        caches.analysis(SRC, &BTreeMap::new(), 64.0, false);
        assert_eq!(caches.analysis_counters().hits, 2);
    }

    #[test]
    fn classify_cache_parses_once_and_binds_args() {
        let caches = LlmCaches::new();
        let prompt = format!(
            "Classify the CUDA kernel called burn as Bandwidth or Compute bound. \
             The system it will execute on is a Test GPU with:\n\
             - peak single-precision performance of 100 GFLOP/s\n\
             - peak double-precision performance of 50 GFLOP/s\n\
             - peak integer performance of 80 GINTOP/s\n\
             - max bandwidth of 10 GB/s\n\n\
             The block and grid sizes of the invoked kernel are (16,1,1) and (256,1,1), \
             respectively. The executable running this kernel is launched with the \
             following command-line arguments: 4096.\n\n\
             Below is the source code of the requested CUDA kernel:\n\n\
             int main(int argc, char* argv[]) {{\n\
             \x20 long n = (argc > 1) ? (long)atol(argv[1]) : 1048576;\n}}\n{SRC}"
        );
        let a = caches.classify(&prompt);
        let parsed = a.as_ref().as_ref().expect("prompt parses");
        assert_eq!(parsed.question.kernel_name, "burn");
        assert_eq!(parsed.deep_params["n"], 4096);
        let b = caches.classify(&prompt);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(caches.classify_counters().hits, 1);
    }

    #[test]
    fn unparseable_prompts_cache_their_none() {
        let caches = LlmCaches::new();
        assert!(caches.classify("hello").is_none());
        assert!(caches.classify("hello").is_none());
        assert_eq!(caches.classify_counters().hits, 1);
        assert!(caches.rq1("hello").is_none());
        assert_eq!(caches.rq1_counters().misses, 1);
    }

    #[test]
    fn rq1_cache_matches_direct_parse() {
        let caches = LlmCaches::new();
        let prompt = "Question: Given a GPU having a global memory with a max bandwidth \
                      of 45.9 GB/s and a peak performance of 52.22 GFLOP/s, if a program \
                      executed with an Arithmetic Intensity of 0.6 FLOP/Byte ... \
                      does the roofline model consider the program as compute-bound?\nAnswer:";
        let cached = caches.rq1(prompt);
        assert_eq!(*cached, parse_rq1(prompt).ok());
        let again = caches.rq1(prompt);
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn clones_share_storage_across_threads() {
        let caches = LlmCaches::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let caches = caches.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        let _ = caches.analysis(SRC, &BTreeMap::new(), 64.0, true);
                    }
                });
            }
        });
        let c = caches.analysis_counters();
        assert_eq!(c.total(), 100);
        assert!(c.hits >= 96, "at most one miss per racing thread: {c:?}");
    }
}
