//! The end-to-end dataset pipeline.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

use pce_fault::PceError;
use pce_gpu_sim::SimCaches;
use pce_kernels::Program;
use pce_memo::{DedupStats, Stages};
use pce_roofline::{Boundedness, SpecPair};
use pce_tokenizer::{token_quartiles, BpeTrainer, TokenStats, Tokenizer};

use crate::engine::{self, audit_distinct, HazardAudit, Input};
use crate::sample::Sample;

/// Pipeline configuration (§2.1–2.2 defaults).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Profiling hardware, one spec per machine class: CUDA programs are
    /// profiled and labeled against `specs.gpu` (the paper's RTX 3080),
    /// OMP programs against `specs.cpu`.
    pub specs: SpecPair,
    /// Token-count cutoff (the paper's 8e3).
    pub max_tokens: usize,
    /// Per-(language × class) cap after balancing (the paper's 85).
    pub per_combo_cap: usize,
    /// Training fraction of the final dataset (the paper's 0.8).
    pub train_fraction: f64,
    /// BPE vocabulary size for token counting.
    pub tokenizer_vocab: usize,
    /// Train the tokenizer on every k-th corpus source.
    pub tokenizer_stride: usize,
    /// Shuffle seed for balancing and splitting.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            specs: SpecPair::paper_default(),
            max_tokens: 8_000,
            per_combo_cap: 85,
            train_fraction: 0.8,
            tokenizer_vocab: 1_200,
            tokenizer_stride: 7,
            seed: 0x0da7a5e7,
        }
    }
}

/// A labeled dataset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Serialize to pretty JSON.
    ///
    /// Fails with [`PceError::Io`] if the serializer reports an error —
    /// in practice only under resource exhaustion, but the signature is
    /// honest about it rather than panicking inside a library crate.
    pub fn to_json(&self) -> Result<String, PceError> {
        serde_json::to_string_pretty(self).map_err(|e| PceError::io(e.to_string()))
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<Self, PceError> {
        serde_json::from_str(json).map_err(|e| PceError::parse(e.to_string()))
    }
}

/// The 80/20 fine-tuning split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Split {
    /// Training set (~272 samples at paper scale).
    pub train: Dataset,
    /// Validation set (~68 samples).
    pub validation: Dataset,
}

/// The hardware-independent half of the pipeline for one corpus: a
/// trained tokenizer, per-program token counts, and the corpus's hazard
/// audit.
///
/// Build it once with [`tokenize_corpus`] and feed it to
/// [`run_pipeline_cached`] for every hardware spec — only profiling and
/// labeling depend on the hardware, so a cross-hardware sweep never
/// retrains the tokenizer, recounts tokens, or re-audits a source. The
/// audit runs on the first pipeline call, not here, and is kept for
/// every later call; a `TokenizedCorpus` therefore belongs to the one
/// corpus it was built from.
#[derive(Debug, Clone)]
pub struct TokenizedCorpus {
    /// The trained tokenizer (for downstream consumers such as prompts).
    pub tokenizer: Tokenizer,
    /// BPE token count per corpus program, in corpus order.
    pub token_counts: Vec<usize>,
    /// Token-count distribution over the raw corpus (`None` only for an
    /// empty corpus).
    pub raw_token_stats: Option<TokenStats>,
    /// Per-rule hazard counts over the corpus's distinct sources, filled
    /// by the first [`TokenizedCorpus::hazards`] call.
    hazards: OnceLock<BTreeMap<String, u64>>,
}

impl TokenizedCorpus {
    /// The hazard audit of `corpus` (see [`PipelineReport::hazards`]):
    /// `diagnose` runs once per distinct source on the first call, and
    /// every later call returns that result.
    pub(crate) fn hazards(&self, corpus: &[Program]) -> &BTreeMap<String, u64> {
        self.hazards.get_or_init(|| {
            let mut audit = HazardAudit::new();
            for (fp, counts) in audit_distinct(corpus.iter().map(|p| p.source.as_str())) {
                audit.observe_counts(fp, &counts);
            }
            audit.into_counts()
        })
    }
}

/// Train the tokenizer on the configured corpus subsample and token-count
/// every source. Depends only on `cfg.tokenizer_vocab` and
/// `cfg.tokenizer_stride`, never on the hardware.
pub fn tokenize_corpus(corpus: &[Program], cfg: &PipelineConfig) -> TokenizedCorpus {
    let training_docs: Vec<&str> = corpus
        .iter()
        .step_by(cfg.tokenizer_stride.max(1))
        .map(|p| p.source.as_str())
        .collect();
    let vocab = BpeTrainer::new(cfg.tokenizer_vocab).train(training_docs);
    let tokenizer = Tokenizer::new(vocab);

    let sources: Vec<&str> = corpus.iter().map(|p| p.source.as_str()).collect();
    let token_counts = tokenizer.count_batch(&sources);
    let raw_token_stats = (!token_counts.is_empty()).then(|| token_quartiles(&token_counts));
    TokenizedCorpus {
        tokenizer,
        token_counts,
        raw_token_stats,
        hazards: OnceLock::new(),
    }
}

/// Stage-by-stage counts, mirroring the paper's §2.2 funnel numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Programs profiled, per language.
    pub built: BTreeMap<String, usize>,
    /// Token-count distribution over the *raw* corpus, before the cutoff
    /// prune (`None` only for an empty corpus). Reuses the pipeline's own
    /// batch token counts, so consumers (e.g. the `dataset_stats` bin)
    /// don't retrain a tokenizer to see the pre-funnel view.
    pub raw_token_stats: Option<TokenStats>,
    /// Programs surviving the token cutoff, per language.
    pub after_prune: BTreeMap<String, usize>,
    /// Ground-truth label per input corpus program (corpus order), taken
    /// *before* pruning and balancing — the cross-hardware suite's
    /// label-flip analysis compares these vectors across specs.
    pub corpus_labels: Vec<Boundedness>,
    /// Counts per (language, class) cell before balancing.
    pub combo_before_balance: BTreeMap<String, usize>,
    /// The balanced per-cell size.
    pub per_combo: usize,
    /// Final dataset size (paper: 340).
    pub final_size: usize,
    /// Train size (paper: 272).
    pub train_size: usize,
    /// Validation size (paper: 68).
    pub validation_size: usize,
    /// Profile-level dedup over the input corpus: how many programs map
    /// to an (IR, launch, routed-hardware) tuple already seen earlier in
    /// corpus order. Variant-expanded corpora dedup heavily here — a
    /// duplicate's profile is a memo hit, not a recompute. `hit_rate()`
    /// is the headline number. Defaults for reports serialized before
    /// this field existed.
    #[serde(default)]
    pub dedup: DedupStats,
    /// Per-rule hazard diagnostic counts over the corpus's *distinct*
    /// sources (lint rule id → firings), from the
    /// `pce_static_analysis::diagnostics` audit of every generated
    /// variant. Only rules that fired appear, so a hazard-clean corpus
    /// reports an empty map — and reports serialized before this field
    /// existed deserialize to the same. Deduped by source text, so
    /// variant expansion cannot inflate the counts.
    #[serde(default)]
    pub hazards: BTreeMap<String, u64>,
}

/// Run the full pipeline over a corpus.
///
/// Returns the balanced dataset, its train/validation split, and the
/// funnel report. Tokenizes and profiles from scratch on every call;
/// cross-hardware callers should [`tokenize_corpus`] once and call
/// [`run_pipeline_cached`] per spec.
pub fn run_pipeline(corpus: &[Program], cfg: &PipelineConfig) -> (Dataset, Split, PipelineReport) {
    let tokenized = tokenize_corpus(corpus, cfg);
    run_pipeline_cached(corpus, &tokenized, cfg, &SimCaches::new())
}

/// Run the hardware-dependent half of the pipeline — profile, label,
/// prune, balance, split — over a pre-tokenized corpus, against a shared
/// profiler cache bundle. Bit-identical to [`run_pipeline`].
///
/// This is the sharded engine of
/// [`run_pipeline_streamed_timed`](crate::run_pipeline_streamed_timed)
/// over the borrowed corpus, one contiguous shard per rayon worker.
/// Profiles are memoized per (kernel, launch, *routed* spec) and body
/// summaries across specs, so a cross-hardware suite folds each kernel
/// exactly once; the hazard audit comes from `tokenized`, computed on its
/// first use.
///
/// # Panics
/// Panics when `tokenized` was built from a different corpus (length
/// mismatch), or when `cfg.specs` holds a spec in the wrong class slot.
pub fn run_pipeline_cached(
    corpus: &[Program],
    tokenized: &TokenizedCorpus,
    cfg: &PipelineConfig,
    caches: &SimCaches,
) -> (Dataset, Split, PipelineReport) {
    assert_eq!(
        tokenized.token_counts.len(),
        corpus.len(),
        "tokenized corpus does not match the program corpus"
    );
    let shard_size = corpus.len().div_ceil(rayon::current_num_threads());
    engine::run(
        Input::Corpus(corpus, tokenized),
        cfg,
        caches,
        shard_size,
        &mut Stages::start(),
    )
    .expect("a borrowed corpus fails only on an invalid spec pair")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pce_gpu_sim::Profiler;
    use pce_kernels::{build_corpus, CorpusConfig, Language};
    use pce_roofline::classify_joint;

    fn small_corpus() -> Vec<Program> {
        build_corpus(&CorpusConfig {
            seed: 3,
            cuda_programs: 90,
            omp_programs: 72,
        })
        .expect("corpus builds")
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            per_combo_cap: 10,
            tokenizer_vocab: 500,
            tokenizer_stride: 11,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_produces_balanced_cells() {
        let (dataset, _, report) = run_pipeline(&small_corpus(), &cfg());
        let mut cells: BTreeMap<(Language, Boundedness), usize> = BTreeMap::new();
        for s in &dataset.samples {
            *cells.entry(s.combo()).or_insert(0) += 1;
        }
        assert_eq!(cells.len(), 4, "all four cells populated: {cells:?}");
        let sizes: Vec<_> = cells.values().copied().collect();
        assert!(
            sizes.iter().all(|&n| n == sizes[0]),
            "unbalanced: {cells:?}"
        );
        assert_eq!(report.final_size, sizes[0] * 4);
    }

    #[test]
    fn split_sizes_follow_the_train_fraction() {
        let (dataset, split, report) = run_pipeline(&small_corpus(), &cfg());
        assert_eq!(split.train.len() + split.validation.len(), dataset.len());
        assert_eq!(report.train_size, split.train.len());
        // 80% of each cell, rounded.
        let expected_train = (report.per_combo as f64 * 0.8).round() as usize * 4;
        assert_eq!(split.train.len(), expected_train);
    }

    #[test]
    fn split_cells_stay_balanced() {
        let (_, split, _) = run_pipeline(&small_corpus(), &cfg());
        for ds in [&split.train, &split.validation] {
            let mut cells: BTreeMap<(Language, Boundedness), usize> = BTreeMap::new();
            for s in &ds.samples {
                *cells.entry(s.combo()).or_insert(0) += 1;
            }
            let sizes: Vec<_> = cells.values().copied().collect();
            assert!(sizes.iter().all(|&n| n == sizes[0]), "{cells:?}");
        }
    }

    #[test]
    fn pruning_respects_the_token_cutoff() {
        let mut c = cfg();
        c.max_tokens = 2_000;
        let (dataset, _, report) = run_pipeline(&small_corpus(), &c);
        assert!(dataset.samples.iter().all(|s| s.token_count <= 2_000));
        let built: usize = report.built.values().sum();
        let kept: usize = report.after_prune.values().sum();
        assert!(kept < built, "a 2k cutoff must drop some programs");
    }

    #[test]
    fn shared_tokenization_is_bit_identical_to_inline() {
        let corpus = small_corpus();
        let c = cfg();
        let tokenized = tokenize_corpus(&corpus, &c);
        let (a, sa, ra) = run_pipeline(&corpus, &c);
        let (b, sb, rb) = run_pipeline_cached(&corpus, &tokenized, &c, &SimCaches::new());
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn cached_pipeline_is_bit_identical_and_shares_summaries_across_specs() {
        let corpus = small_corpus();
        let c = cfg();
        let tokenized = tokenize_corpus(&corpus, &c);
        let caches = SimCaches::new();
        let mut other = c.clone();
        other.specs.gpu = pce_roofline::HardwareSpec::a100();
        for cfg in [&c, &other] {
            let cold = run_pipeline(&corpus, cfg);
            let warm = run_pipeline_cached(&corpus, &tokenized, cfg, &caches);
            assert_eq!(cold, warm, "{}", cfg.specs.label());
        }
        // The corpus was summarized exactly once per kernel. The second
        // config only moves the GPU spec, so its CUDA half re-resolves
        // via the summary cache while the OMP half (same CPU spec) is
        // served straight from the whole-profile memo — summaries are
        // never re-consulted for it.
        let cuda_count = corpus
            .iter()
            .filter(|p| p.language == Language::Cuda)
            .count();
        let sc = caches.summaries().counters();
        assert_eq!(sc.misses as usize, corpus.len());
        assert_eq!(sc.hits as usize, cuda_count);
        let pc = caches.profiles().counters();
        assert_eq!(pc.hits as usize, corpus.len() - cuda_count);
        // Re-running a spec hits the whole-profile memo.
        let before = caches.profiles().counters().hits;
        let _ = run_pipeline_cached(&corpus, &tokenized, &c, &caches);
        assert_eq!(
            caches.profiles().counters().hits - before,
            corpus.len() as u64
        );
    }

    #[test]
    fn report_labels_cover_the_whole_corpus_in_order() {
        let corpus = small_corpus();
        let c = cfg();
        let (_, _, report) = run_pipeline(&corpus, &c);
        assert_eq!(report.corpus_labels.len(), corpus.len());
        // Spot-check alignment: relabeling program i (against its
        // language-routed spec) reproduces entry i.
        for (i, p) in corpus.iter().enumerate().step_by(17) {
            let hw = c.specs.for_class(p.language.spec_class());
            let profile = Profiler::new(hw.clone()).profile(&p.ir, &p.launch);
            assert_eq!(
                classify_joint(hw, &profile.counts).label,
                report.corpus_labels[i],
                "{}",
                p.id
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_tokenized_corpus_is_rejected() {
        let corpus = small_corpus();
        let c = cfg();
        let mut tokenized = tokenize_corpus(&corpus, &c);
        tokenized.token_counts.pop();
        run_pipeline_cached(&corpus, &tokenized, &c, &SimCaches::new());
    }

    #[test]
    #[should_panic(expected = "invalid spec pair")]
    fn misclassed_spec_pair_is_rejected() {
        let corpus = small_corpus();
        let mut c = cfg();
        c.specs.cpu = c.specs.gpu.clone();
        let tokenized = tokenize_corpus(&corpus, &c);
        run_pipeline_cached(&corpus, &tokenized, &c, &SimCaches::new());
    }

    #[test]
    fn hazard_audit_runs_once_per_tokenized_corpus() {
        let corpus = small_corpus();
        let c = cfg();
        let tokenized = tokenize_corpus(&corpus, &c);
        // Tokenizing stays audit-free; the first pipeline call audits.
        assert!(tokenized.hazards.get().is_none());
        let (_, _, first) = run_pipeline_cached(&corpus, &tokenized, &c, &SimCaches::new());
        let audited: *const BTreeMap<String, u64> = tokenized.hazards.get().expect("audited");
        // Every later call, on any spec pair, reuses that one audit.
        let mut other = c.clone();
        other.specs.gpu = pce_roofline::HardwareSpec::a100();
        for cfg in [&c, &other] {
            let (_, _, report) = run_pipeline_cached(&corpus, &tokenized, cfg, &SimCaches::new());
            assert_eq!(report.hazards, first.hazards);
            assert!(std::ptr::eq(audited, tokenized.hazards(&corpus)));
        }
        // It equals diagnosing each distinct source by hand.
        let mut distinct: Vec<&str> = corpus.iter().map(|p| p.source.as_str()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut expected: BTreeMap<String, u64> = BTreeMap::new();
        for d in distinct
            .iter()
            .flat_map(|s| pce_static_analysis::diagnose(s))
        {
            *expected.entry(d.rule.id().to_string()).or_insert(0) += 1;
        }
        assert_eq!(first.hazards, expected);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let corpus = small_corpus();
        let (a, sa, _) = run_pipeline(&corpus, &cfg());
        let (b, sb, _) = run_pipeline(&corpus, &cfg());
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn labels_match_reprofiling() {
        let c = cfg();
        let (dataset, _, _) = run_pipeline(&small_corpus(), &c);
        for s in dataset.samples.iter().take(10) {
            let hw = c.specs.for_class(s.language.spec_class());
            assert_eq!(classify_joint(hw, &s.counts).label, s.label, "{}", s.id);
            assert_eq!(s.spec_name, hw.name, "{}", s.id);
            assert_eq!(s.spec_class, hw.class, "{}", s.id);
        }
    }

    #[test]
    fn json_round_trip() {
        let (dataset, _, _) = run_pipeline(&small_corpus(), &cfg());
        let json = dataset.to_json().expect("dataset serializes");
        let back = Dataset::from_json(&json).unwrap();
        // Float fields may round-trip within 1 ULP (the JSON parser is not
        // shortest-repr exact); everything else must be identical.
        assert_eq!(dataset.len(), back.len());
        for (a, b) in dataset.samples.iter().zip(&back.samples) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.source, b.source);
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.label, b.label);
            assert_eq!(a.token_count, b.token_count);
            let rel = (a.runtime_s - b.runtime_s).abs() / a.runtime_s;
            assert!(
                rel < 1e-12,
                "runtime drifted: {} vs {}",
                a.runtime_s,
                b.runtime_s
            );
        }
        assert!(Dataset::from_json("not json").is_err());
    }

    #[test]
    fn train_and_validation_are_disjoint() {
        let (_, split, _) = run_pipeline(&small_corpus(), &cfg());
        let train_ids: std::collections::BTreeSet<_> =
            split.train.samples.iter().map(|s| &s.id).collect();
        for s in &split.validation.samples {
            assert!(
                !train_ids.contains(&s.id),
                "{} leaked into both splits",
                s.id
            );
        }
    }
}
