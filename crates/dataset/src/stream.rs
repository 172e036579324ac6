//! The sharded, bounded-memory streaming pipeline.
//!
//! [`run_pipeline_streamed_timed`] runs the same engine as
//! [`run_pipeline_cached`](crate::run_pipeline_cached), but never
//! materializes the corpus: programs are regenerated per shard from a
//! [`CorpusSpec`] (generation is random-access — any index rebuilds from
//! the seed alone), consumed, and dropped. Peak memory is
//! `O(shard_size × rayon threads)` programs plus one small row per
//! program and the final dataset, instead of `O(corpus)` samples.
//!
//! Stages, each one lap of a [`Stages`] clock:
//!
//! 1. **tokenize-train** — train the BPE tokenizer on every
//!    `tokenizer_stride`-th source, the subsample
//!    [`tokenize_corpus`](crate::tokenize_corpus) trains on.
//! 2. **shard-profile** — per shard (rayon): regenerate the programs,
//!    batch-count their tokens, profile and label each through the shared
//!    [`SimCaches`] (variants with an identical (IR, launch, hardware)
//!    tuple are memo hits), and audit the shard's distinct sources for
//!    hazards; then fold the rows in corpus order into labels, dedup
//!    statistics and the hazard audit.
//! 3. **select-balance** — prune, balance and split the rows.
//! 4. **materialize** — regenerate just the selected programs and build
//!    their [`Sample`](crate::Sample)s from the rows, without profiling.
//!
//! Output is byte-identical to the eager pipeline over
//! `spec.stream().collect()`, for every shard size and
//! `RAYON_NUM_THREADS` — pinned by the root `pipeline_stream` test.

use pce_fault::PceError;
use pce_gpu_sim::SimCaches;
use pce_kernels::CorpusSpec;
use pce_memo::{StageTiming, Stages};
use pce_tokenizer::{BpeTrainer, Tokenizer};

use crate::engine::{self, Input};
use crate::pipeline::{Dataset, PipelineConfig, PipelineReport, Split};

/// Run the full pipeline over a (possibly variant-expanded) corpus spec
/// as a sharded stream with bounded memory, returning the four stage laps
/// (`tokenize-train`, `shard-profile`, `select-balance`, `materialize`)
/// alongside the dataset.
///
/// Byte-identical to materializing `spec.stream()` and running
/// [`run_pipeline_cached`](crate::run_pipeline_cached), for any
/// `shard_size ≥ 1` and any rayon thread count. The shared `caches` carry
/// profile memos across shards (and across calls — re-streaming the same
/// spec profiles zero new kernels).
pub fn run_pipeline_streamed_timed(
    spec: &CorpusSpec,
    cfg: &PipelineConfig,
    caches: &SimCaches,
    shard_size: usize,
) -> Result<(Dataset, Split, PipelineReport, Vec<StageTiming>), PceError> {
    engine::check_specs(&cfg.specs)?;
    let mut stages = Stages::start();

    // --- Stage 1: tokenizer training (stride subsample, streamed) --------
    let stride = cfg.tokenizer_stride.max(1);
    let training_docs = (0..spec.len())
        .step_by(stride)
        .map(|k| spec.program(k).map(|p| p.source))
        .collect::<Result<Vec<String>, PceError>>()?;
    let vocab =
        BpeTrainer::new(cfg.tokenizer_vocab).train(training_docs.iter().map(|s| s.as_str()));
    let tokenizer = Tokenizer::new(vocab);
    drop(training_docs);
    stages.lap("tokenize-train");

    // --- Stages 2-4: the sharded engine ----------------------------------
    let (dataset, split, report) = engine::run(
        Input::Spec(spec, &tokenizer),
        cfg,
        caches,
        shard_size,
        &mut stages,
    )?;
    Ok((dataset, split, report, stages.into_laps()))
}

/// [`run_pipeline_streamed_timed`] without its laps. Nothing in this
/// workspace calls it; `perfbench/tests/selftest.rs` does, so it goes when
/// that call moves to the timed entry point.
pub fn run_pipeline_streamed(
    spec: &CorpusSpec,
    cfg: &PipelineConfig,
    caches: &SimCaches,
    shard_size: usize,
) -> Result<(Dataset, Split, PipelineReport), PceError> {
    let (dataset, split, report, _) = run_pipeline_streamed_timed(spec, cfg, caches, shard_size)?;
    Ok((dataset, split, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline_cached, tokenize_corpus};
    use pce_kernels::{CorpusConfig, VariantAxes};

    fn small_spec(axes: VariantAxes) -> CorpusSpec {
        CorpusSpec {
            base: CorpusConfig {
                seed: 3,
                cuda_programs: 40,
                omp_programs: 32,
            },
            axes,
        }
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            per_combo_cap: 8,
            tokenizer_vocab: 400,
            tokenizer_stride: 11,
            ..Default::default()
        }
    }

    /// The streamed pipeline, its laps checked: the four stages, in order,
    /// none negative.
    fn run_streamed(
        spec: &CorpusSpec,
        cfg: &PipelineConfig,
        caches: &SimCaches,
        shard_size: usize,
    ) -> Result<(Dataset, Split, PipelineReport), PceError> {
        let (dataset, split, report, laps) =
            run_pipeline_streamed_timed(spec, cfg, caches, shard_size)?;
        let names: Vec<&str> = laps.iter().map(|l| l.stage.as_str()).collect();
        assert_eq!(
            names,
            [
                "tokenize-train",
                "shard-profile",
                "select-balance",
                "materialize"
            ]
        );
        assert!(laps.iter().all(|l| l.seconds >= 0.0));
        Ok((dataset, split, report))
    }

    #[test]
    fn streamed_matches_materialized_for_identity_and_expanded_specs() {
        for axes in [
            VariantAxes::none(),
            VariantAxes {
                unroll: vec![4],
                flip_precision: true,
                ..VariantAxes::none()
            },
        ] {
            let spec = small_spec(axes);
            let corpus: Vec<_> = spec
                .stream()
                .collect::<Result<_, _>>()
                .expect("corpus builds");
            let c = cfg();
            let tokenized = tokenize_corpus(&corpus, &c);
            let eager_caches = SimCaches::new();
            let eager = run_pipeline_cached(&corpus, &tokenized, &c, &eager_caches);
            for shard_size in [1, 17, 1_000_000] {
                let caches = SimCaches::new();
                let streamed =
                    run_streamed(&spec, &c, &caches, shard_size).expect("streamed pipeline runs");
                assert_eq!(eager, streamed, "shard_size={shard_size}");
            }
        }
    }

    #[test]
    fn corpus_hazard_audit_is_error_clean() {
        let spec = small_spec(VariantAxes::none());
        let caches = SimCaches::new();
        let (_, _, report) = run_streamed(&spec, &cfg(), &caches, 64).expect("pipeline runs");
        // Generated kernels may legitimately carry warning-severity
        // hazards (serialized accumulators, strided subscripts) but must
        // never ship an error-severity one (races, missing barriers).
        for rule in pce_static_analysis::RuleId::all() {
            if rule.severity() == pce_static_analysis::Severity::Error {
                assert_eq!(
                    report.hazards.get(rule.id()),
                    None,
                    "corpus fires error rule {rule}"
                );
            }
        }
    }

    #[test]
    fn expanded_corpus_reports_nonzero_dedup() {
        let spec = small_spec(VariantAxes {
            unroll: vec![2, 4],
            ..VariantAxes::none()
        });
        let caches = SimCaches::new();
        let (_, _, report) = run_streamed(&spec, &cfg(), &caches, 64).expect("pipeline runs");
        // Unroll variants change only the source text, so 2/3 of the
        // corpus dedups onto the base programs' profiles.
        assert_eq!(report.dedup.total() as usize, spec.len());
        assert!(
            report.dedup.duplicates as usize >= spec.len() / 2,
            "expected heavy unroll dedup, got {:?}",
            report.dedup
        );
        assert!(report.dedup.hit_rate() > 0.5);
    }

    #[test]
    fn restreaming_profiles_zero_new_kernels() {
        let spec = small_spec(VariantAxes {
            flip_precision: true,
            ..VariantAxes::none()
        });
        let caches = SimCaches::new();
        let first = run_streamed(&spec, &cfg(), &caches, 32).expect("first pass runs");
        let misses_after_first = caches.profiles().counters().misses;
        let second = run_streamed(&spec, &cfg(), &caches, 32).expect("second pass runs");
        assert_eq!(
            caches.profiles().counters().misses,
            misses_after_first,
            "re-streaming the same seed must profile zero new kernels"
        );
        assert_eq!(first, second);
    }

    #[test]
    fn invalid_spec_pair_is_a_typed_error() {
        let mut c = cfg();
        c.specs.cpu = c.specs.gpu.clone();
        let err = run_streamed(&small_spec(VariantAxes::none()), &c, &SimCaches::new(), 8)
            .expect_err("mismatched spec classes must be rejected");
        assert_eq!(err.kind(), "spec");
    }
}
