//! Pipeline identity tests: the streamed, bounded-memory pipeline must
//! render byte-identically to the eager pipeline over the materialized
//! corpus for *any* shard size and *any* rayon thread count, the eager
//! pipeline (sharded by worker count) must do the same across thread
//! counts, and re-streaming the same spec must profile zero new kernels.
//!
//! The vendored rayon re-reads `RAYON_NUM_THREADS` on every parallel
//! call, which lets the identity test toggle thread budgets in-process.
//! The env-var flip lives inside one `#[test]` so it cannot race another
//! env-flipping test in this binary.

use parallel_code_estimation::core::study::Study;
use parallel_code_estimation::dataset::{
    run_pipeline_cached, run_pipeline_streamed_timed, tokenize_corpus, Dataset, PipelineConfig,
    PipelineReport, Split,
};
use parallel_code_estimation::gpu_sim::SimCaches;
use parallel_code_estimation::kernels::{CorpusSpec, VariantAxes};

/// The full observable output of one pipeline run: dataset JSON, split
/// JSON, and the funnel report JSON — everything a downstream consumer
/// sees.
fn render(dataset: &Dataset, split: &Split, report: &PipelineReport) -> String {
    format!(
        "{}\n{}\n{}",
        dataset.to_json().expect("dataset serializes"),
        serde_json::to_string(split).expect("split serializes"),
        serde_json::to_string(report).expect("report serializes"),
    )
}

/// The streamed pipeline, its laps checked: the four stages, in order.
fn streamed(
    spec: &CorpusSpec,
    cfg: &PipelineConfig,
    caches: &SimCaches,
    shard_size: usize,
) -> (Dataset, Split, PipelineReport) {
    let (dataset, split, report, laps) =
        run_pipeline_streamed_timed(spec, cfg, caches, shard_size).expect("streamed pipeline runs");
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
    (dataset, split, report)
}

/// A smoke-scale variant-expanded spec: 210 base programs × unroll/
/// precision axes. Small enough for debug-build CI, expanded enough that
/// sharding and dedup both do real work.
fn smoke_spec() -> (CorpusSpec, Study) {
    let study = Study::smoke();
    let spec = CorpusSpec {
        base: study.corpus,
        axes: VariantAxes {
            size_shifts: Vec::new(),
            flip_precision: true,
            unroll: vec![4],
            fused: Vec::new(),
        },
    };
    (spec, study)
}

#[test]
fn streamed_pipeline_is_byte_identical_across_shards_and_threads() {
    let (spec, study) = smoke_spec();

    // The ground truth: materialize the whole expanded corpus and run the
    // eager cached pipeline over it.
    let corpus: Vec<_> = spec
        .stream()
        .collect::<Result<_, _>>()
        .expect("corpus streams");
    let caches = SimCaches::default();
    let tokenized = tokenize_corpus(&corpus, &study.pipeline);
    let (dataset, split, report) =
        run_pipeline_cached(&corpus, &tokenized, &study.pipeline, &caches);
    let golden = render(&dataset, &split, &report);

    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        assert_eq!(
            rayon::current_num_threads(),
            threads.parse::<usize>().expect("thread count parses"),
            "vendored rayon must honor RAYON_NUM_THREADS"
        );
        // The eager path shards by worker count, so pin it here too.
        let tokenized = tokenize_corpus(&corpus, &study.pipeline);
        let (dataset, split, report) =
            run_pipeline_cached(&corpus, &tokenized, &study.pipeline, &SimCaches::default());
        assert_eq!(
            golden,
            render(&dataset, &split, &report),
            "eager output diverged at threads={threads}"
        );
        for shard_size in [1, 37, 256, usize::MAX] {
            let caches = SimCaches::default();
            let (dataset, split, report) = streamed(&spec, &study.pipeline, &caches, shard_size);
            assert_eq!(
                golden,
                render(&dataset, &split, &report),
                "streamed output diverged at shard_size={shard_size}, threads={threads}"
            );
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn restreaming_the_same_seed_profiles_zero_new_kernels() {
    let (spec, study) = smoke_spec();
    let caches = SimCaches::default();

    let (_, _, first) = streamed(&spec, &study.pipeline, &caches, 64);
    assert!(
        first.dedup.duplicates > 0,
        "variant expansion must produce duplicate profile fingerprints"
    );
    let misses_after_first = caches.profiles().counters().misses;
    assert!(misses_after_first > 0, "first stream profiles kernels");

    // Same spec, same caches: every profile is a memo hit.
    let (_, _, second) = streamed(&spec, &study.pipeline, &caches, 64);
    assert_eq!(
        caches.profiles().counters().misses,
        misses_after_first,
        "re-streaming the same seed must profile zero new kernels"
    );
    assert_eq!(first.dedup, second.dedup, "dedup accounting must be stable");
}
