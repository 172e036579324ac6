//! Streamed-pipeline scale benchmark: run a variant-expanded corpus
//! (smoke base × [`VariantAxes::scale`] = 10k+ kernels) through the
//! sharded pipeline under a bounded memo budget, and write the host stamp,
//! per-stage wall-clock and dedup/cache effectiveness to
//! `BENCH_pipeline.json`.
//!
//! The CI `corpus-scale-smoke` job replays this binary and guards the
//! committed baseline: nonzero variant-dedup hits, `resident_bytes`
//! within the configured budget, and total wall clock within 1.5× of
//! the committed run.
//!
//! Flags: `--smoke` (reduced base corpus — what CI runs), `--shard-size
//! <n>` (default 512), `--cache-bytes <n>` (default 4 MiB per memo
//! layer), `--out <path>` (default `BENCH_pipeline.json`). A size that is
//! zero or not an integer exits 2.

use pce_bench::{flag_value, host_stamp, int_flag, or_exit, study_from_args, HostStamp};
use pce_dataset::run_pipeline_streamed_timed;
use pce_gpu_sim::{CacheCounters, SimBudget, SimCaches};
use pce_kernels::{CorpusSpec, VariantAxes};
use pce_memo::{DedupStats, StageTiming, Stages};

/// The committed `BENCH_pipeline.json` baseline: the host it ran on,
/// scale parameters, per-stage wall clock, dedup effectiveness, and
/// memo-cache residency.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct PipelineBenchReport {
    /// The machine the timings come from.
    host: HostStamp,
    /// Total variant-expanded corpus size streamed.
    variants: usize,
    /// Programs per shard.
    shard_size: usize,
    /// Byte budget per memo layer.
    cache_bytes: u64,
    /// Final balanced dataset size.
    final_size: usize,
    /// Variant-dedup hit fraction in `[0, 1]`.
    dedup_hit_rate: f64,
    /// Variant-dedup tallies (unique vs duplicate profile fingerprints).
    dedup: DedupStats,
    /// Profile-cache counters after the run (bounded by `cache_bytes`).
    profile_cache: CacheCounters,
    /// Summary-cache counters after the run (bounded by `cache_bytes`).
    summary_cache: CacheCounters,
    /// Per-stage wall clock, in stage order.
    stages: Vec<StageTiming>,
    /// End-to-end wall-clock milliseconds (never less than the stages'
    /// sum).
    total_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let study = study_from_args();
    let shard_size = or_exit(int_flag(&args, "--shard-size", 1)).unwrap_or(512);
    let cache_bytes = or_exit(int_flag(&args, "--cache-bytes", 1)).unwrap_or(4 * 1024 * 1024);
    let out = flag_value(&args, "--out").unwrap_or("BENCH_pipeline.json");

    let spec = CorpusSpec {
        base: study.corpus,
        axes: VariantAxes::scale(),
    };
    let caches = SimCaches::with_budget(SimBudget::uniform(cache_bytes));
    eprintln!(
        "streaming {} variants ({} base programs × {}×) in shards of {}, {} B/memo-layer budget",
        spec.len(),
        study.corpus.cuda_programs + study.corpus.omp_programs,
        spec.axes.expansion_factor(),
        shard_size,
        cache_bytes,
    );

    let clock = Stages::start();
    let (dataset, split, report, stages) =
        run_pipeline_streamed_timed(&spec, &study.pipeline, &caches, shard_size)
            .expect("streamed pipeline runs");
    let total_ms = clock.elapsed() * 1e3;

    let profile = caches.profiles().counters();
    let summary = caches.summaries().counters();
    eprintln!(
        "dataset {} samples (train {} / validation {}), dedup {} unique / {} duplicate ({:.1}% hit rate)",
        dataset.len(),
        split.train.len(),
        split.validation.len(),
        report.dedup.unique,
        report.dedup.duplicates,
        report.dedup.hit_rate() * 100.0,
    );
    eprintln!(
        "profile cache: {} hits / {} misses, {} evictions, {} B resident",
        profile.hits, profile.misses, profile.evictions, profile.resident_bytes,
    );

    let bench = PipelineBenchReport {
        host: host_stamp(),
        variants: spec.len(),
        shard_size,
        cache_bytes,
        final_size: report.final_size,
        dedup_hit_rate: report.dedup.hit_rate(),
        dedup: report.dedup,
        profile_cache: profile,
        summary_cache: summary,
        stages,
        total_ms,
    };
    let rendered = serde_json::to_string_pretty(&bench).expect("bench report serializes");
    std::fs::write(out, rendered + "\n").expect("bench report writes");
    eprintln!("wrote {out} (total {total_ms:.1} ms)");
}
