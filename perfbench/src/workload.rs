//! The three workloads: run passes for the requested time, check every
//! pass's outputs, and reduce the passes to metrics.
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics. Traced runs
//! (`--trace 1`) alternate an untraced pass with a traced one and report
//! the per-layer metrics: medians over the traced passes, cache counters
//! from the untraced passes (with their min and max, since they drift
//! with thread scheduling), and the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use pce_fault::PceError;

use crate::adapter::{self, CorpusPass, ServePass, StudyPass};
use crate::host::{peak_rss_mib, Lap};
use crate::trace::{Recorder, TraceReport};
use crate::{digest, gen, median, percentile, tail_percentile, DEFAULT_SEED};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper-scale cross-hardware suite.
    Study,
    /// The streamed pipeline over 15,120 variants under bounded memos.
    CorpusScale,
    /// One prediction service under a mixed, skewed job stream.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Study, Workload::CorpusScale, Workload::ServeMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::CorpusScale => "corpus-scale",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Jobs in one `serve-mixed` stream: enough for a true p99 per pass.
pub const SERVE_JOBS: usize = 4000;

/// Passes every untraced run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Byte digests of the default seed's outputs: the rendered suite report,
/// the `corpus-scale` dataset JSON and the `serve-mixed` transcript.
const STUDY_DIGEST: u64 = 0x004c_3b69_beae_bbf9;
const CORPUS_DIGEST: u64 = 0x2a37_af13_8ee3_baa7;
const SERVE_DIGEST: u64 = 0x7d05_1bf7_6034_2c2c;

/// Every end-to-end metric with its unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("pass_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric with its unit. A workload reports 0 for the
/// layers it does not exercise.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("kernels.corpus_ms", "ms"),
    ("kernels.variant_decode_ms", "ms"),
    ("kernels.self_ms", "ms"),
    ("tokenizer.tokenize_ms", "ms"),
    ("tokenizer.self_ms", "ms"),
    ("gpu-sim.summary_ms", "ms"),
    ("gpu-sim.summary_calls", "count"),
    ("gpu-sim.resolve_ms", "ms"),
    ("gpu-sim.resolve_calls", "count"),
    ("gpu-sim.self_ms", "ms"),
    ("gpu-sim.summary_hit_rate", "ratio"),
    ("gpu-sim.profile_hit_rate", "ratio"),
    ("gpu-sim.evictions", "count"),
    ("gpu-sim.summary_hits_min", "count"),
    ("gpu-sim.summary_hits_max", "count"),
    ("gpu-sim.profile_hits_min", "count"),
    ("gpu-sim.profile_hits_max", "count"),
    ("memo.dedup_hit_rate", "ratio"),
    ("memo.resident_bytes", "bytes"),
    ("dataset.pipeline_ms", "ms"),
    ("dataset.self_ms", "ms"),
    ("prompt.render_ms", "ms"),
    ("prompt.renders", "count"),
    ("prompt.bytes", "bytes"),
    ("prompt.self_ms", "ms"),
    ("llm.rq1_bank_ms", "ms"),
    ("llm.complete_ms", "ms"),
    ("llm.completions", "count"),
    ("llm.self_ms", "ms"),
    ("llm.analysis_hit_rate", "ratio"),
    ("llm.classify_parse_hit_rate", "ratio"),
    ("llm.rq1_parse_hit_rate", "ratio"),
    ("llm.analysis_hits_min", "count"),
    ("llm.analysis_hits_max", "count"),
    ("llm.classify_parse_hits_min", "count"),
    ("llm.classify_parse_hits_max", "count"),
    ("llm.rq1_parse_hits_min", "count"),
    ("llm.rq1_parse_hits_max", "count"),
    ("static-analysis.analyze_ms", "ms"),
    ("static-analysis.analyze_calls", "count"),
    ("static-analysis.lint_rejects", "count"),
    ("static-analysis.self_ms", "ms"),
    ("core.table1_ms", "ms"),
    ("core.cell_ms_max", "ms"),
    ("core.serve.parse_ms", "ms"),
    ("core.serve.batch_ms_p50", "ms"),
    ("core.serve.batch_ms_tail", "ms"),
    ("core.serve.batch_jobs", "count"),
    ("core.serve.groups_per_batch", "count"),
    ("core.serve.write_ms", "ms"),
    ("core.serve.wait_ms", "ms"),
    ("core.serve.latency_p99_ms", "ms"),
    ("core.self_ms", "ms"),
    ("fault.retries", "count"),
    ("fault.invalid", "count"),
    ("fault.refused", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let i = args
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let name = value("--workload")?;
        Ok(Args {
            workload: Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
            seed: value("--seed")?
                .parse()
                .map_err(|_| "--seed needs an unsigned integer".to_string())?,
            seconds: value("--seconds")?
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .ok_or("--seconds needs a positive number")?,
            trace: match value("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
            },
        })
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (matrix cells, variants or jobs).
    pub attempted: u64,
    /// Every output-check failure, one line each.
    pub failures: Vec<String>,
    /// Metric name → value (units from [`END_TO_END`] / [`PER_LAYER`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
}

/// Run passes until `seconds` have gone by and at least [`MIN_PASSES`]
/// ran. Records `peak_rss_mib` after the first pass: the peak of one
/// set-up and timed phase, independent of how many passes fit in the run
/// and of the allocator fragmentation later passes add.
fn passes<T>(
    r: &mut RunResult,
    seconds: f64,
    mut pass: impl FnMut() -> Result<T, PceError>,
) -> Result<Vec<T>, PceError> {
    let start = Instant::now();
    let mut out = vec![pass()?];
    r.metrics.insert("peak_rss_mib", peak_rss_mib());
    while out.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        out.push(pass()?);
    }
    Ok(out)
}

/// Check a digest: against the pinned value on the default seed, and
/// against the first pass's on every seed.
fn digest_failures(what: &str, seed: u64, pinned: u64, digests: &[u64]) -> Vec<String> {
    let mut out = Vec::new();
    if seed == DEFAULT_SEED && digests.first() != Some(&pinned) {
        out.push(format!(
            "{what} digest {:016x?} != pinned {pinned:016x}",
            digests.first()
        ));
    }
    if digests.iter().any(|d| Some(d) != digests.first()) {
        out.push(format!("{what} differs between passes: {digests:016x?}"));
    }
    out
}

/// Per-pass values, for the report.
fn listed(values: impl Iterator<Item = f64>) -> String {
    values
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Per-pass timings for the report: the reported seconds, then the raw
/// wall clock and the stolen time per vCPU they were derived from.
fn laps(name: &str, laps: &[Lap]) -> String {
    format!(
        "{name} [{}] (wall [{}], stolen [{}])",
        listed(laps.iter().map(Lap::seconds)),
        listed(laps.iter().map(|l| l.wall_s)),
        listed(laps.iter().map(|l| l.steal_s)),
    )
}

/// The passes a run's metrics are taken over: those whose timed phase
/// lost no larger a share of its wall time to steal than the run's median
/// pass did. Steal comes in bursts that also slow what it does not
/// preempt (caches, the sibling hyperthread), which [`Lap::seconds`]
/// cannot subtract. In a run without steal every pass is used.
pub fn least_stolen<T>(runs: &[T], lap: impl Fn(&T) -> Lap) -> Vec<&T> {
    let shares: Vec<f64> = runs.iter().map(|p| lap(p).steal_share()).collect();
    let cut = median(&shares);
    runs.iter()
        .zip(shares)
        .filter(|(_, s)| *s <= cut)
        .map(|(p, _)| p)
        .collect()
}

/// Median of the laps' stolen-time-free seconds.
fn median_seconds(laps: &[Lap]) -> f64 {
    median(&laps.iter().map(Lap::seconds).collect::<Vec<_>>())
}

/// Median latency of one regeneration (set-up included), over passes.
fn regeneration_latency(r: &mut RunResult, samples_ms: &[f64]) {
    r.metrics.insert("latency_p50_ms", median(samples_ms));
}

/// Run one workload as `args` asks.
pub fn run(args: &Args) -> Result<RunResult, PceError> {
    match (args.workload, args.trace) {
        (Workload::Study, false) => study(args),
        (Workload::CorpusScale, false) => corpus(args),
        (Workload::ServeMixed, false) => serve(args),
        (w, true) => traced(w, args),
    }
}

fn study(args: &Args) -> Result<RunResult, PceError> {
    let suite = adapter::study_suite(args.seed);
    let mut r = RunResult::default();
    let runs = passes(&mut r, args.seconds, || adapter::study_pass(&suite))?;
    let digests: Vec<u64> = runs
        .iter()
        .map(|p| digest(p.rendered().as_bytes()))
        .collect();
    r.failures = digest_failures("suite report", args.seed, STUDY_DIGEST, &digests);
    for p in &runs {
        r.failures.extend(adapter::study_failures(&suite, p));
        r.attempted += p.outcome.cells.len() as u64;
    }
    let used = least_stolen(&runs, |p| p.pass);
    let pass: Vec<Lap> = used.iter().map(|p| p.pass).collect();
    let setup: Vec<Lap> = used.iter().map(|p| p.setup).collect();
    let to_result: Vec<f64> = used
        .iter()
        .map(|p| (p.setup.seconds() + p.pass.seconds()) * 1e3)
        .collect();
    let rates: Vec<f64> = used
        .iter()
        .map(|p| p.predictions() as f64 / p.pass.seconds())
        .collect();
    r.metrics.insert("pass_s", median_seconds(&pass));
    r.metrics.insert("items_per_s", median(&rates));
    r.metrics.insert("setup_s", median_seconds(&setup));
    regeneration_latency(&mut r, &to_result);
    r.report.push(format!(
        "study: {} of {} passes used, {} cells and {} predictions each; {}; {}",
        used.len(),
        runs.len(),
        suite.cells().len(),
        runs[0].predictions(),
        laps("pass_s", &runs.iter().map(|p| p.pass).collect::<Vec<_>>()),
        laps("setup_s", &runs.iter().map(|p| p.setup).collect::<Vec<_>>()),
    ));
    Ok(r)
}

fn corpus(args: &Args) -> Result<RunResult, PceError> {
    let mut r = RunResult::default();
    let runs = passes(&mut r, args.seconds, || adapter::corpus_pass(args.seed))?;
    let digests = runs
        .iter()
        .map(CorpusPass::digest)
        .collect::<Result<Vec<u64>, PceError>>()?;
    r.failures = digest_failures("dataset JSON", args.seed, CORPUS_DIGEST, &digests);
    for p in &runs {
        r.failures.extend(adapter::corpus_failures(args.seed, p));
        r.attempted += p.variants as u64;
    }
    let used = least_stolen(&runs, |p| p.pass);
    let pass: Vec<Lap> = used.iter().map(|p| p.pass).collect();
    let to_result: Vec<f64> = used
        .iter()
        .map(|p| (p.setup_s + p.pass.seconds()) * 1e3)
        .collect();
    let rates: Vec<f64> = used
        .iter()
        .map(|p| p.variants as f64 / p.pass.seconds())
        .collect();
    r.metrics.insert("pass_s", median_seconds(&pass));
    r.metrics.insert("items_per_s", median(&rates));
    r.metrics.insert(
        "setup_s",
        median(&used.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
    );
    regeneration_latency(&mut r, &to_result);
    r.report.push(format!(
        "corpus-scale: {} of {} passes used, {} variants each in shards of {}, {} B per memo layer, {}; {}",
        used.len(),
        runs.len(),
        runs[0].variants,
        adapter::SHARD_SIZE,
        adapter::MEMO_BUDGET,
        runs[0]
            .memo
            .iter()
            .map(|(name, c)| format!("{name} {} evictions, hit rate {:.3}", c.evictions, c.hit_rate()))
            .collect::<Vec<_>>()
            .join(", "),
        laps("pass_s", &runs.iter().map(|p| p.pass).collect::<Vec<_>>()),
    ));
    Ok(r)
}

/// The `serve-mixed` stream for `seed` and its protocol input.
pub fn serve_inputs(seed: u64) -> Result<(Vec<gen::StreamJob>, Vec<Vec<u8>>), PceError> {
    let catalog = adapter::serve_catalog(&adapter::serve_study())?;
    let stream = gen::serve_stream(&catalog, seed, SERVE_JOBS);
    let input = crate::wire::session_input(&stream);
    Ok((stream, input))
}

fn serve(args: &Args) -> Result<RunResult, PceError> {
    let study = adapter::serve_study();
    let (stream, input) = serve_inputs(args.seed)?;
    let mut r = RunResult::default();
    let runs = passes(&mut r, args.seconds, || adapter::serve_pass(&study, &input))?;
    let digests: Vec<u64> = runs.iter().map(|p| digest(&p.transcript)).collect();
    r.failures = digest_failures("serve transcript", args.seed, SERVE_DIGEST, &digests);
    r.failures
        .extend(adapter::serve_failures(&study, &stream, &runs[0])?);
    r.attempted = (stream.len() * runs.len()) as u64;
    let used = least_stolen(&runs, |p| p.pass);
    let per_pass =
        |f: &dyn Fn(&ServePass) -> f64| median(&used.iter().map(|p| f(p)).collect::<Vec<_>>());
    let tail = tail_percentile(stream.len());
    let latency = |p: &ServePass, pct| percentile(&p.latencies_ms, pct);
    r.metrics.insert("pass_s", per_pass(&|p| p.pass.seconds()));
    r.metrics.insert(
        "items_per_s",
        per_pass(&|p| stream.len() as f64 / p.pass.seconds()),
    );
    r.metrics
        .insert("setup_s", per_pass(&|p| p.setup.seconds()));
    r.metrics
        .insert("latency_p50_ms", per_pass(&|p| latency(p, 50)));
    let p99 = per_pass(&|p| latency(p, tail));
    let lint = stream
        .iter()
        .filter(|j| j.expect == gen::Expect::Lint)
        .count();
    let src = stream.iter().filter(|j| j.line.contains(" src=")).count();
    let shared = gen::shared_group_share(&stream, adapter::SERVE_BATCH);
    if shared == 0.0 {
        r.failures
            .push("no admission batch of the stream shares a (kernel, spec, style) group".into());
    }
    let caches = &runs[0].caches;
    let hit_rates: Vec<String> = caches
        .layers()
        .iter()
        .map(|(name, c)| format!("{name} {:.3}", c.hit_rate()))
        .collect();
    r.report.push(format!(
        "serve-mixed: {} of {} passes used, {} jobs each ({src} src=, {lint} seeded hazards), batch {}, {:.1}% of batches share a group; {} B per memo layer, {} evictions, hit rates {}; latency per job, {} samples per pass, p{tail} {p99:.3} ms (median over passes; not gated, see README); {}",
        used.len(),
        runs.len(),
        stream.len(),
        adapter::SERVE_BATCH,
        shared * 100.0,
        adapter::SERVE_CACHE_BYTES,
        caches.total_evictions(),
        hit_rates.join(", "),
        stream.len(),
        laps("pass_s", &runs.iter().map(|p| p.pass).collect::<Vec<_>>()),
    ));
    Ok(r)
}

/// One untraced + traced pair's per-layer values.
type Layers = BTreeMap<&'static str, f64>;

/// Per-layer values every workload derives the same way from its trace.
fn common_layers(trace: &TraceReport, counts: &BTreeMap<&'static str, f64>) -> Layers {
    let mut m = Layers::new();
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix(".self_ms") {
            m.insert(name, trace.self_ms.get(layer).copied().unwrap_or(0.0));
        }
    }
    for (name, span) in [
        ("kernels.corpus_ms", "kernels.corpus"),
        ("kernels.variant_decode_ms", "kernels.variant_decode"),
        ("tokenizer.tokenize_ms", "tokenizer.tokenize"),
        ("gpu-sim.summary_ms", "gpu-sim.summary"),
        ("gpu-sim.resolve_ms", "gpu-sim.resolve"),
        ("prompt.render_ms", "prompt.render"),
        ("llm.rq1_bank_ms", "llm.rq1_bank"),
        ("llm.complete_ms", "llm.complete"),
        ("static-analysis.analyze_ms", "static-analysis.analyze"),
        ("core.table1_ms", "core.table1"),
        ("core.serve.parse_ms", "core.serve.parse"),
        ("core.serve.write_ms", "core.serve.write"),
    ] {
        m.insert(name, trace.total(span));
    }
    m.insert(
        "core.cell_ms_max",
        trace
            .durations
            .get("core.cell")
            .map_or(0.0, |d| d.iter().copied().fold(0.0, f64::max)),
    );
    for (name, v) in counts {
        m.insert(name, *v);
    }
    m.insert("trace.unattributed_ms", trace.unattributed_ms());
    m
}

/// Hit rates, evictions and residency of a suite-style cache report.
fn cache_layers(m: &mut Layers, report: &pce_core::caches::CacheReport) {
    m.insert("gpu-sim.summary_hit_rate", report.summary.hit_rate());
    m.insert("gpu-sim.profile_hit_rate", report.profile.hit_rate());
    m.insert(
        "gpu-sim.evictions",
        (report.summary.evictions + report.profile.evictions) as f64,
    );
    m.insert("llm.analysis_hit_rate", report.analysis.hit_rate());
    m.insert(
        "llm.classify_parse_hit_rate",
        report.classify_parse.hit_rate(),
    );
    m.insert("llm.rq1_parse_hit_rate", report.rq1_parse.hit_rate());
    m.insert("memo.resident_bytes", report.total_resident_bytes() as f64);
}

/// Ledger columns of the fault layer.
fn fault_layers(m: &mut Layers, acc: &pce_fault::ResponseAccounting) {
    m.insert("fault.retries", acc.retries as f64);
    m.insert("fault.invalid", acc.invalid as f64);
    m.insert("fault.refused", acc.refused as f64);
}

/// A traced run: pairs of (untraced pass, traced pass) for `seconds`.
fn traced(w: Workload, args: &Args) -> Result<RunResult, PceError> {
    let mut r = RunResult::default();
    let mut pairs: Vec<Layers> = Vec::new();
    let mut hits: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let start = Instant::now();
    let suite = adapter::study_suite(args.seed);
    let study = adapter::serve_study();
    let serve_in = match w {
        Workload::ServeMixed => Some(serve_inputs(args.seed)?),
        _ => None,
    };
    while pairs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let rec = Recorder::new();
        let (untraced_ms, mut layers, trace) = match w {
            Workload::Study => {
                let base: StudyPass = adapter::study_pass(&suite)?;
                let cells = adapter::study_traced(&suite, &base.rq1_models, &rec)?;
                if cells != base.outcome.cells {
                    r.failures
                        .push("traced study cells differ from the untraced pass".into());
                }
                r.failures.extend(adapter::study_failures(&suite, &base));
                r.attempted += cells.len() as u64;
                let (spans, counts) = rec.finish();
                let trace = TraceReport::from_spans(&spans);
                let mut m = common_layers(&trace, &counts);
                cache_layers(&mut m, &base.caches);
                fault_layers(&mut m, &base.outcome.accounting());
                m.insert("dataset.pipeline_ms", trace.total("dataset.pipeline"));
                let dedup = base
                    .outcome
                    .completed()
                    .first()
                    .map(|c| c.funnel.dedup.hit_rate());
                m.insert("memo.dedup_hit_rate", dedup.unwrap_or(0.0));
                for (name, n) in adapter::layer_hits(&base.caches) {
                    hits.entry(name).or_default().push(n);
                }
                ((base.setup.wall_s + base.pass.wall_s) * 1e3, m, trace)
            }
            Workload::CorpusScale => {
                let base: CorpusPass = adapter::corpus_pass(args.seed)?;
                let (spec, cfg) = adapter::corpus_inputs(args.seed);
                let labels = adapter::corpus_replay(&spec, &cfg, &rec)?;
                if labels != base.report.corpus_labels {
                    r.failures
                        .push("replayed labels differ from the pipeline's".into());
                }
                r.failures
                    .extend(adapter::corpus_failures(args.seed, &base));
                r.attempted += base.variants as u64;
                let (spans, counts) = rec.finish();
                let trace = TraceReport::from_spans(&spans);
                let mut m = common_layers(&trace, &counts);
                let [(_, summary), (_, profile)] = base.memo;
                m.insert("gpu-sim.summary_hit_rate", summary.hit_rate());
                m.insert("gpu-sim.profile_hit_rate", profile.hit_rate());
                m.insert(
                    "gpu-sim.evictions",
                    (summary.evictions + profile.evictions) as f64,
                );
                m.insert(
                    "memo.resident_bytes",
                    (summary.resident_bytes + profile.resident_bytes) as f64,
                );
                m.insert("memo.dedup_hit_rate", base.report.dedup.hit_rate());
                m.insert("dataset.pipeline_ms", base.dataset_s * 1e3);
                hits.entry("summary").or_default().push(summary.hits);
                hits.entry("profile").or_default().push(profile.hits);
                (base.pass.wall_s * 1e3, m, trace)
            }
            Workload::ServeMixed => {
                let (stream, input) = serve_in.as_ref().expect("serve inputs built above");
                let base: ServePass = adapter::serve_pass(&study, input)?;
                let t = adapter::serve_traced(&study, input, &rec)?;
                if t.transcript != base.transcript {
                    r.failures
                        .push("traced serve transcript differs from the untraced one".into());
                }
                if pairs.is_empty() {
                    r.failures
                        .extend(adapter::serve_failures(&study, stream, &base)?);
                }
                r.attempted += stream.len() as u64;
                let (spans, counts) = rec.finish();
                let trace = TraceReport::from_spans(&spans);
                let mut m = common_layers(&trace, &counts);
                cache_layers(&mut m, &base.caches);
                fault_layers(&mut m, &base.ledger);
                let batch = trace
                    .durations
                    .get("core.serve.batch")
                    .cloned()
                    .unwrap_or_default();
                m.insert("core.serve.batch_ms_p50", percentile(&batch, 50));
                m.insert(
                    "core.serve.batch_ms_tail",
                    percentile(&batch, tail_percentile(batch.len())),
                );
                m.insert("core.serve.batch_jobs", median(&t.batch_jobs));
                m.insert("core.serve.groups_per_batch", median(&t.groups));
                m.insert("core.serve.wait_ms", median(&t.wait_ms));
                let tail = tail_percentile(base.latencies_ms.len());
                m.insert(
                    "core.serve.latency_p99_ms",
                    percentile(&base.latencies_ms, tail),
                );
                m.insert("static-analysis.lint_rejects", t.lint_rejects as f64);
                m.insert("prompt.renders", base.caches.prompt_renders as f64);
                for (name, n) in adapter::layer_hits(&base.caches) {
                    hits.entry(name).or_default().push(n);
                }
                r.report.push(format!(
                    "serve-mixed batches: {} per session, core.serve.batch_ms_tail reports p{}",
                    batch.len(),
                    tail_percentile(batch.len())
                ));
                (base.pass.wall_s * 1e3, m, trace)
            }
        };
        layers.insert("trace.overhead_ms", trace.wall_ms - untraced_ms);
        r.report.push(trace.render(w.name(), untraced_ms));
        if w == Workload::CorpusScale {
            r.report.push(
                "  (the traced pass replays the pipeline's layer calls: its difference from the untraced pipeline is the replay's cost, not only tracing overhead)".into(),
            );
        }
        pairs.push(layers);
    }
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = pairs
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        r.metrics.insert(name, median(&values));
    }
    for (cache, layer) in [
        ("summary", "gpu-sim.summary_hits"),
        ("profile", "gpu-sim.profile_hits"),
        ("analysis", "llm.analysis_hits"),
        ("classify_parse", "llm.classify_parse_hits"),
        ("rq1_parse", "llm.rq1_parse_hits"),
    ] {
        let seen = hits.get(cache).cloned().unwrap_or_default();
        let (lo, hi) = (seen.iter().min(), seen.iter().max());
        let name = |suffix: &str| {
            PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| *n == format!("{layer}_{suffix}"))
                .expect("drift metric is listed")
        };
        r.metrics
            .insert(name("min"), lo.copied().unwrap_or(0) as f64);
        r.metrics
            .insert(name("max"), hi.copied().unwrap_or(0) as f64);
        r.report.push(format!(
            "counter drift {cache} hits over {} untraced passes: {seen:?}",
            seen.len()
        ));
    }
    Ok(r)
}
