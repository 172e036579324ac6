//! Every call the benchmark makes into the workspace crates.
//!
//! Three kinds of call live here, one section per workload:
//!
//! * **passes** — the program's own entry points, timed end to end
//!   (set-up, then the timed phase), exactly as a user runs them;
//! * **traced runs** — the same work re-composed from the crates' public
//!   functions, with a span around each call so its time lands on the
//!   crate that did it. `study` and `serve-mixed` re-compose the whole
//!   pass and must reproduce its outputs byte for byte; `corpus-scale`
//!   replays the per-variant layer calls of the streamed pipeline (its
//!   selection and materialisation stages are timed by the pipeline's
//!   own stage timings instead);
//! * **checks** — output invariants that need the program (ground-truth
//!   labels, report rendering, cache counters).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, Write};
use std::time::Instant;

use rayon::prelude::*;

use pce_core::caches::{CacheBudget, CacheReport, SuiteCaches};
use pce_core::experiments::rq1::{run_rq1, Rq1Outcome};
use pce_core::experiments::rq23::{render_prompts, run_classification_prompted};
use pce_core::report::{render_flips_csv, render_suite, render_suite_csv};
use pce_core::serve::{encode_src, Command, Job, PredictionService, ServeConfig};
use pce_core::suite::{
    run_suite_shared_cached, CellOutcome, SharedBuild, SpecOutcome, Suite, SuiteOutcome,
};
use pce_core::table1::{Table1, Table1Row};
use pce_core::Study;
use pce_dataset::{
    run_pipeline_cached, run_pipeline_streamed_timed, tokenize_corpus, Dataset, PipelineConfig,
    PipelineReport,
};
use pce_fault::{PceError, ResponseAccounting};
use pce_gpu_sim::{CacheCounters, Profiler, SimBudget, SimCaches};
use pce_kernels::{build_corpus, CorpusSpec, Language, Program, VariantAxes};
use pce_llm::{model_zoo, SurrogateEngine};
use pce_prompt::ShotStyle;
use pce_roofline::{classify_joint, Boundedness, HardwareSpec, SpecClass, SpecPair};

use crate::gen::{derive_seed, Expect, ServeCatalog, ServeKernel, StreamJob};
use crate::host::{Lap, Stopwatch};
use crate::trace::{Recorder, SpanId, ROOT};
use crate::wire::{answer_index, job_latencies_ms, LineReader, LineWriter};

/// The five memo layers' hit counts, in [`CacheReport::layers`] order.
pub fn layer_hits(report: &CacheReport) -> [(&'static str, u64); 5] {
    report.layers().map(|(name, c)| (name, c.hits))
}

/// Resident bytes of every memo layer above `budget`, as failure notes.
fn over_budget(layers: &[(&str, CacheCounters)], budget: u64) -> Vec<String> {
    layers
        .iter()
        .filter(|(_, c)| c.resident_bytes > budget)
        .map(|(name, c)| format!("{name} memo holds {} B > {budget} B", c.resident_bytes))
        .collect()
}

/// Balance invariants of one funnel against its pipeline config.
fn funnel_failures(what: &str, funnel: &PipelineReport, cfg: &PipelineConfig) -> Vec<String> {
    let mut out = Vec::new();
    let min_cell = funnel.combo_before_balance.values().min().copied();
    let expected = min_cell.unwrap_or(0).min(cfg.per_combo_cap);
    if funnel.combo_before_balance.len() != 4 || funnel.per_combo != expected {
        out.push(format!(
            "{what}: {} combos, per_combo {} (expected {expected})",
            funnel.combo_before_balance.len(),
            funnel.per_combo
        ));
    }
    let train = (funnel.per_combo as f64 * cfg.train_fraction).round() as usize * 4;
    if funnel.final_size != 4 * funnel.per_combo
        || funnel.train_size != train
        || funnel.train_size + funnel.validation_size != funnel.final_size
    {
        out.push(format!(
            "{what}: dataset {} = train {} + validation {} does not match per_combo {}",
            funnel.final_size, funnel.train_size, funnel.validation_size, funnel.per_combo
        ));
    }
    out
}

// ---------------------------------------------------------------- study

/// The paper-scale suite over every GPU × CPU preset, with the
/// balancing and evaluation seeds moved by `seed`. The corpus stays the
/// paper's, so every seed asks for the same amount of work.
pub fn study_suite(seed: u64) -> Suite {
    let mut suite = Suite::default();
    suite.base.pipeline.seed = derive_seed(suite.base.pipeline.seed, seed);
    suite.base.seed = derive_seed(suite.base.seed, seed);
    suite
}

/// One untraced `study` pass on fresh, unbounded caches.
pub struct StudyPass {
    /// `SharedBuild` (corpus, tokenizer, RQ1 bank).
    pub setup: Lap,
    /// The matrix evaluation.
    pub pass: Lap,
    /// The suite outcome.
    pub outcome: SuiteOutcome,
    /// Cache counters after the pass.
    pub caches: CacheReport,
    /// Models the RQ1 bank covers.
    pub rq1_models: Vec<String>,
}

impl StudyPass {
    /// Classification predictions made by the matrix.
    pub fn predictions(&self) -> u64 {
        self.outcome.accounting().total()
    }

    /// The rendered report the digest pins: suite markdown, per-cell CSV
    /// and flip CSV.
    pub fn rendered(&self) -> String {
        format!(
            "{}\n{}\n{}",
            render_suite(&self.outcome),
            render_suite_csv(&self.outcome),
            render_flips_csv(&self.outcome)
        )
    }
}

/// Run one `study` pass: set-up, then the matrix.
pub fn study_pass(suite: &Suite) -> Result<StudyPass, PceError> {
    let caches = SuiteCaches::new();
    let t = Stopwatch::start();
    let shared = SharedBuild::build_cached(suite, &caches)?;
    let setup = t.lap();
    let t = Stopwatch::start();
    let outcome = run_suite_shared_cached(suite, &shared, &caches)?;
    let pass = t.lap();
    let rq1_models = model_zoo()
        .iter()
        .filter(|m| shared.rq1.outcome(&m.name).is_some())
        .map(|m| m.name.clone())
        .collect();
    Ok(StudyPass {
        setup,
        pass,
        outcome,
        caches: caches.report(),
        rq1_models,
    })
}

/// Output invariants of a `study` pass: no failed cell, balanced
/// ledgers, no invalid or refused response, every cell's dataset
/// balanced as its pipeline config says.
pub fn study_failures(suite: &Suite, pass: &StudyPass) -> Vec<String> {
    let mut out: Vec<String> = pass
        .outcome
        .failures()
        .into_iter()
        .map(|(cell, e)| format!("cell {cell} failed: {e}"))
        .collect();
    let acc = pass.outcome.accounting();
    if !acc.balanced() || acc.invalid + acc.refused > 0 {
        out.push(format!("study ledger: {acc:?}"));
    }
    for cell in pass.outcome.completed() {
        out.extend(funnel_failures(
            &cell.pair_label(),
            &cell.funnel,
            &suite.base.pipeline,
        ));
    }
    out
}

/// The `study` matrix re-composed from public functions under spans:
/// `SharedBuild`'s three stages, then per cell the profile summaries and
/// resolves, the dataset pipeline, the two prompt renders and the
/// per-model classifications, assembled into Table 1 as the suite does.
/// The flip analysis is private to the suite and is not re-run; the
/// returned cells must equal the untraced pass's.
pub fn study_traced(
    suite: &Suite,
    rq1_models: &[String],
    rec: &Recorder,
) -> Result<Vec<CellOutcome>, PceError> {
    let caches = SuiteCaches::new();
    rec.span(None, ROOT, |root| {
        let corpus = rec.span(Some(root), "kernels.corpus", |_| {
            build_corpus(&suite.base.corpus)
        })?;
        let tokenized = rec.span(Some(root), "tokenizer.tokenize", |_| {
            tokenize_corpus(&corpus, &suite.base.pipeline)
        });
        let rq1_engine = SurrogateEngine::with_caches(caches.llm.clone());
        let rq1: BTreeMap<String, Rq1Outcome> = rec.span(Some(root), "llm.rq1_bank", |_| {
            rq1_models
                .par_iter()
                .map(|m| (m.clone(), run_rq1(&suite.base, &rq1_engine, m)))
                .collect::<Vec<_>>()
                .into_iter()
                .collect()
        });
        Ok(suite
            .cells()
            .par_iter()
            .map(|pair| {
                rec.span(Some(root), "core.cell", |cell| {
                    let study = suite.base.with_specs(pair.clone());
                    let (dataset, _, funnel) = rec.span(Some(cell), "dataset.pipeline", |_| {
                        prewarm_profiles(rec, cell, &corpus, pair, &caches.sim);
                        run_pipeline_cached(&corpus, &tokenized, &study.pipeline, &caches.sim)
                    });
                    let (table, zero_shot_correct) = rec.span(Some(cell), "core.table1", |t1| {
                        traced_table1(
                            rec,
                            t1,
                            &study,
                            &dataset.samples,
                            &rq1,
                            &rq1_engine,
                            &caches,
                        )
                    });
                    let acc = table.accounting();
                    if acc.total() > 0 && acc.valid + acc.retried_valid == 0 {
                        return CellOutcome::Failed {
                            spec: pair.gpu.clone(),
                            cpu_spec: pair.cpu.clone(),
                            error: PceError::io(format!(
                                "all {} responses were invalid or refused after retries",
                                acc.total()
                            )),
                        };
                    }
                    CellOutcome::Completed(SpecOutcome {
                        spec: pair.gpu.clone(),
                        cpu_spec: pair.cpu.clone(),
                        dataset_ids: dataset.samples.iter().map(|s| s.id.clone()).collect(),
                        zero_shot_correct,
                        table,
                        funnel,
                    })
                })
            })
            .collect())
    })
}

/// Fold every program's body summary, then resolve every profile, into
/// `caches` under the cell's routed specs, so the pipeline that follows
/// finds its profiles memoized and `gpu-sim` time is measured here.
fn prewarm_profiles(
    rec: &Recorder,
    parent: SpanId,
    corpus: &[Program],
    pair: &SpecPair,
    caches: &SimCaches,
) {
    let gpu = Profiler::new(pair.gpu.clone()).with_caches(caches.clone());
    let cpu = Profiler::new(pair.cpu.clone()).with_caches(caches.clone());
    let routed = |p: &Program| match p.language.spec_class() {
        SpecClass::Gpu => &gpu,
        SpecClass::Cpu => &cpu,
    };
    rec.span(Some(parent), "gpu-sim.summary", |_| {
        corpus.par_iter().for_each(|p| {
            routed(p).summary(&p.ir, &p.launch);
        })
    });
    rec.span(Some(parent), "gpu-sim.resolve", |_| {
        corpus.par_iter().for_each(|p| {
            routed(p).profile_shared(&p.ir, &p.launch);
        })
    });
    rec.count("gpu-sim.summary_calls", corpus.len() as f64);
    rec.count("gpu-sim.resolve_calls", corpus.len() as f64);
}

/// Table 1 for one cell, as `build_table1_from_bank_cached` assembles it:
/// one render per shot style, nine models classify in parallel, rows
/// sorted by RQ1 then RQ2 accuracy, the RQ1 bank's spend absorbed.
fn traced_table1(
    rec: &Recorder,
    parent: SpanId,
    study: &Study,
    samples: &[pce_dataset::Sample],
    rq1: &BTreeMap<String, Rq1Outcome>,
    rq1_engine: &SurrogateEngine,
    caches: &SuiteCaches,
) -> (Table1, Vec<(String, Vec<bool>)>) {
    let engine = SurrogateEngine::with_caches_and_faults(
        caches.llm.clone(),
        study.chaos.as_ref().map(|c| c.plan.clone()),
    );
    let render = |style| {
        let prompts = rec.span(Some(parent), "prompt.render", |_| {
            render_prompts(study, samples, style)
        });
        rec.count("prompt.renders", prompts.len() as f64);
        rec.count(
            "prompt.bytes",
            prompts.iter().map(String::len).sum::<usize>() as f64,
        );
        prompts
    };
    let zero = render(ShotStyle::ZeroShot);
    let few = render(ShotStyle::FewShot);
    caches.count_prompt_renders((zero.len() + few.len()) as u64);
    let classify = |model: &str, prompts: &[String], style| {
        rec.count("llm.completions", samples.len() as f64);
        rec.span(Some(parent), "llm.complete", |_| {
            run_classification_prompted(study, &engine, model, samples, prompts, style)
        })
    };
    let cells: Vec<(Table1Row, Vec<bool>)> = model_zoo()
        .par_iter()
        .map(|spec| {
            let best = rq1.get(&spec.name);
            let rq2 = classify(&spec.name, &zero, ShotStyle::ZeroShot);
            let rq3 = classify(&spec.name, &few, ShotStyle::FewShot);
            let row = Table1Row {
                model: spec.name.clone(),
                reasoning: spec.reasoning,
                cost: format!("${} / ${}", spec.input_cost, spec.output_cost),
                rq1_acc: best.map(|o| o.best_acc),
                rq1_cot_acc: best.map(|o| o.best_acc_cot),
                accounting: rq2.accounting.merged(&rq3.accounting),
                rq2: rq2.metrics,
                rq3: rq3.metrics,
            };
            (row, rq2.correct)
        })
        .collect();
    engine.meter().absorb(rq1_engine.meter());
    let zero_shot_correct = cells
        .iter()
        .map(|(row, correct)| (row.model.clone(), correct.clone()))
        .collect();
    let mut rows: Vec<Table1Row> = cells.into_iter().map(|(row, _)| row).collect();
    rows.sort_by(|a, b| {
        let key = |r: &Table1Row| (r.rq1_acc.unwrap_or(0.0), r.rq2.accuracy);
        let (ka, kb) = (key(a), key(b));
        kb.0.total_cmp(&ka.0).then(kb.1.total_cmp(&ka.1))
    });
    let table = Table1 {
        rows,
        total_cost: engine.meter().total_cost(),
    };
    (table, zero_shot_correct)
}

// --------------------------------------------------------- corpus-scale

/// Programs per shard of the streamed pipeline.
pub const SHARD_SIZE: usize = 512;

/// Byte budget of each simulator memo layer on `corpus-scale`.
pub const MEMO_BUDGET: u64 = 4 << 20;

/// The `corpus-scale` inputs for `seed`: the reduced 210-program base
/// corpus × [`VariantAxes::scale`] = 15,120 variants, under the paper's
/// pipeline config with the balancing seed moved by `seed`, which picks
/// the variants the balanced dataset keeps. The variants themselves stay
/// fixed, so every seed asks for the same amount of work.
pub fn corpus_inputs(seed: u64) -> (CorpusSpec, PipelineConfig) {
    let base = Study::smoke().corpus;
    let mut cfg = Study::default().pipeline;
    cfg.seed = derive_seed(cfg.seed, seed);
    (
        CorpusSpec {
            base,
            axes: VariantAxes::scale(),
        },
        cfg,
    )
}

/// One untraced `corpus-scale` pass.
pub struct CorpusPass {
    /// Median time to build the spec and the bounded cache bundle, seconds.
    pub setup_s: f64,
    /// The streamed pipeline.
    pub pass: Lap,
    /// Variants streamed.
    pub variants: usize,
    /// The balanced dataset.
    pub dataset: Dataset,
    /// The funnel report.
    pub report: PipelineReport,
    /// Wall seconds of the pipeline's `select-balance` and `materialize`
    /// stages: the dataset crate's own work, after the per-variant layer
    /// calls of `tokenize-train` and `shard-profile`.
    pub dataset_s: f64,
    /// Summary and profile memo counters after the pass.
    pub memo: [(&'static str, CacheCounters); 2],
}

impl CorpusPass {
    /// Digest of the dataset JSON, which the default seed pins.
    pub fn digest(&self) -> Result<u64, PceError> {
        Ok(crate::digest(self.dataset.to_json()?.as_bytes()))
    }
}

/// Set-ups timed per `corpus-scale` pass; the pass reports their median,
/// because one set-up takes microseconds.
const CORPUS_SETUPS: usize = 201;

/// Run one `corpus-scale` pass: set-up, then the streamed pipeline over
/// every variant in [`SHARD_SIZE`] shards under [`MEMO_BUDGET`].
pub fn corpus_pass(seed: u64) -> Result<CorpusPass, PceError> {
    let setup = || {
        let (spec, cfg) = corpus_inputs(seed);
        let caches = SimCaches::with_budget(SimBudget::uniform(MEMO_BUDGET));
        (spec, cfg, caches)
    };
    let mut setups: Vec<f64> = (0..CORPUS_SETUPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(setup());
            t.elapsed().as_secs_f64()
        })
        .collect();
    setups.sort_by(f64::total_cmp);
    let (spec, cfg, caches) = setup();
    let t = Stopwatch::start();
    let (dataset, _, report, stages) =
        run_pipeline_streamed_timed(&spec, &cfg, &caches, SHARD_SIZE)?;
    let pass = t.lap();
    let dataset_s = stages
        .iter()
        .filter(|s| matches!(s.stage.as_str(), "select-balance" | "materialize"))
        .map(|s| s.seconds)
        .sum();
    Ok(CorpusPass {
        pass,
        dataset_s,
        setup_s: setups[CORPUS_SETUPS / 2],
        variants: spec.len(),
        dataset,
        report,
        memo: [
            ("summary", caches.summaries().counters()),
            ("profile", caches.profiles().counters()),
        ],
    })
}

/// Output invariants of a `corpus-scale` pass: every variant labeled and
/// folded into the dedup stats, the dataset balanced as configured, each
/// memo layer within its budget, and evicting.
pub fn corpus_failures(seed: u64, pass: &CorpusPass) -> Vec<String> {
    let (_, cfg) = corpus_inputs(seed);
    let mut out = funnel_failures("corpus-scale", &pass.report, &cfg);
    if pass.report.corpus_labels.len() != pass.variants
        || pass.report.dedup.total() as usize != pass.variants
    {
        out.push(format!(
            "{} labels and {} dedup observations for {} variants",
            pass.report.corpus_labels.len(),
            pass.report.dedup.total(),
            pass.variants
        ));
    }
    let mut combos: BTreeMap<(Language, Boundedness), usize> = BTreeMap::new();
    for s in &pass.dataset.samples {
        *combos.entry(s.combo()).or_insert(0) += 1;
    }
    if combos.len() != 4 || combos.values().any(|&n| n != pass.report.per_combo) {
        out.push(format!("unbalanced dataset: {combos:?}"));
    }
    out.extend(over_budget(&pass.memo, MEMO_BUDGET));
    if pass.memo.iter().all(|(_, c)| c.evictions == 0) {
        out.push(format!("no memo layer evicted under {MEMO_BUDGET} B"));
    }
    out
}

/// Replay, under spans, the per-variant layer calls the streamed pipeline
/// makes, over the same spec, shard size and memo budget: decode the
/// tokenizer's training subsample and train it, then per shard (in
/// parallel) decode the variants, count their tokens, fold summaries,
/// resolve and label profiles, and run the hazard audit's `diagnose`.
/// Returns the variants' labels, which must equal the pipeline's.
pub fn corpus_replay(
    spec: &CorpusSpec,
    cfg: &PipelineConfig,
    rec: &Recorder,
) -> Result<Vec<Boundedness>, PceError> {
    let caches = SimCaches::with_budget(SimBudget::uniform(MEMO_BUDGET));
    let gpu = Profiler::new(cfg.specs.gpu.clone()).with_caches(caches.clone());
    let cpu = Profiler::new(cfg.specs.cpu.clone()).with_caches(caches.clone());
    let routed = |p: &Program| match p.language.spec_class() {
        SpecClass::Gpu => &gpu,
        SpecClass::Cpu => &cpu,
    };
    rec.span(None, ROOT, |root| {
        let stride = cfg.tokenizer_stride.max(1);
        let docs = rec.span(Some(root), "kernels.variant_decode", |_| {
            (0..spec.len())
                .step_by(stride)
                .map(|k| spec.program(k).map(|p| p.source))
                .collect::<Result<Vec<String>, PceError>>()
        })?;
        let tokenizer = rec.span(Some(root), "tokenizer.tokenize", |_| {
            let vocab = pce_tokenizer::BpeTrainer::new(cfg.tokenizer_vocab)
                .train(docs.iter().map(String::as_str));
            pce_tokenizer::Tokenizer::new(vocab)
        });
        let bounds: Vec<(usize, usize)> = (0..spec.len())
            .step_by(SHARD_SIZE)
            .map(|s| (s, (s + SHARD_SIZE).min(spec.len())))
            .collect();
        let shards: Vec<Result<Vec<Boundedness>, PceError>> = bounds
            .par_iter()
            .map(|&(start, end)| {
                rec.span(Some(root), "dataset.shard", |shard| {
                    let programs = rec.span(Some(shard), "kernels.variant_decode", |_| {
                        spec.stream_range(start, end)
                            .collect::<Result<Vec<Program>, PceError>>()
                    })?;
                    rec.span(Some(shard), "tokenizer.tokenize", |_| {
                        let sources: Vec<&str> =
                            programs.iter().map(|p| p.source.as_str()).collect();
                        tokenizer.count_batch(&sources)
                    });
                    rec.span(Some(shard), "gpu-sim.summary", |_| {
                        for p in &programs {
                            routed(p).summary(&p.ir, &p.launch);
                        }
                    });
                    let labels = rec.span(Some(shard), "gpu-sim.resolve", |_| {
                        programs
                            .iter()
                            .map(|p| {
                                let profiler = routed(p);
                                let profile = profiler.profile_shared(&p.ir, &p.launch);
                                classify_joint(profiler.hardware(), &profile.counts).label
                            })
                            .collect()
                    });
                    rec.span(Some(shard), "static-analysis.analyze", |_| {
                        for p in &programs {
                            pce_static_analysis::diagnose(&p.source);
                        }
                    });
                    let n = programs.len() as f64;
                    for name in [
                        "gpu-sim.summary_calls",
                        "gpu-sim.resolve_calls",
                        "static-analysis.analyze_calls",
                    ] {
                        rec.count(name, n);
                    }
                    Ok(labels)
                })
            })
            .collect();
        let mut labels = Vec::with_capacity(spec.len());
        for shard in shards {
            labels.extend(shard?);
        }
        Ok(labels)
    })
}

// ---------------------------------------------------------- serve-mixed

/// Admission batch of the serve bin's default protocol config.
pub const SERVE_BATCH: usize = 32;

/// Byte budget of each memo layer on `serve-mixed`: below the stream's
/// working set, so the caches evict.
pub const SERVE_CACHE_BYTES: u64 = 256 << 10;

/// The service's study: the paper-scale corpus, fault-free.
pub fn serve_study() -> Study {
    Study::default()
}

/// A preset's protocol slug: lowercase ASCII alphanumerics, every other
/// run of characters one dash (`preset_by_name` resolves it back).
fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// What the `serve-mixed` generator may draw from: the study's corpus
/// (ids, encoded sources and barrier-free copies), preset slugs per
/// machine class, and the model zoo.
pub fn serve_catalog(study: &Study) -> Result<ServeCatalog, PceError> {
    let kernels = build_corpus(&study.corpus)?
        .into_iter()
        .map(|p| ServeKernel {
            gpu: p.language.spec_class() == SpecClass::Gpu,
            src: encode_src(&p.source),
            hazard_src: crate::gen::remove_barriers(&p.source).map(|s| encode_src(&s)),
            id: p.id,
        })
        .collect();
    let slugs = |specs: Vec<HardwareSpec>| specs.iter().map(|h| slug(&h.name)).collect();
    Ok(ServeCatalog {
        kernels,
        gpu_specs: slugs(HardwareSpec::gpu_presets()),
        cpu_specs: slugs(HardwareSpec::cpu_presets()),
        models: model_zoo().iter().map(|m| m.name.clone()).collect(),
    })
}

/// One untraced `serve-mixed` pass.
pub struct ServePass {
    /// `PredictionService::new`.
    pub setup: Lap,
    /// The whole session.
    pub pass: Lap,
    /// Per-job latencies on the wall clock, ms.
    pub latencies_ms: Vec<f64>,
    /// The response transcript.
    pub transcript: Vec<u8>,
    /// The service-wide ledger after the session.
    pub ledger: ResponseAccounting,
    /// Whether every per-model ledger balanced.
    pub balanced: bool,
    /// Cache counters after the session.
    pub caches: CacheReport,
}

fn serve_service(study: &Study) -> Result<PredictionService, PceError> {
    PredictionService::new(study.clone(), Some(CacheBudget::uniform(SERVE_CACHE_BYTES)))
}

/// Run one `serve-mixed` pass: a fresh service, then one closed-loop
/// session over `input` with the serve bin's default protocol config.
pub fn serve_pass(study: &Study, input: &[Vec<u8>]) -> Result<ServePass, PceError> {
    let t = Stopwatch::start();
    let service = serve_service(study)?;
    let setup = t.lap();
    let mut reader = LineReader::new(input);
    let mut writer = LineWriter::default();
    let t = Stopwatch::start();
    service
        .serve_session(&mut reader, &mut writer, &ServeConfig::classic(SERVE_BATCH))
        .map_err(|e| PceError::io(e.to_string()))?;
    let pass = t.lap();
    Ok(ServePass {
        setup,
        pass,
        latencies_ms: job_latencies_ms(&reader, &writer),
        transcript: writer.transcript,
        ledger: service.ledger(),
        balanced: service.ledger_balanced(),
        caches: service.caches().report(),
    })
}

/// Output invariants of a `serve-mixed` pass: every job answered exactly
/// once, with the expected kind; every `truth=` equal to `classify_joint`
/// over `Profiler::profile_shared` for its kernel and spec; a balanced
/// ledger with no invalid or refused response; memo layers within budget,
/// and evicting, so the budget stays below the stream's working set.
pub fn serve_failures(
    study: &Study,
    stream: &[StreamJob],
    pass: &ServePass,
) -> Result<Vec<String>, PceError> {
    let programs = build_corpus(&study.corpus)?;
    let mut truths: HashMap<(usize, &str), &'static str> = HashMap::new();
    let mut out = Vec::new();
    let mut answers: Vec<Option<&str>> = vec![None; stream.len()];
    let text = String::from_utf8_lossy(&pass.transcript);
    for line in text.lines() {
        match answer_index(line).filter(|&i| i < stream.len()) {
            Some(i) if answers[i].is_none() => answers[i] = Some(line),
            _ => out.push(format!("unexpected or duplicate answer: {line}")),
        }
    }
    for (i, (job, answer)) in stream.iter().zip(answers).enumerate() {
        let Some(answer) = answer else {
            out.push(format!("job j{i} has no answer"));
            continue;
        };
        let ok = match &job.expect {
            Expect::Lint => answer.starts_with(&format!("err id=j{i} kind=lint ")),
            Expect::Static => {
                answer.starts_with(&format!("ok id=j{i} kernel="))
                    && answer.contains(" model=static prediction=")
            }
            Expect::Kernel {
                kernel,
                spec,
                model,
                ..
            } => {
                let truth = match truths.get(&(*kernel, spec.as_str())) {
                    Some(t) => *t,
                    None => {
                        let hw = HardwareSpec::preset_by_name(spec)
                            .map_err(|e| PceError::spec(e.to_string()))?;
                        let p = &programs[*kernel];
                        let profile = Profiler::new(hw.clone()).profile_shared(&p.ir, &p.launch);
                        let t = classify_joint(&hw, &profile.counts).label.answer_token();
                        truths.insert((*kernel, spec.as_str()), t);
                        t
                    }
                };
                let head = format!("ok id=j{i} kernel={} model={model} ", programs[*kernel].id);
                let prediction = answer
                    .split_whitespace()
                    .find_map(|t| t.strip_prefix("prediction="));
                let correct = prediction == Some(truth);
                answer.starts_with(&head)
                    && matches!(prediction, Some("Compute" | "Bandwidth"))
                    && answer.ends_with(&format!(" truth={truth} correct={correct}"))
            }
        };
        if !ok {
            out.push(format!("job j{i} ({:?}) answered: {answer}", job.expect));
        }
    }
    let l = &pass.ledger;
    let lint = stream.iter().filter(|j| j.expect == Expect::Lint).count() as u64;
    if !pass.balanced
        || l.admitted != stream.len() as u64
        || l.lint != lint
        || l.completed + l.lint != l.admitted
        || l.invalid + l.refused > 0
    {
        out.push(format!("serve ledger: {l:?} (balanced {})", pass.balanced));
    }
    out.extend(over_budget(&pass.caches.layers(), SERVE_CACHE_BYTES));
    if pass.caches.total_evictions() == 0 {
        out.push(format!(
            "no memo layer evicted under {SERVE_CACHE_BYTES} B: the budget is not below the stream's working set"
        ));
    }
    Ok(out)
}

/// Counts from one traced `serve-mixed` session.
#[derive(Debug, Default)]
pub struct ServeTraced {
    /// The response transcript (must equal the untraced one).
    pub transcript: Vec<u8>,
    /// Per-job wait from request line read to batch dispatch, ms.
    pub wait_ms: Vec<f64>,
    /// Jobs per dispatched batch.
    pub batch_jobs: Vec<f64>,
    /// Distinct (kernel, spec, style) groups per dispatched batch.
    pub groups: Vec<f64>,
    /// Answers of kind `lint`.
    pub lint_rejects: u64,
}

/// The classic `serve_session` loop re-composed under spans: read a line,
/// `Command::parse` it, queue it, and every [`SERVE_BATCH`] jobs (and at
/// `quit`) dispatch: `src=` jobs through `predict_batch` on their own —
/// admission runs the static analyzer and nothing else for them — then
/// the `kernel=` jobs through `predict_batch`, then write the answers in
/// request order. Without deadlines, chaos or a bounded queue the
/// session's answers depend only on each job, so the transcript must
/// equal the untraced session's.
pub fn serve_traced(
    study: &Study,
    input: &[Vec<u8>],
    rec: &Recorder,
) -> Result<ServeTraced, PceError> {
    // Set-up is outside the session's root span; the corpus build that
    // dominates it is timed on its own, as on `study`.
    rec.span(None, "kernels.corpus", |_| build_corpus(&study.corpus))?;
    let service = serve_service(study)?;
    let mut reader = LineReader::new(input);
    let mut writer = LineWriter::default();
    let mut out = ServeTraced::default();
    let io = |e: std::io::Error| PceError::io(e.to_string());
    rec.span(None, ROOT, |root| {
        let mut pending: Vec<(Job, Instant)> = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).map_err(io)? == 0 {
                break;
            }
            let read_at = *reader.read_at.last().unwrap_or(&Instant::now());
            let command = rec.span(Some(root), "core.serve.parse", |_| {
                Command::parse(line.trim())
            })?;
            let quit = match command {
                Command::Predict(job) => {
                    pending.push((job, read_at));
                    false
                }
                Command::Quit => true,
                other => return Err(PceError::spec(format!("unexpected {other:?}"))),
            };
            while pending.len() >= SERVE_BATCH || (quit && !pending.is_empty()) {
                let n = pending.len().min(SERVE_BATCH);
                let chunk: Vec<(Job, Instant)> = pending.drain(..n).collect();
                let lines = traced_dispatch(&service, rec, root, &chunk, &mut out);
                rec.span(Some(root), "core.serve.write", |_| {
                    lines.iter().try_for_each(|l| writeln!(writer, "{l}"))
                })
                .map_err(io)?;
            }
            if quit {
                break;
            }
        }
        Ok(())
    })?;
    out.transcript = writer.transcript;
    Ok(out)
}

/// One traced dispatch of `chunk`; returns the answers in request order.
fn traced_dispatch(
    service: &PredictionService,
    rec: &Recorder,
    root: SpanId,
    chunk: &[(Job, Instant)],
    out: &mut ServeTraced,
) -> Vec<String> {
    rec.span(Some(root), "core.serve.dispatch", |dispatch| {
        let now = Instant::now();
        out.wait_ms.extend(
            chunk
                .iter()
                .map(|(_, read)| now.duration_since(*read).as_secs_f64() * 1e3),
        );
        out.batch_jobs.push(chunk.len() as f64);
        let (src, kernel): (Vec<usize>, Vec<usize>) =
            (0..chunk.len()).partition(|&i| chunk[i].0.src.is_some());
        let groups: BTreeSet<(&str, &str, bool)> = kernel
            .iter()
            .map(|&i| {
                let j = &chunk[i].0;
                let few = matches!(j.style, ShotStyle::FewShot);
                (j.kernel.as_str(), j.spec.as_str(), few)
            })
            .collect();
        out.groups.push(groups.len() as f64);
        let jobs =
            |part: &[usize]| -> Vec<Job> { part.iter().map(|&i| chunk[i].0.clone()).collect() };
        let static_lines = rec.span(Some(dispatch), "static-analysis.analyze", |_| {
            service.predict_batch(&jobs(&src))
        });
        rec.count("static-analysis.analyze_calls", src.len() as f64);
        out.lint_rejects += static_lines
            .iter()
            .filter(|l| l.contains(" kind=lint "))
            .count() as u64;
        let kernel_lines = rec.span(Some(dispatch), "core.serve.batch", |_| {
            service.predict_batch(&jobs(&kernel))
        });
        rec.count("llm.completions", kernel.len() as f64);
        let mut answers = vec![String::new(); chunk.len()];
        for (i, l) in src.into_iter().zip(static_lines) {
            answers[i] = l;
        }
        for (i, l) in kernel.into_iter().zip(kernel_lines) {
            answers[i] = l;
        }
        answers
    })
}
