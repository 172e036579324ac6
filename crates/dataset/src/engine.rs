//! The one dataset engine behind every pipeline entry point.
//!
//! [`run`] reads programs from an [`Input`] and runs the §2.2 funnel in
//! four stages: per-shard [`SampleMeta`] rows (profiled and labeled in
//! parallel, each carrying the profile's counts and runtime), a
//! corpus-order fold, [`select_and_balance`] on the rows, and a
//! materialization that builds each selected [`Sample`] from its program
//! and its row without profiling again. The first two report as
//! `shard-profile`, then `select-balance` and `materialize`.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use pce_fault::PceError;
use pce_gpu_sim::{Profiler, SimCaches};
use pce_kernels::{CorpusSpec, Language, Program};
use pce_memo::{Fnv, Stages, StreamDedup};
use pce_roofline::{classify_joint, Boundedness, HardwareSpec, OpCounts, SpecClass, SpecPair};
use pce_tokenizer::{token_quartiles, Tokenizer};

use crate::pipeline::{Dataset, PipelineConfig, PipelineReport, Split, TokenizedCorpus};
use crate::sample::Sample;

/// Where the engine reads programs and token counts from.
pub(crate) enum Input<'a> {
    /// A materialized corpus and its tokenization.
    Corpus(&'a [Program], &'a TokenizedCorpus),
    /// A corpus spec, regenerated per shard and counted with the tokenizer.
    Spec(&'a CorpusSpec, &'a Tokenizer),
}

impl<'a> Input<'a> {
    fn len(&self) -> usize {
        match self {
            Input::Corpus(corpus, _) => corpus.len(),
            Input::Spec(spec, _) => spec.len(),
        }
    }

    /// Programs `start..end` and their token counts.
    fn shard(&self, start: usize, end: usize) -> Result<ShardPrograms<'a>, PceError> {
        match *self {
            Input::Corpus(corpus, tokenized) => Ok((
                corpus[start..end].iter().map(Cow::Borrowed).collect(),
                Cow::Borrowed(&tokenized.token_counts[start..end]),
            )),
            Input::Spec(spec, tokenizer) => {
                let programs = spec
                    .stream_range(start, end)
                    .map(|p| p.map(Cow::Owned))
                    .collect::<Result<Vec<Cow<'a, Program>>, PceError>>()?;
                let sources: Vec<&str> = programs.iter().map(|p| p.source.as_str()).collect();
                let counts = tokenizer.count_batch(&sources);
                Ok((programs, Cow::Owned(counts)))
            }
        }
    }

    /// The program at corpus index `index`.
    fn program(&self, index: usize) -> Result<Cow<'a, Program>, PceError> {
        match *self {
            Input::Corpus(corpus, _) => Ok(Cow::Borrowed(&corpus[index])),
            Input::Spec(spec, _) => spec.program(index).map(Cow::Owned),
        }
    }
}

/// One shard's programs and their token counts.
type ShardPrograms<'a> = (Vec<Cow<'a, Program>>, Cow<'a, [usize]>);

/// One shard's output: a row and a profile fingerprint per program, plus
/// the hazard counts of its distinct sources.
struct Shard {
    rows: Vec<(SampleMeta, u64)>,
    hazards: Vec<(u64, Vec<u64>)>,
}

/// Reject a spec pair whose members sit in the wrong class slots.
pub(crate) fn check_specs(specs: &SpecPair) -> Result<(), PceError> {
    let errors = specs.validate();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(PceError::spec(format!("invalid spec pair: {errors:?}")))
    }
}

/// Run the funnel over `input` in shards of `shard_size` programs,
/// lapping `stages` at the end of each stage.
///
/// Fails on an invalid spec pair, or when a spec shard fails to
/// regenerate; a borrowed corpus fails only on the former.
pub(crate) fn run(
    input: Input<'_>,
    cfg: &PipelineConfig,
    caches: &SimCaches,
    shard_size: usize,
    stages: &mut Stages,
) -> Result<(Dataset, Split, PipelineReport), PceError> {
    check_specs(&cfg.specs)?;
    let gpu = Profiler::new(cfg.specs.gpu.clone()).with_caches(caches.clone());
    let cpu = Profiler::new(cfg.specs.cpu.clone()).with_caches(caches.clone());
    // One profiler per machine class, selected by each program's language.
    let routed = |language: Language| match language.spec_class() {
        SpecClass::Gpu => &gpu,
        SpecClass::Cpu => &cpu,
    };
    let total = input.len();
    let shard_size = shard_size.max(1);

    // --- Rows: profile + label + fingerprint per shard (parallel) --------
    let bounds: Vec<(usize, usize)> = (0..total)
        .step_by(shard_size)
        .map(|s| (s, (s + shard_size).min(total)))
        .collect();
    let shards: Vec<Result<Shard, PceError>> = bounds
        .par_iter()
        .map(|&(start, end)| {
            // The shard's programs are dropped on return: only rows survive.
            let (programs, token_counts) = input.shard(start, end)?;
            let rows = programs
                .iter()
                .zip(token_counts.iter())
                .enumerate()
                .map(|(off, (p, &token_count))| {
                    let profiler = routed(p.language);
                    let hw = profiler.hardware();
                    let profile = profiler.profile_shared(&p.ir, &p.launch);
                    let meta = SampleMeta {
                        index: start + off,
                        id: p.id.clone(),
                        language: p.language,
                        label: classify_joint(hw, &profile.counts).label,
                        token_count,
                        counts: profile.counts,
                        runtime_s: profile.runtime_s,
                    };
                    (meta, profile_fingerprint(p, &hw.name))
                })
                .collect();
            // A borrowed corpus is audited once, on its TokenizedCorpus.
            let hazards = match input {
                Input::Corpus(..) => Vec::new(),
                Input::Spec(..) => audit_distinct(programs.iter().map(|p| p.source.as_str())),
            };
            Ok(Shard { rows, hazards })
        })
        .collect();

    // --- Fold (sequential, corpus order) ----------------------------------
    // Shard order is corpus order, so the fold is independent of sharding
    // and thread count. The dedup fingerprints are standalone Fnv folds:
    // they add no traffic to the SimCaches counters.
    let mut metas = Vec::with_capacity(total);
    let mut dedup = StreamDedup::new();
    let mut audit = HazardAudit::new();
    for shard in shards {
        let shard = shard?;
        for (meta, fp) in shard.rows {
            dedup.observe(fp);
            metas.push(meta);
        }
        for (src_fp, counts) in &shard.hazards {
            audit.observe_counts(*src_fp, counts);
        }
    }
    let corpus_labels = metas.iter().map(|m| m.label).collect();
    let token_counts: Vec<usize> = metas.iter().map(|m| m.token_count).collect();
    let raw_token_stats = (!token_counts.is_empty()).then(|| token_quartiles(&token_counts));
    let hazards = match input {
        Input::Corpus(corpus, tokenized) => tokenized.hazards(corpus).clone(),
        Input::Spec(..) => audit.into_counts(),
    };
    stages.lap("shard-profile");

    // --- Select: prune → balance → split on rows --------------------------
    let selection = select_and_balance(metas, cfg);
    stages.lap("select-balance");

    // --- Materialize the selected rows (parallel) -------------------------
    let chosen: Vec<&SampleMeta> = selection
        .train
        .iter()
        .chain(&selection.validation)
        .collect();
    let samples: Vec<Result<Sample, PceError>> = chosen
        .par_iter()
        .map(|m| {
            let hw = routed(m.language).hardware();
            Ok(sample(input.program(m.index)?, m, hw))
        })
        .collect();
    let mut train = samples.into_iter().collect::<Result<Vec<_>, PceError>>()?;
    let validation = train.split_off(selection.train.len());
    let mut balanced = [train.as_slice(), &validation].concat();
    balanced.sort_unstable_by(|a, b| a.id.cmp(&b.id));
    stages.lap("materialize");

    let report = PipelineReport {
        built: selection.built,
        raw_token_stats,
        after_prune: selection.after_prune,
        corpus_labels,
        combo_before_balance: selection.combo_before_balance,
        per_combo: selection.per_combo,
        final_size: balanced.len(),
        train_size: train.len(),
        validation_size: validation.len(),
        dedup: dedup.stats(),
        hazards,
    };
    Ok((
        Dataset { samples: balanced },
        Split {
            train: Dataset { samples: train },
            validation: Dataset {
                samples: validation,
            },
        },
        report,
    ))
}

/// The one [`Sample`] constructor: a program plus its row, profiled and
/// labeled on `hw`. A borrowed program's fields are cloned, an owned
/// one's moved.
fn sample(program: Cow<'_, Program>, m: &SampleMeta, hw: &HardwareSpec) -> Sample {
    let geometry = program.launch.geometry_string();
    let (id, family, kernel_name, source, args) = match program {
        Cow::Borrowed(p) => (
            p.id.clone(),
            p.family.clone(),
            p.kernel_name.clone(),
            p.source.clone(),
            p.args.clone(),
        ),
        Cow::Owned(p) => (p.id, p.family, p.kernel_name, p.source, p.args),
    };
    Sample {
        id,
        family,
        language: m.language,
        kernel_name,
        source,
        geometry,
        args,
        token_count: m.token_count,
        spec_name: hw.name.clone(),
        spec_class: hw.class,
        counts: m.counts,
        runtime_s: m.runtime_s,
        label: m.label,
    }
}

/// The per-program row the fold and selection stages operate on.
///
/// It carries everything a [`Sample`] needs beyond the program itself —
/// the label, the token count and the profile's counters — so
/// materialization never profiles again, and a spec corpus holds full
/// programs for at most one shard per worker.
#[derive(Debug, Clone)]
struct SampleMeta {
    /// Position in the input corpus (stream index).
    index: usize,
    /// Program id (the balance/split sort key).
    id: String,
    /// Source language.
    language: Language,
    /// Ground-truth label against the routed spec.
    label: Boundedness,
    /// BPE token count of the source.
    token_count: usize,
    /// Profiled counters on the routed spec.
    counts: OpCounts,
    /// Profiled runtime in seconds on the routed spec.
    runtime_s: f64,
}

/// Outcome of the prune → balance → split selection, as rows: which
/// corpus programs land in each split, in final (id-sorted) order, plus
/// the funnel counts the report needs.
struct Selection {
    built: BTreeMap<String, usize>,
    after_prune: BTreeMap<String, usize>,
    combo_before_balance: BTreeMap<String, usize>,
    per_combo: usize,
    train: Vec<SampleMeta>,
    validation: Vec<SampleMeta>,
}

/// Prune by token count, balance (language × class) cells, and split —
/// entirely on rows, in corpus order.
///
/// The seeded shuffle permutation depends only on each cell's length and
/// the RNG stream, so shuffling rows reproduces precisely the permutation
/// the historical code applied to full samples.
///
/// # Panics
/// Panics when two programs share an id — that means corpus generation
/// broke its uniqueness invariant upstream.
fn select_and_balance(mut metas: Vec<SampleMeta>, cfg: &PipelineConfig) -> Selection {
    let count_lang = |metas: &[SampleMeta]| {
        let mut m = BTreeMap::new();
        for s in metas {
            *m.entry(s.language.label().to_string()).or_insert(0) += 1;
        }
        m
    };
    let built = count_lang(&metas);

    // --- Token-count pruning --------------------------------------------
    metas.retain(|m| m.token_count <= cfg.max_tokens);
    let after_prune = count_lang(&metas);

    // --- First kernel per program ----------------------------------------
    // Corpus programs carry exactly one profiled kernel (the first in the
    // object dump); a duplicate id would mean the invariant broke upstream.
    {
        let mut ids: Vec<&str> = metas.iter().map(|m| m.id.as_str()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate program ids in corpus");
    }

    // --- Balance (language × class) --------------------------------------
    let mut by_combo: BTreeMap<(Language, Boundedness), Vec<SampleMeta>> = BTreeMap::new();
    for m in metas {
        by_combo.entry((m.language, m.label)).or_default().push(m);
    }
    let combo_before_balance = by_combo
        .iter()
        .map(|((lang, label), v)| (format!("{}/{}", lang.label(), label.short()), v.len()))
        .collect();
    let min_cell = by_combo.values().map(|v| v.len()).min().unwrap_or(0);
    let per_combo = min_cell.min(cfg.per_combo_cap);

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut train = Vec::with_capacity(per_combo * 4);
    let mut validation = Vec::with_capacity(per_combo * 4);
    for (_, mut cell) in by_combo {
        cell.shuffle(&mut rng);
        cell.truncate(per_combo);
        // Split inside each cell so both splits stay balanced (§2.2: 68
        // train + 17 validation per cell).
        let train_n = (per_combo as f64 * cfg.train_fraction).round() as usize;
        for (i, m) in cell.into_iter().enumerate() {
            if i < train_n {
                train.push(m);
            } else {
                validation.push(m);
            }
        }
    }
    // Deterministic final ordering.
    train.sort_by(|a, b| a.id.cmp(&b.id));
    validation.sort_by(|a, b| a.id.cmp(&b.id));
    Selection {
        built,
        after_prune,
        combo_before_balance,
        per_combo,
        train,
        validation,
    }
}

/// Hazard counts of each distinct source in `sources`, in first-occurrence
/// order: (source fingerprint, per-rule counts aligned with
/// [`pce_static_analysis::RuleId::all`]). Diagnoses every distinct source
/// exactly once; repeats are skipped before any analysis runs.
pub(crate) fn audit_distinct<'s>(
    sources: impl IntoIterator<Item = &'s str>,
) -> Vec<(u64, Vec<u64>)> {
    let mut seen = HashSet::new();
    sources
        .into_iter()
        .filter_map(|source| {
            let mut h = Fnv::new();
            h.str(source);
            let fp = h.finish();
            seen.insert(fp).then(|| {
                let diags = pce_static_analysis::diagnose(source);
                let counts = pce_static_analysis::RuleId::all()
                    .iter()
                    .map(|r| diags.iter().filter(|d| d.rule == *r).count() as u64)
                    .collect();
                (fp, counts)
            })
        })
        .collect()
}

/// Corpus-order hazard audit, deduped by source fingerprint: each
/// *distinct* source contributes its per-rule diagnostic counts exactly
/// once, so a variant-expanded corpus (many ids, few distinct sources)
/// reports the hazards of its kernels, not of its multiplicity.
pub(crate) struct HazardAudit {
    seen: HashSet<u64>,
    counts: BTreeMap<String, u64>,
}

impl HazardAudit {
    pub(crate) fn new() -> HazardAudit {
        HazardAudit {
            seen: HashSet::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Fold one source's [`audit_distinct`] counts under its fingerprint;
    /// repeat sources are no-ops.
    pub(crate) fn observe_counts(&mut self, src_fp: u64, counts: &[u64]) {
        if !self.seen.insert(src_fp) {
            return;
        }
        for (rule, n) in pce_static_analysis::RuleId::all().iter().zip(counts) {
            if *n > 0 {
                *self.counts.entry(rule.id().to_string()).or_insert(0) += n;
            }
        }
    }

    /// The per-rule totals (only rules that fired).
    pub(crate) fn into_counts(self) -> BTreeMap<String, u64> {
        self.counts
    }
}

/// Fingerprint of the profiling work one program induces: the (kernel
/// IR, launch, routed hardware) tuple, folded with the same word-granular
/// FNV the profile memo keys on. Two programs with equal fingerprints
/// profile identically — the second one's profile is a memo hit.
///
/// Computed with a standalone [`Fnv`] accumulator, never through the
/// [`SimCaches`] tables, so dedup accounting adds zero hit/miss traffic
/// to the profile memo counters.
fn profile_fingerprint(p: &Program, hw_name: &str) -> u64 {
    let mut h = Fnv::new();
    h.u64(p.ir.fingerprint());
    h.map_u64(&p.launch.params);
    for d in [p.launch.grid, p.launch.block] {
        h.u64(d.x as u64);
        h.u64(d.y as u64);
        h.u64(d.z as u64);
    }
    h.u64(p.launch.regs_per_thread as u64);
    h.u64(p.launch.shared_bytes_per_block as u64);
    h.str(hw_name);
    h.finish()
}
