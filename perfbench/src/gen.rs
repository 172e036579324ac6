//! Seeded input generation. Everything here is a pure function of the
//! seed and of catalog data the adapter reads from the program once
//! (kernel ids, encoded sources, preset and model names), so the same
//! seed always yields the same inputs.

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Derive a program-side seed from a default one: the benchmark's
/// [`DEFAULT_SEED`](crate::DEFAULT_SEED) keeps `base` unchanged, every
/// other seed moves it to a decorrelated value.
pub fn derive_seed(base: u64, seed: u64) -> u64 {
    match seed.wrapping_sub(crate::DEFAULT_SEED) {
        0 => base,
        d => base ^ Rng::new(d).next_u64(),
    }
}

/// Zipf(`s`) over ranks `0..n`, sampled by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One corpus kernel as the serve generator sees it.
#[derive(Debug, Clone)]
pub struct ServeKernel {
    /// Corpus id (`kernel=`).
    pub id: String,
    /// Whether the kernel is CUDA (GPU presets) rather than OMP (CPU).
    pub gpu: bool,
    /// Percent-encoded source (`src=`).
    pub src: String,
    /// Percent-encoded source with its barriers removed, for kernels
    /// that have any (see [`remove_barriers`]).
    pub hazard_src: Option<String>,
}

/// What the generator may put in a `serve-mixed` stream.
#[derive(Debug, Clone)]
pub struct ServeCatalog {
    /// Corpus kernels in corpus order.
    pub kernels: Vec<ServeKernel>,
    /// GPU preset slugs.
    pub gpu_specs: Vec<String>,
    /// CPU preset slugs.
    pub cpu_specs: Vec<String>,
    /// Zoo model names.
    pub models: Vec<String>,
}

/// The answer a stream job must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `ok ... kernel=<id> model=<model> prediction=... truth=...`, with
    /// `truth` the simulator's label of `kernel` (catalog index) on
    /// `spec`.
    Kernel {
        /// Catalog index of the kernel.
        kernel: usize,
        /// Preset slug.
        spec: String,
        /// Model name.
        model: String,
        /// Few-shot rather than zero-shot.
        few_shot: bool,
    },
    /// `ok ... model=static prediction=...` for a clean source.
    Static,
    /// `err ... kind=lint` for a source seeded with a hazard.
    Lint,
}

/// One generated job: its protocol line and the answer it must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamJob {
    /// The `predict` line, without newline.
    pub line: String,
    /// The expected answer.
    pub expect: Expect,
}

/// Share of `src=` jobs in a stream.
pub const SRC_SHARE: f64 = 0.25;

/// Every `HAZARD_EVERY`-th `src=` job carries a seeded hazard.
pub const HAZARD_EVERY: usize = 4;

/// Seed of the popularity ranking of kernels.
const RANKING_SEED: u64 = 0x5e7e_c0de;

/// Exponent of the Zipf law over kernel popularity. An assumption: the
/// repository has no request log to fit it to, so this is the textbook
/// value `s = 1`. It is the one skewed axis of the stream; with uniform
/// kernels almost no admission batch would hold two jobs of the same
/// (kernel, spec, style) group (see [`shared_group_share`]).
pub const KERNEL_ZIPF: f64 = 1.0;

/// Remove every line holding a `__syncthreads()` barrier; `None` when the
/// source has none. Every shared-memory kernel in the corpus then races,
/// which the lint engine rejects.
pub fn remove_barriers(src: &str) -> Option<String> {
    src.contains("__syncthreads()").then(|| {
        src.lines()
            .filter(|l| !l.contains("__syncthreads()"))
            .collect::<Vec<_>>()
            .join("\n")
    })
}

/// The seeded `serve-mixed` job stream of `jobs` predictions.
///
/// About three quarters are `kernel=` jobs with Zipf([`KERNEL_ZIPF`])
/// kernel popularity under a fixed ranking; preset (within the kernel's
/// machine class), model and shot style are uniform, as in the
/// repository's `loadgen` mix. The rest are `src=` jobs over uniformly
/// drawn corpus sources; every [`HAZARD_EVERY`]-th of them is a
/// barrier-free copy of a kernel that needs its barriers.
pub fn serve_stream(cat: &ServeCatalog, seed: u64, jobs: usize) -> Vec<StreamJob> {
    // The popularity ranking is the same for every seed, so seeds vary
    // which jobs are drawn but not which kernels are hot: the work per
    // stream, and so the measured time, does not depend on the seed.
    let kernel_rank = Rng::new(RANKING_SEED).permutation(cat.kernels.len());
    let kernel_zipf = Zipf::new(cat.kernels.len(), KERNEL_ZIPF);
    let mut rng = Rng::new(seed);
    let hazardous: Vec<usize> = (0..cat.kernels.len())
        .filter(|&k| cat.kernels[k].hazard_src.is_some())
        .collect();
    let mut src_jobs = 0;
    let spec_for = |rng: &mut Rng, gpu: bool| -> String {
        let specs = if gpu { &cat.gpu_specs } else { &cat.cpu_specs };
        specs[rng.below(specs.len())].clone()
    };
    (0..jobs)
        .map(|i| {
            if rng.next_f64() < SRC_SHARE {
                src_jobs += 1;
                let hazard = src_jobs % HAZARD_EVERY == 0 && !hazardous.is_empty();
                let k = if hazard {
                    &cat.kernels[hazardous[rng.below(hazardous.len())]]
                } else {
                    &cat.kernels[rng.below(cat.kernels.len())]
                };
                let (src, expect) = match (&k.hazard_src, hazard) {
                    (Some(h), true) => (h, Expect::Lint),
                    _ => (&k.src, Expect::Static),
                };
                let spec = spec_for(&mut rng, k.gpu);
                return StreamJob {
                    line: format!("predict id=j{i} src={src} spec={spec}"),
                    expect,
                };
            }
            let kernel = kernel_rank[kernel_zipf.sample(&mut rng)];
            let spec = spec_for(&mut rng, cat.kernels[kernel].gpu);
            let model = cat.models[rng.below(cat.models.len())].clone();
            let few_shot = rng.below(2) == 1;
            let shots = if few_shot { "few" } else { "zero" };
            StreamJob {
                line: format!(
                    "predict id=j{i} kernel={} spec={spec} model={model} shots={shots}",
                    cat.kernels[kernel].id
                ),
                expect: Expect::Kernel {
                    kernel,
                    spec,
                    model,
                    few_shot,
                },
            }
        })
        .collect()
}

/// Share of the stream's admission batches (consecutive runs of `batch`
/// jobs) in which at least two `kernel=` jobs share a (kernel, spec,
/// style) group, which the service profiles and renders once.
pub fn shared_group_share(stream: &[StreamJob], batch: usize) -> f64 {
    let chunks = stream.chunks(batch.max(1));
    let n = chunks.len();
    let shared = chunks
        .filter(|chunk| {
            let mut seen = std::collections::HashSet::new();
            chunk.iter().any(|j| match &j.expect {
                Expect::Kernel {
                    kernel,
                    spec,
                    few_shot,
                    ..
                } => !seen.insert((*kernel, spec.as_str(), *few_shot)),
                _ => false,
            })
        })
        .count();
    if n == 0 {
        0.0
    } else {
        shared as f64 / n as f64
    }
}
