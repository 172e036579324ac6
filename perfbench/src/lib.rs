//! The repository benchmark: three workloads (`study`, `corpus-scale`,
//! `serve-mixed`) timed end to end, plus a traced run that attributes
//! each workload's time to the workspace crates.
//!
//! * [`gen`] builds every input from the `--seed` (job streams, corpus
//!   seeds); the program only ever sees the generated inputs.
//! * [`adapter`] is the only module that calls into the workspace
//!   crates: untimed set-up, the timed passes, the traced
//!   re-compositions, and the output checks that need the program.
//! * [`host`] reads the host stamp, peak memory and the stopwatch every
//!   timing goes through, which records stolen vCPU time beside the wall
//!   clock.
//! * [`trace`] records spans around those calls and turns them into
//!   per-layer self time.
//! * [`wire`] is the instrumented reader and writer a `serve-mixed`
//!   session runs over, which time each job from request to answer.
//! * [`workload`] runs passes for `--seconds` and reduces them to the
//!   metrics printed as the last line of standard output.

pub mod adapter;
pub mod gen;
pub mod host;
pub mod trace;
pub mod wire;
pub mod workload;

/// The seed whose outputs are pinned by byte digests.
pub const DEFAULT_SEED: u64 = 1;

/// Median of `values` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond its nearest rank, from the ladder 99, 95, 90, 75. With
/// fewer than 40 samples no rung qualifies and the median (50) is
/// reported instead.
pub fn tail_percentile(n: usize) -> usize {
    [99, 95, 90, 75]
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= 10)
        .unwrap_or(50)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0..=100) of `values`; `0.0` for an empty
/// slice.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[nearest_rank(v.len(), p) - 1]
}

/// 64-bit FNV-1a over `bytes`: the digest the output checks pin.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
