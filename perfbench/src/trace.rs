//! Spans recorded around the benchmark's calls into the program, and the
//! per-layer self time derived from them.
//!
//! A span has a name `<layer>.<what>` (the layer is the workspace crate
//! it times, e.g. `gpu-sim.resolve`), a parent span, and a start and end
//! on one clock. Spans stay in memory until the run ends. A span's self
//! time is its duration minus the part of that interval covered by its
//! child spans; children may run on other threads, so the covered part is
//! the union of their intervals. The root span (`run`) covers the whole
//! traced pass: its self time is the unattributed remainder.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Name of the root span of every traced pass.
pub const ROOT: &str = "run";

/// Handle of an open span, passed to the calls it causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One closed span, in milliseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`, or [`ROOT`].
    pub name: &'static str,
    /// Index of the causing span in the recorder's list.
    pub parent: Option<usize>,
    /// Start, ms.
    pub start: f64,
    /// End, ms.
    pub end: f64,
}

impl Span {
    /// The layer a span name belongs to: the part before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans and named counts from any thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Run `f` inside a span named `name` under `parent` (`None` for the
    /// root). `f` receives the new span's id for the spans it causes.
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name,
                parent: parent.map(|p| p.0),
                start: f64::NAN,
                end: f64::NAN,
            });
            spans.len() - 1
        };
        let start = self.now_ms();
        let out = f(SpanId(id));
        let end = self.now_ms();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans[id].start = start;
        spans[id].end = end;
        out
    }

    /// Add `n` to the count `name`.
    pub fn count(&self, name: &'static str, n: f64) {
        *self
            .counts
            .lock()
            .expect("count lock poisoned")
            .entry(name)
            .or_insert(0.0) += n;
    }

    /// The closed spans and the counts.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
        (
            self.spans.into_inner().expect("span list lock poisoned"),
            self.counts.into_inner().expect("count lock poisoned"),
        )
    }
}

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

/// Per-span self time, aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| (s.end - s.start) - union_len(c))
        .collect()
}

/// What one traced pass says about where its time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Duration of the root span, ms.
    pub wall_ms: f64,
    /// Self time per layer, ms summed over threads; the root's self time
    /// is listed under `unattributed`.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Summed duration per span name, ms (children included).
    pub total_ms: BTreeMap<&'static str, f64>,
    /// Number of spans per name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Every duration per span name, ms.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
}

impl TraceReport {
    /// Reduce the spans of one traced pass (one root span expected).
    pub fn from_spans(spans: &[Span]) -> TraceReport {
        let mut r = TraceReport::default();
        for (s, self_ms) in spans.iter().zip(self_times(spans)) {
            let dur = s.end - s.start;
            if s.name == ROOT {
                r.wall_ms += dur;
                *r.self_ms.entry("unattributed").or_insert(0.0) += self_ms;
                continue;
            }
            *r.self_ms.entry(s.layer()).or_insert(0.0) += self_ms;
            *r.total_ms.entry(s.name).or_insert(0.0) += dur;
            *r.calls.entry(s.name).or_insert(0) += 1;
            r.durations.entry(s.name).or_default().push(dur);
        }
        r
    }

    /// The unattributed remainder, ms.
    pub fn unattributed_ms(&self) -> f64 {
        self.self_ms.get("unattributed").copied().unwrap_or(0.0)
    }

    /// Share of the root's wall time during which some layer span was
    /// open.
    pub fn covered_share(&self) -> f64 {
        if self.wall_ms > 0.0 {
            1.0 - self.unattributed_ms() / self.wall_ms
        } else {
            0.0
        }
    }

    /// Summed duration of every span named `name`, ms.
    pub fn total(&self, name: &str) -> f64 {
        self.total_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.calls.get(name).copied().unwrap_or(0) as f64
    }

    /// Human-readable table: one row per layer with its self time and its
    /// share of all recorded thread time, then coverage and overhead.
    pub fn render(&self, workload: &str, untraced_wall_ms: f64) -> String {
        let thread_ms: f64 = self.self_ms.values().sum();
        let mut out = format!(
            "trace {workload}: traced wall {:.1} ms, untraced wall {:.1} ms, tracing overhead {:+.1} ms\n",
            self.wall_ms,
            untraced_wall_ms,
            self.wall_ms - untraced_wall_ms
        );
        out.push_str(&format!(
            "  layers cover {:.1}% of traced wall; unattributed remainder {:.1} ms\n",
            100.0 * self.covered_share(),
            self.unattributed_ms()
        ));
        out.push_str("  layer              self ms  share of thread time\n");
        let mut rows: Vec<_> = self.self_ms.iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(a.1));
        for (layer, ms) in rows {
            out.push_str(&format!(
                "  {layer:<16} {ms:>9.1}  {:>5.1}%\n",
                100.0 * ms / thread_ms.max(f64::MIN_POSITIVE)
            ));
        }
        out
    }
}
