//! Integration tests for the hazard-diagnostics layer: per-rule golden
//! fixtures with pinned spans, corpus cleanliness, and the raw-source
//! `predict src=...` path through the prediction service (byte-identical
//! transcripts across batch sizes and thread counts, typed lint shedding
//! counted in the response ledger).

use std::io::Cursor;

use parallel_code_estimation::core::serve::{encode_src, PredictionService, ServeConfig};
use parallel_code_estimation::core::study::Study;
use parallel_code_estimation::kernels::build_corpus;
use parallel_code_estimation::static_analysis::{diagnose, Diagnostic, RuleId, Severity};

/// A clean kernel: guarded, thread-distinct saxpy store.
const CLEAN_SRC: &str = "__global__ void saxpy(int n, float a, const float* x, float* y) {\n    int i = blockIdx.x * blockDim.x + threadIdx.x;\n    if (i < n) { y[i] = a * x[i] + y[i]; }\n}\n";

/// A racy kernel: tree reduction with the loop barrier deleted.
const RACY_SRC: &str = "__global__ void reduce_sum(const float* x, float* out, int n) {\n    __shared__ float buf[256];\n    int i = blockIdx.x * blockDim.x + threadIdx.x;\n    buf[threadIdx.x] = (i < n) ? x[i] : 0.0f;\n    __syncthreads();\n    for (int s = 128; s > 0; s >>= 1) {\n        if (threadIdx.x < s) { buf[threadIdx.x] += buf[threadIdx.x + s]; }\n    }\n    if (threadIdx.x == 0) { out[blockIdx.x] = buf[0]; }\n}\n";

/// The full serve transcript for `CLEAN_SRC` on rtx-3080, `RACY_SRC`,
/// `CLEAN_SRC` on h100-sxm, then `stats`.
const PINNED_SRC_TRANSCRIPT: &str = concat!(
    "ok id=c1 kernel=saxpy model=static prediction=Bandwidth margin=-1.59 warnings=0\n",
    "err id=r1 kind=lint error=\"lint rejected: ",
    "shared-race at 7:32: write of buf[threadIdx.x] may race with the unsynchronized read of buf[threadIdx.x+s]; ",
    "shared-race at 7:52: read of buf[threadIdx.x+s] may race with the write of buf[threadIdx.x] pending since before the last __syncthreads(); ",
    "shared-race at 9:47: read of buf[0] may race with the write of buf[threadIdx.x] pending since before the last __syncthreads()\"\n",
    "ok id=c2 kernel=saxpy model=static prediction=Bandwidth margin=-1.30 warnings=0\n",
    "stats jobs=3 cache_hits=0 cache_misses=0 evictions=0 resident_bytes=0 completed=2 shed=0 expired=0 breaker_open=0 lint=1 ledger_balanced=true\n",
);

/// The first finding for `rule` in `src`, asserting there is one.
fn first_finding(src: &str, rule: RuleId) -> Diagnostic {
    let diags = diagnose(src);
    assert!(
        diags.iter().any(|d| d.rule == rule),
        "{rule} must fire on the fixture: {diags:?}"
    );
    diags
        .into_iter()
        .find(|d| d.rule == rule)
        .expect("just asserted present")
}

/// Assert a finding's span is pinned to exact coordinates and text, and
/// that re-diagnosing reproduces it byte-for-byte.
fn assert_span(src: &str, rule: RuleId, line: u32, col: u32, text: &str) {
    let d = first_finding(src, rule);
    assert_eq!(d.severity, rule.severity());
    assert_eq!((d.span.line, d.span.col), (line, col), "{rule}: {d:?}");
    assert_eq!(&src[d.span.start..d.span.end], text, "{rule}: {d:?}");
    // Span stability: the pass is deterministic, so a second run must
    // reproduce the identical finding.
    assert_eq!(first_finding(src, rule), d, "{rule} span must be stable");
}

#[test]
fn each_rule_fires_on_its_golden_fixture_with_a_stable_span() {
    // shared-race: the deleted loop barrier leaves buf written and read
    // across lanes inside the reduction loop.
    assert_span(RACY_SRC, RuleId::SharedRace, 7, 32, "buf");

    // global-race: histogram bins indexed by data, not by thread.
    let hist = "__global__ void hist(long n, const int* data, int* bins) {\n\
                \x20 long i = blockIdx.x * blockDim.x + threadIdx.x;\n\
                \x20 if (i < n) bins[data[i] & 255] += 1;\n}\n";
    assert_span(hist, RuleId::GlobalRace, 3, 14, "bins");

    // omp-reduction: accumulation across iterations without a
    // reduction(...) clause.
    let omp = "float sum = 0;\n\
               #pragma omp target teams distribute parallel for map(to: x[0:n])\n\
               for (long i = 0; i < n; i++) sum += x[i];\n";
    assert_span(omp, RuleId::OmpReduction, 3, 30, "sum");

    // barrier-divergence: __syncthreads() under a thread-dependent branch.
    let divergent = "__global__ void k(float* x) {\n\
                     \x20 __shared__ float c[32];\n\
                     \x20 int tid = threadIdx.x;\n\
                     \x20 if (tid < 16) {\n\
                     \x20   c[tid] = x[tid];\n\
                     \x20   __syncthreads();\n\
                     \x20 }\n\
                     \x20 x[tid] = c[tid];\n}\n";
    assert_span(divergent, RuleId::BarrierDivergence, 6, 5, "__syncthreads");

    // loop-carried-dep: serialized accumulator chain.
    let dot = "__global__ void dot(long n, const float* x, float* out) {\n\
               \x20 float acc = 0;\n\
               \x20 for (long j = 0; j < n; j++) acc += x[j];\n\
               \x20 out[0] = acc;\n}\n";
    assert_span(dot, RuleId::LoopCarriedDep, 3, 32, "acc");

    // strided-access: transposed store scales the lane index by dim.
    let transpose = "__global__ void transpose(int dim, const float* in, float* out) {\n\
                     \x20 int x = blockIdx.x * blockDim.x + threadIdx.x;\n\
                     \x20 int y = blockIdx.y * blockDim.y + threadIdx.y;\n\
                     \x20 out[x * dim + y] = in[y * dim + x];\n}\n";
    assert_span(transpose, RuleId::StridedAccess, 4, 3, "out");
}

#[test]
fn clean_fixture_carries_no_diagnostics_and_racy_fixture_errors() {
    assert!(diagnose(CLEAN_SRC).is_empty(), "{:?}", diagnose(CLEAN_SRC));
    let racy: Vec<_> = diagnose(RACY_SRC)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(!racy.is_empty());
    assert!(
        racy.iter().all(|d| d.rule == RuleId::SharedRace),
        "{racy:?}"
    );
}

#[test]
fn shipped_smoke_corpus_is_free_of_error_severity_diagnostics() {
    // The full-corpus audit lives in the dataset pipeline tests (the
    // streamed hazard audit); here the smoke corpus — the tier the serve
    // path actually loads — must be error-clean source by source.
    let corpus = build_corpus(&Study::smoke().corpus).expect("corpus builds");
    assert!(!corpus.is_empty());
    for p in &corpus {
        let errors: Vec<_> = diagnose(&p.source)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{}: {errors:?}", p.id);
    }
}

/// Run a protocol session and return the transcript.
fn session(service: &PredictionService, input: &str, batch: usize) -> String {
    let mut out = Vec::new();
    service
        .serve_session(
            Cursor::new(input.as_bytes()),
            &mut out,
            &ServeConfig::classic(batch),
        )
        .expect("session runs");
    String::from_utf8(out).expect("transcript is UTF-8")
}

#[test]
fn raw_source_predict_is_invariant_and_lint_sheds_into_the_ledger() {
    // Everything in one #[test] so the RAYON_NUM_THREADS flips cannot
    // race another test in this binary (same pattern as tests/serve.rs).
    let study = Study::smoke();
    let clean = encode_src(CLEAN_SRC);
    let racy = encode_src(RACY_SRC);
    let input = format!(
        "predict id=c1 src={clean} spec=rtx-3080\n\
         predict id=r1 src={racy} spec=rtx-3080\n\
         predict id=c2 src={clean} spec=h100-sxm\n\
         stats\nquit\n"
    );

    std::env::set_var("RAYON_NUM_THREADS", "4");
    let service = PredictionService::new(study.clone(), None).expect("service builds");
    let reference = session(&service, &input, 8);
    let rows: Vec<&str> = reference.lines().collect();
    assert_eq!(rows.len(), 4, "{reference}");
    // The whole transcript is pinned: the static label and margin, the
    // lint message, and the stats line.
    assert_eq!(reference, PINNED_SRC_TRANSCRIPT, "{reference}");

    // Clean source is admitted and answered with the static roofline
    // label — a pure function of (src, spec).
    assert!(
        rows[0].starts_with("ok id=c1 kernel=saxpy model=static prediction="),
        "{}",
        rows[0]
    );
    assert!(
        rows[0].contains("margin=") && rows[0].ends_with("warnings=0"),
        "{}",
        rows[0]
    );
    assert!(
        rows[2].starts_with("ok id=c2 kernel=saxpy model=static "),
        "{}",
        rows[2]
    );

    // Hazardous source is shed with the typed lint error.
    assert!(rows[1].starts_with("err id=r1 kind=lint "), "{}", rows[1]);
    assert!(rows[1].contains("shared-race at 7:"), "{}", rows[1]);

    // The shed job lands in the ledger's lint column and balances.
    let stats = rows[3];
    assert!(stats.contains(" lint=1 "), "{stats}");
    assert!(stats.contains("ledger_balanced=true"), "{stats}");
    assert!(service.ledger_balanced());

    // Batch-size invariance: byte-identical transcripts however the
    // admission loop chunks the stream.
    for batch in [1, 2, 100] {
        let got = session(
            &PredictionService::new(study.clone(), None).expect("service builds"),
            &input,
            batch,
        );
        assert_eq!(reference, got, "batch={batch} diverged");
    }

    // Thread-count invariance: the static path never touches the worker
    // pool, so RAYON_NUM_THREADS=1 reproduces the same bytes.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = PredictionService::new(study, None).expect("service builds");
    let got = session(&serial, &input, 8);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(reference, got, "serial transcript diverged");
}
