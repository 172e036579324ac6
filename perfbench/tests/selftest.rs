//! The benchmark's own tests: seeded generation, the percentile rule,
//! latency attribution by the instrumented reader and writer, span
//! self time, and the adapter's re-compositions against the program.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::io::{BufRead, Write};

use pce_core::suite::Suite;
use pce_roofline::HardwareSpec;
use perfbench::adapter;
use perfbench::gen::{serve_stream, Expect, ServeCatalog, ServeKernel, HAZARD_EVERY};
use perfbench::trace::{Recorder, TraceReport};
use perfbench::wire::{answer_index, job_latencies_ms, session_input, LineReader, LineWriter};
use perfbench::{percentile, tail_percentile};

fn catalog() -> ServeCatalog {
    let kernels = (0..40)
        .map(|k| ServeKernel {
            id: format!("k{k}"),
            gpu: k % 2 == 0,
            src: format!("src{k}"),
            hazard_src: (k % 5 == 0).then(|| format!("hazard{k}")),
        })
        .collect();
    ServeCatalog {
        kernels,
        gpu_specs: vec!["g0".into(), "g1".into(), "g2".into()],
        cpu_specs: vec!["c0".into(), "c1".into()],
        models: vec!["m0".into(), "m1".into(), "m2".into(), "m3".into()],
    }
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let cat = catalog();
    let a = serve_stream(&cat, 7, 2000);
    assert_eq!(a, serve_stream(&cat, 7, 2000));
    assert_ne!(a, serve_stream(&cat, 8, 2000));

    let src = a.iter().filter(|j| j.line.contains(" src=")).count();
    let lint = a.iter().filter(|j| j.expect == Expect::Lint).count();
    assert!((400..600).contains(&src), "src= share: {src} of 2000");
    assert_eq!(
        lint,
        src / HAZARD_EVERY,
        "every {HAZARD_EVERY}th src= job is a hazard"
    );
    assert!(a
        .iter()
        .filter(|j| j.expect == Expect::Lint)
        .all(|j| j.line.contains(" src=hazard")));
    // Kernel jobs stay on their machine class's presets.
    for j in &a {
        if let Expect::Kernel { kernel, spec, .. } = &j.expect {
            assert_eq!(
                cat.kernels[*kernel].gpu,
                spec.starts_with('g'),
                "{}",
                j.line
            );
        }
    }
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    for (n, p) in [
        (0, 50),
        (39, 50),
        (40, 75),
        (100, 90),
        (200, 95),
        (999, 95),
        (1000, 99),
        (8000, 99),
    ] {
        assert_eq!(tail_percentile(n), p, "n={n}");
    }
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 99), 990.0);
    assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), 10);
    assert_eq!(percentile(&v, 50), 500.0);
}

#[test]
fn reader_and_writer_attribute_latency_per_job() {
    let lines: Vec<Vec<u8>> = ["predict id=j0", "predict id=j1", "predict id=j2", "quit"]
        .iter()
        .map(|l| format!("{l}\n").into_bytes())
        .collect();
    let mut reader = LineReader::new(&lines);
    let mut writer = LineWriter::default();
    let mut line = String::new();

    // A scripted session: read j0 and j1, answer j1 before j0 (the answer
    // line split over two writes), then read and answer j2, then quit.
    reader.read_line(&mut line).expect("read j0");
    assert_eq!(
        reader.read_at.len(),
        1,
        "lines are stamped when taken, not ahead"
    );
    reader.read_line(&mut line).expect("read j1");
    write!(writer, "ok id=j1").expect("write");
    writeln!(writer, " prediction=Compute").expect("write");
    writeln!(writer, "err id=j0 kind=lint error=\"race\"").expect("write");
    reader.read_line(&mut line).expect("read j2");
    writeln!(writer, "ok id=j2 prediction=Bandwidth").expect("write");
    writeln!(writer, "stats jobs=3").expect("write");
    reader.read_line(&mut line).expect("read quit");
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0);

    assert_eq!(reader.read_at.len(), 4);
    let order: Vec<usize> = writer.written_at.iter().map(|(i, _)| *i).collect();
    assert_eq!(
        order,
        vec![1, 0, 2],
        "one stamp per answer line, none for stats"
    );
    let lat = job_latencies_ms(&reader, &writer);
    assert_eq!(lat.len(), 3);
    // j0 was read before j1 and answered after it, so it waited longer.
    assert!(lat[1] >= lat[0] && lat.iter().all(|&l| l >= 0.0), "{lat:?}");
    let text = String::from_utf8(writer.transcript).expect("utf-8");
    assert_eq!(text.lines().count(), 4);
    assert_eq!(answer_index("ok id=j12 kernel=x"), Some(12));
    assert_eq!(answer_index("err id=- kind=parse"), None);
    assert_eq!(answer_index("stats jobs=3"), None);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let rec = Recorder::new();
    rec.span(None, perfbench::trace::ROOT, |root| {
        rec.span(Some(root), "core.cell", |cell| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| rec.span(Some(cell), "llm.complete", |_| busy(2_000_000)));
                }
            });
        });
    });
    let (spans, _) = rec.finish();
    let r = TraceReport::from_spans(&spans);
    assert_eq!(r.calls("llm.complete"), 2.0);
    let core = r.self_ms["core"];
    let cell = r.total("core.cell");
    assert!(
        core >= 0.0 && core < cell,
        "core self {core} of cell {cell}"
    );
    // Both children overlap, so the thread time exceeds the cell's wall.
    assert!(r.self_ms["llm"] + core >= cell - 1e-9);
    assert!(r.covered_share() > 0.9, "{}", r.covered_share());
}

fn busy(n: u64) -> u64 {
    (0..n).fold(0u64, |a, x| std::hint::black_box(a.wrapping_add(x)))
}

fn tiny_suite() -> Suite {
    let mut suite = Suite::smoke_with_matrix(
        vec![HardwareSpec::rtx_3080(), HardwareSpec::mi250x()],
        vec![HardwareSpec::epyc_9654()],
    );
    suite.base.corpus.cuda_programs = 90;
    suite.base.corpus.omp_programs = 72;
    suite.base.rq1_rooflines = 16;
    suite.base.pipeline.per_combo_cap = 10;
    suite
}

#[test]
fn traced_study_recomposes_the_program_cells() {
    let suite = tiny_suite();
    let pass = adapter::study_pass(&suite).expect("study pass");
    assert!(adapter::study_failures(&suite, &pass).is_empty());
    let rec = Recorder::new();
    let cells = adapter::study_traced(&suite, &pass.rq1_models, &rec).expect("traced study");
    assert_eq!(cells, pass.outcome.cells);
    let (spans, counts) = rec.finish();
    let r = TraceReport::from_spans(&spans);
    for layer in [
        "kernels",
        "tokenizer",
        "gpu-sim",
        "dataset",
        "prompt",
        "llm",
        "core",
    ] {
        assert!(
            r.self_ms.contains_key(layer),
            "no {layer} time: {:?}",
            r.self_ms
        );
    }
    assert_eq!(
        counts["llm.completions"] as usize,
        2 * 9 * pass.outcome.cells.len() * 40
    );
}

#[test]
fn traced_serve_recomposes_the_program_transcript() {
    let study = adapter::serve_study();
    let cat = adapter::serve_catalog(&study).expect("catalog");
    let stream = serve_stream(&cat, 3, 300);
    let input = session_input(&stream);
    let pass = adapter::serve_pass(&study, &input).expect("serve pass");
    let failures = adapter::serve_failures(&study, &stream, &pass).expect("checks run");
    assert!(failures.is_empty(), "{failures:?}");
    let traced = adapter::serve_traced(&study, &input, &Recorder::new()).expect("traced");
    assert_eq!(
        String::from_utf8_lossy(&traced.transcript),
        String::from_utf8_lossy(&pass.transcript)
    );
    let lint = stream.iter().filter(|j| j.expect == Expect::Lint).count() as u64;
    assert_eq!(traced.lint_rejects, lint);
}

#[test]
fn corpus_replay_labels_every_variant_as_the_pipeline_does() {
    let (spec, mut cfg) = adapter::corpus_inputs(1);
    let spec = pce_kernels::CorpusSpec {
        base: pce_kernels::CorpusConfig {
            cuda_programs: 12,
            omp_programs: 10,
            ..spec.base
        },
        ..spec
    };
    cfg.per_combo_cap = 10;
    let caches = pce_gpu_sim::SimCaches::new();
    let (_, _, report) =
        pce_dataset::run_pipeline_streamed(&spec, &cfg, &caches, 64).expect("pipeline");
    let labels = adapter::corpus_replay(&spec, &cfg, &Recorder::new()).expect("replay");
    assert_eq!(labels, report.corpus_labels);
}

#[test]
fn steal_is_subtracted_per_vcpu_and_picks_passes() {
    use perfbench::host::Lap;
    use perfbench::workload::least_stolen;
    let lap = |wall_s, steal_s| Lap { wall_s, steal_s };
    // The adjustment is the stolen time per vCPU, whatever the code did.
    assert_eq!(lap(3.0, 0.5).seconds(), 2.5);
    assert_eq!(lap(2.0, 0.0).seconds(), 2.0);
    let runs = [lap(2.0, 0.0), lap(3.0, 0.9), lap(2.2, 0.1), lap(2.1, 0.0)];
    // Steal shares 0, 0.3, 0.045, 0: the median is 0.0227, so the two
    // passes with more steal than that are left out.
    let kept: Vec<f64> = least_stolen(&runs, |l| *l)
        .iter()
        .map(|l| l.wall_s)
        .collect();
    assert_eq!(kept, vec![2.0, 2.1]);
    // Without steal every pass is kept, as measured.
    let calm = [lap(2.0, 0.0), lap(2.5, 0.0)];
    assert_eq!(least_stolen(&calm, |l| *l).len(), 2);
}

#[test]
fn shared_group_share_counts_batches_with_a_repeated_group() {
    use perfbench::gen::{shared_group_share, StreamJob};
    let job = |kernel, spec: &str, few_shot, model: &str| StreamJob {
        line: String::new(),
        expect: Expect::Kernel {
            kernel,
            spec: spec.into(),
            model: model.into(),
            few_shot,
        },
    };
    let stream = [
        // Same group, different models: shared.
        job(0, "g0", false, "a"),
        job(0, "g0", false, "b"),
        // Different style, then different spec: not shared.
        job(1, "g0", false, "a"),
        job(1, "g0", true, "a"),
        job(2, "g0", false, "a"),
        job(2, "g1", false, "a"),
    ];
    assert_eq!(shared_group_share(&stream, 2), 1.0 / 3.0);
    assert_eq!(shared_group_share(&stream, 6), 1.0);
    assert_eq!(shared_group_share(&[], 2), 0.0);
}
