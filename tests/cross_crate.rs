//! Cross-crate contract tests: the prompt renderer and the surrogate
//! engine's parser must agree (the engine sees only text, like a hosted
//! model); the corpus, analyzer, and simulator must tell consistent
//! stories about the same kernels.

use std::collections::BTreeMap;

use parallel_code_estimation::gpu_sim::Profiler;
use parallel_code_estimation::kernels::{build_corpus, CorpusConfig, Language};
use parallel_code_estimation::prompt::{
    generate_rq1_suite, render_classify_prompt, render_rq1_prompt, ClassifyRequest, ShotStyle,
};
use parallel_code_estimation::roofline::HardwareSpec;
use parallel_code_estimation::static_analysis::{analyze, AnalyzeOptions};

use pce_llm::parse::{bind_args_to_params, parse_classify, parse_rq1};

fn corpus() -> Vec<parallel_code_estimation::kernels::Program> {
    build_corpus(&CorpusConfig {
        seed: 77,
        cuda_programs: 40,
        omp_programs: 24,
    })
    .expect("corpus builds")
}

#[test]
fn classify_prompts_round_trip_for_every_corpus_program() {
    let hw = HardwareSpec::rtx_3080();
    for p in corpus() {
        let req = ClassifyRequest {
            language: p.language.label().to_string(),
            kernel_name: p.kernel_name.clone(),
            hardware: hw.clone(),
            geometry: p.launch.geometry_string(),
            args: p.args.clone(),
            source: p.source.clone(),
        };
        for style in [ShotStyle::ZeroShot, ShotStyle::FewShot] {
            let prompt = render_classify_prompt(&req, style);
            let parsed = parse_classify(&prompt)
                .unwrap_or_else(|e| panic!("{}: prompt failed to parse: {e}", p.id));
            assert_eq!(parsed.language, p.language.label(), "{}", p.id);
            assert_eq!(parsed.kernel_name, p.kernel_name, "{}", p.id);
            assert_eq!(parsed.bandwidth, hw.bandwidth_gbs, "{}", p.id);
            assert_eq!(parsed.args, p.args, "{}", p.id);
            assert!(parsed.source.contains(p.kernel_name.as_str()) || p.language == Language::Omp);
        }
    }
}

#[test]
fn rq1_prompts_round_trip_for_every_item() {
    let suite = generate_rq1_suite(30, 5);
    for (i, item) in suite.items.iter().enumerate() {
        let prompt = render_rq1_prompt(&suite, i, 4, i % 2 == 0);
        let parsed = parse_rq1(&prompt).expect("RQ1 prompt must parse");
        assert_eq!(parsed.ai, item.ai, "item {i}");
        assert_eq!(parsed.bandwidth_gbs, item.bandwidth_gbs, "item {i}");
        assert_eq!(parsed.peak_gflops, item.peak_gflops, "item {i}");
    }
}

#[test]
fn arg_binding_recovers_problem_sizes_from_generated_mains() {
    // CUDA programs parse their argv with the `(argc > K) ? ... : default`
    // idiom; the engine's reader must recover the actual launch sizes.
    let mut bound = 0;
    let mut total = 0;
    for p in corpus().iter().filter(|p| p.language == Language::Cuda) {
        total += 1;
        let params = bind_args_to_params(&p.source, &p.args);
        if params.is_empty() {
            continue;
        }
        bound += 1;
        // Whatever was bound must match the actual CLI args.
        for (name, value) in &params {
            if let Some(pos) = first_scalar_position(&p.source, name) {
                if let Some(arg) = p.args.get(pos) {
                    assert_eq!(
                        arg.parse::<u64>().ok(),
                        Some(*value),
                        "{}: param {name}",
                        p.id
                    );
                }
            }
        }
    }
    assert!(
        bound * 10 >= total * 9,
        "arg binding should succeed for most programs: {bound}/{total}"
    );
}

/// Find which positional argument a scalar is parsed from (testing aid).
fn first_scalar_position(source: &str, name: &str) -> Option<usize> {
    for line in source.lines() {
        let t = line.trim_start();
        if t.contains(&format!(" {name} = (argc > "))
            || t.starts_with(&format!("{name} = (argc > "))
        {
            let idx = t.find("argc > ")? + "argc > ".len();
            let n: String = t[idx..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            return n.parse::<usize>().ok().map(|k| k - 1);
        }
    }
    None
}

#[test]
fn static_analyzer_finds_the_profiled_kernel_in_every_cuda_program() {
    for p in corpus().iter().filter(|p| p.language == Language::Cuda) {
        let analysis = analyze(&p.source, &AnalyzeOptions::default());
        assert!(
            analysis.kernels.iter().any(|k| k.name == p.kernel_name),
            "{}: kernel {} not found (found: {:?})",
            p.id,
            p.kernel_name,
            analysis.kernels.iter().map(|k| &k.name).collect::<Vec<_>>()
        );
    }
}

#[test]
fn omp_programs_analyze_to_target_regions() {
    for p in corpus().iter().filter(|p| p.language == Language::Omp) {
        let analysis = analyze(&p.source, &AnalyzeOptions::default());
        assert!(
            !analysis.kernels.is_empty(),
            "{}: no target region recovered",
            p.id
        );
        assert!(analysis.kernels[0].is_omp, "{}", p.id);
    }
}

#[test]
fn simulator_and_analyzer_agree_on_flop_precision_class() {
    // For simple elementwise kernels, the op-class the profiler measures
    // as dominant should also carry nonzero statically-estimated ops.
    let hw = HardwareSpec::rtx_3080();
    let profiler = Profiler::new(hw);
    for p in corpus().iter().filter(|p| {
        p.language == Language::Cuda && matches!(p.family.as_str(), "saxpy" | "vecadd" | "triad")
    }) {
        let profile = profiler.profile(&p.ir, &p.launch);
        let mut params = BTreeMap::new();
        for (k, v) in &p.launch.params {
            params.insert(k.clone(), *v);
        }
        let analysis = analyze(
            &p.source,
            &AnalyzeOptions {
                params,
                ..Default::default()
            },
        );
        let kernel = analysis
            .kernels
            .iter()
            .find(|k| k.name == p.kernel_name)
            .expect("kernel present");
        if profile.counts.flops_dp > 0 {
            assert!(kernel.tally.flops_dp > 0.0, "{}: DP mismatch", p.id);
            assert_eq!(kernel.tally.flops_sp, 0.0, "{}: SP bleed", p.id);
        } else if profile.counts.flops_sp > 0 {
            assert!(kernel.tally.flops_sp > 0.0, "{}: SP mismatch", p.id);
        }
    }
}

#[test]
fn fast_bpe_matches_naive_reference_on_a_real_corpus_at_vocab_1200() {
    // The acceptance bar for the tokenizer fast path: at the pipeline's
    // default vocabulary (1200) over generated corpus source, the
    // incremental trainer must produce a bit-identical merge table to the
    // naive recount-per-merge reference, and the heap-merge encoder must
    // produce identical ids. The batch counter, whose chunk memo spans
    // programs, must match the naive ids' length for every program.
    use parallel_code_estimation::tokenizer::{reference, BpeTrainer, Tokenizer};
    let programs = corpus();
    let docs: Vec<&str> = programs.iter().map(|p| p.source.as_str()).collect();
    let fast = BpeTrainer::new(1200).train(docs.iter().copied());
    let naive = reference::naive_train(1200, 2, docs.iter().copied());
    assert_eq!(fast, naive, "merge tables diverged at vocab 1200");

    let tok = Tokenizer::new(fast);
    let counts = tok.count_batch(&docs);
    assert_eq!(counts.len(), docs.len());
    for ((p, doc), &count) in programs.iter().zip(&docs).zip(&counts) {
        let naive_ids = reference::naive_encode(&tok, doc);
        let heap_ids = tok.encode(doc);
        assert_eq!(heap_ids, naive_ids, "{}", p.id);
        assert_eq!(count, naive_ids.len(), "{}: batch count", p.id);
        assert_eq!(tok.decode(&heap_ids), **doc, "{}: lossless decode", p.id);
    }
}
