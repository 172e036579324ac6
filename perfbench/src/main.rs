//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload for the given time and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced). The
//! lines before it carry the host stamp and the run's report. Exits 1 when
//! an output check fails, 2 on a usage error.

use perfbench::host::{commit, cpu_model};
use perfbench::workload::{run, Args, END_TO_END, PER_LAYER};

/// Quote `s` as a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <study|corpus-scale|serve-mixed> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        // Set before any worker thread exists: the program's parallel
        // loops read it on every call.
        std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    }
    println!(
        "host {{\"nproc\": {nproc}, \"cpu_model\": {}, \"rayon_threads\": {}, \"commit\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}}}",
        json_str(&cpu_model()),
        json_str(&std::env::var("RAYON_NUM_THREADS").unwrap_or_default()),
        json_str(&commit()),
        json_str(args.workload.name()),
        args.seed,
        args.trace
    );
    let result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for line in &result.report {
        println!("{}", line.trim_end());
    }
    for f in &result.failures {
        println!("check failed: {f}");
    }
    let failed = (result.failures.len() as u64).min(result.attempted);
    let correct = result.failures.is_empty();
    let metrics: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = result.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
