//! End-to-end benchmark of the PATU simulator.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <table2_policies|temporal_sequences|serve_outage> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process runs one workload through the crates' public entry points,
//! generating its inputs from `--seed`. It sets up (median of nine
//! builds), runs the timed phase for `--seconds` (at least one full pass of
//! the workload's units), checks the outputs outside the timed phase and
//! prints context lines — both clocks, the paper's values, host cores,
//! build profile, resolutions — followed by one JSON result line. Host
//! times are scaled to a reference host speed by a probe timed after every
//! unit (see `common::Probe`); the unscaled figures are printed too. With
//! `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
//! the per-layer metrics, from an extra traced pass whose spans are written
//! to `e2ebench/out/`. A failed check exits non-zero.
//!
//! The benchmark refuses to run while any `PATU_*` environment variable is
//! set: each of them would silently change a workload.

#![forbid(unsafe_code)]

mod common;
mod metrics;
mod serve;
mod table2;
mod temporal;
mod trace;

use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["table2_policies", "temporal_sequences", "serve_outage"];

/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = "e2ebench/out";

fn main() -> ExitCode {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PATU_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("e2ebench: refusing to run with {} set", knobs.join(", "));
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match common::Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "table2_policies" => table2::run(&args),
        "temporal_sequences" => temporal::run(&args),
        _ => serve::run(&args),
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "e2ebench {} seed {} seconds {} trace {}: host cores {cores}, build profile {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    for line in &out.notes {
        println!("{line}");
    }
    if args.trace {
        for (layer, ms) in trace::layer_self_ms(&out.spans) {
            println!("trace: {layer} self {} ms", patu_obs::json::num(ms));
        }
        let path = format!("{SPAN_DIR}/spans_{}_{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&out.spans)));
        match written {
            Ok(()) => println!("trace: {} spans written to {path}", out.spans.len()),
            Err(e) => println!("trace: spans not written to {path}: {e}"),
        }
    }
    let kind = if args.trace {
        metrics::Kind::PerLayer
    } else {
        metrics::Kind::EndToEnd
    };
    let body = match out.metrics.finish(kind) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, unit, better) in kind.specs() {
        let value = out.metrics.get(name).unwrap_or(f64::NAN);
        let better = match better {
            metrics::Better::Higher => "higher",
            metrics::Better::Lower => "lower",
        };
        println!(
            "metric {name} = {} {unit} ({better} is better)",
            patu_obs::json::num(value)
        );
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, &body)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
