//! `kernel-baseline` — measures the hot tensor kernels (seed copies vs the
//! packed/fused implementations) and maintains `BENCH_kernels.json`.
//!
//! * `kernel-baseline` — full run: measures with a generous sample count,
//!   prints the table, and (re)writes `BENCH_kernels.json` in the working
//!   directory. Run from the repo root to refresh the committed baseline.
//! * `kernel-baseline --smoke` — CI mode: re-measures with the committed
//!   baseline's warm-up and sample count, validates its schema, and exits
//!   nonzero if any kernel's optimized time regressed more than 20 %
//!   against it. When no baseline file exists the gate is skipped (first
//!   run on a new checkout).

use lcasgd_bench::kernels::{
    baseline_samples, measure_all, parse_baseline, regression_gate, to_json, BASELINE_FILE,
    GATE_TOLERANCE,
};

/// Samples per kernel of a full run (after one warm-up call).
const SAMPLES: usize = 11;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke compares minima against the committed ones, so it takes as many
    // samples as they did: a minimum over fewer samples reads high.
    let committed = if smoke { std::fs::read_to_string(BASELINE_FILE).ok() } else { None };
    let samples = match committed.as_deref().map(baseline_samples) {
        None => SAMPLES,
        Some(Ok(n)) => n,
        Some(Err(e)) => {
            eprintln!("kernel-baseline: committed {BASELINE_FILE} is invalid: {e}");
            std::process::exit(1);
        }
    };

    eprintln!(
        "kernel-baseline: measuring {} mode ({} samples per kernel, min-of-samples)...",
        if smoke { "smoke" } else { "full" },
        samples
    );
    let reports = measure_all(samples);

    println!(
        "{:<18} {:<24} {:>10} {:>10} {:>9}",
        "kernel", "shape", "seed ms", "opt ms", "speedup"
    );
    for r in &reports {
        println!(
            "{:<18} {:<24} {:>10.4} {:>10.4} {:>8.2}x",
            r.name,
            r.shape,
            r.seed_ms,
            r.opt_ms,
            r.speedup()
        );
    }

    if smoke {
        match committed {
            Some(json) => {
                let baseline = match parse_baseline(&json) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("kernel-baseline: committed {BASELINE_FILE} is invalid: {e}");
                        std::process::exit(1);
                    }
                };
                if let Err(e) = regression_gate(&reports, &baseline, GATE_TOLERANCE) {
                    eprintln!("kernel-baseline: {e}");
                    std::process::exit(1);
                }
                println!(
                    "kernel-baseline --smoke: schema ok, {} kernels within {:.0}% of baseline",
                    baseline.len(),
                    GATE_TOLERANCE * 100.0
                );
            }
            None => {
                println!(
                    "kernel-baseline --smoke: no {BASELINE_FILE} found; regression gate skipped"
                );
            }
        }
    } else {
        let json = to_json(&reports, samples);
        // Validate what we are about to write with the same parser CI uses.
        if let Err(e) = parse_baseline(&json) {
            eprintln!("kernel-baseline: generated document failed self-validation: {e}");
            std::process::exit(1);
        }
        std::fs::write(BASELINE_FILE, &json).unwrap_or_else(|e| {
            eprintln!("kernel-baseline: cannot write {BASELINE_FILE}: {e}");
            std::process::exit(1);
        });
        println!("wrote {BASELINE_FILE}");
    }
}
