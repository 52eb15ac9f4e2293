//! nvperf — one outside-in benchmark for nvbench.
//!
//! ```text
//! cargo run --release --manifest-path nvperf/Cargo.toml -- \
//!     --workload <synth|train|predict> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is one closed batch job in one process. It prints a host record
//! and, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `nvperf/README.md`.

mod common;
mod host;
mod predict;
mod report;
mod stats;
mod synth;
mod train;

use common::{Outcome, Run, Sizes};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["synth", "train", "predict"];

/// Run one workload and return its outcome.
pub fn run_workload(name: &str, run: &Run) -> Option<Outcome> {
    match name {
        "synth" => Some(synth::run(run)),
        "train" => Some(train::run(run)),
        "predict" => Some(predict::run(run)),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return Err(bad("expected a whole number of seconds ≥ 1")),
            },
            "--trace" => match value.as_str() {
                "0" => traced = Some(false),
                "1" => traced = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nvperf: {e}");
            eprintln!("usage: nvperf --workload <synth|train|predict> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.traced,
        sizes: Sizes::full(),
    };
    println!(
        "{}",
        host::host_line(&args.workload, args.seed, args.seconds, args.traced)
    );
    let outcome = run_workload(&args.workload, &run).expect("workload name was validated");
    let correct = outcome.correct();
    // A failed check voids the run: every operation counts as failed.
    let attempted = outcome.attempted.max(1);
    let failed = if correct { outcome.failed } else { attempted };
    let metrics = outcome.metrics.for_mode(args.traced);
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args("--workload train --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("train", 7, 12, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload synth",
            "--workload synth --seed x",
            "--workload synth --seed 1 --trace 2",
            "--workload synth --seed 1 --seconds 0",
            "--workload synth --seed 1 --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} accepted");
        }
    }

    /// Tiny-size runs of every workload, untraced and traced: all checks
    /// pass, nothing fails, and each mode reports its full catalog section.
    #[test]
    fn tiny_smoke_run_of_each_workload() {
        for workload in WORKLOADS {
            for traced in [false, true] {
                let run = Run {
                    seed: 3,
                    seconds: 0.0,
                    traced,
                    sizes: Sizes::tiny(),
                };
                let out = run_workload(workload, &run).unwrap();
                let failed_checks: Vec<_> = out
                    .checks
                    .iter()
                    .filter(|c| !c.1)
                    .map(|c| c.0.clone())
                    .collect();
                assert!(
                    failed_checks.is_empty(),
                    "{workload} traced={traced}: {failed_checks:?}"
                );
                assert!(out.attempted > 0, "{workload}");
                assert_eq!(out.failed, 0, "{workload}");
                let metrics = out.metrics.for_mode(traced);
                let line = report::result_line(out.correct(), out.attempted, out.failed, &metrics);
                assert!(line.starts_with("{\"correct\": true"), "{line}");
                if !traced {
                    assert!(
                        metrics.iter().all(|m| m.value > 0.0),
                        "{workload}: {metrics:?}"
                    );
                }
            }
        }
    }
}
