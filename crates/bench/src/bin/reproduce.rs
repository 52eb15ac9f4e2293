//! Regenerate every paper table and figure at Full scale and print the
//! combined report (tee it into EXPERIMENTS-style records). Each section is
//! followed by its wall time as `[<section>] <secs>s`:
//!
//! ```text
//! cargo run -p nv-bench --release --bin reproduce                  # everything
//! cargo run -p nv-bench --release --bin reproduce -- quick         # quick scale
//! cargo run -p nv-bench --release --bin reproduce -- data          # skip training
//! cargo run -p nv-bench --release --bin reproduce -- threads=4     # parallel synthesis
//! cargo run -p nv-bench --release --bin reproduce -- max_rows=1000000 fuel=10000000
//! cargo run -p nv-bench --release --bin reproduce -- quarantine=quarantine.json
//! cargo run -p nv-bench --release --bin reproduce -- trace=trace.json
//! ```
//!
//! `threads=N` runs corpus synthesis on N worker threads (default: all
//! available cores). The synthesized benchmark is bit-identical for any N.
//! It governs synthesis only: model training, validation loss and the
//! Table 5 / Figure 17–19 scoring always use every available core, and
//! their output does not depend on the core count either.
//!
//! `max_rows=N` / `fuel=N` tighten the executor's resource budget (rows a
//! single operator may materialize / total row-visits per query); pairs
//! that blow the budget are quarantined instead of stalling the run.
//! `quarantine=PATH` writes the quarantine ledger as a JSON array of
//! `{pair_id, db_name, stage, error_kind, error, elapsed_us}` objects
//! (default: `quarantine.json` next to the other outputs whenever any pair
//! was quarantined).
//!
//! `trace=PATH` arms the `nv-trace` observability layer for the whole run —
//! corpus synthesis, every paper section, training and scoring (`data`
//! stops after the data sections) — and writes the aggregated report
//! (executor counters, worker-pool gauges, per-stage span timings such as
//! `seq2vis.eval` and `nn.decode`) once, at the end, as `nv-trace/v1` JSON.
//!
//! Any other argument, or a value that does not parse, prints a one-line
//! usage to stderr and exits with status 2 before any work starts.

use nv_bench::experiments::*;
use nv_bench::{outln, Context, Scale};
use nvbench::core::SynthesizerConfig;
use nvbench::data::ExecBudget;
use std::time::Instant;

const USAGE: &str = "usage: reproduce [quick] [data] [threads=N] [max_rows=N] [fuel=N] \
                     [quarantine=PATH] [trace=PATH]";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    scale: Scale,
    data_only: bool,
    /// `None` = every available core.
    threads: Option<usize>,
    budget: ExecBudget,
    quarantine_path: String,
    trace_path: Option<String>,
}

/// Parse the command line; an unknown word or a malformed value is an
/// error naming that argument.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        scale: Scale::Full,
        data_only: false,
        threads: None,
        budget: ExecBudget::default(),
        quarantine_path: "quarantine.json".to_string(),
        trace_path: None,
    };
    for arg in args {
        let bad = || format!("invalid argument '{arg}'");
        let num = |v: &str| v.parse::<u64>().map_err(|_| bad());
        let path = |v: &str| if v.is_empty() { Err(bad()) } else { Ok(v.to_string()) };
        match arg.split_once('=') {
            None if arg == "quick" => out.scale = Scale::Quick,
            None if arg == "data" => out.data_only = true,
            Some(("threads", v)) => out.threads = Some(num(v)? as usize),
            Some(("max_rows", v)) => out.budget.max_rows = num(v)? as usize,
            Some(("fuel", v)) => out.budget.fuel = num(v)?,
            Some(("quarantine", v)) => out.quarantine_path = path(v)?,
            Some(("trace", v)) => out.trace_path = Some(path(v)?),
            _ => return Err(format!("unknown argument '{arg}'")),
        }
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { scale, data_only, threads, budget, quarantine_path, trace_path } =
        match parse_args(&args) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("reproduce: {e}; {USAGE}");
                std::process::exit(2);
            }
        };
    let threads = threads.unwrap_or_else(nvbench::core::par::available_threads);

    let t0 = Instant::now();
    outln!("=== nvBench reproduction — scale {scale:?}, {threads} synthesis thread(s) ===\n");
    if trace_path.is_some() {
        nvbench::trace::enable();
        nvbench::trace::reset();
    }
    let ctx = &Context::build_with(
        scale,
        SynthesizerConfig { threads, budget, ..Default::default() },
    );
    outln!(
        "[setup] corpus: {} databases, {} (nl,sql) pairs → benchmark: {} vis, {} (nl,vis) pairs ({:.1}s)\n",
        ctx.corpus.databases.len(),
        ctx.corpus.pairs.len(),
        ctx.bench.vis_objects.len(),
        ctx.bench.pairs.len(),
        t0.elapsed().as_secs_f64()
    );
    if !ctx.quarantine.is_empty() {
        outln!(
            "[quarantine] {} pair(s) failed synthesis and were isolated:",
            ctx.quarantine.len()
        );
        for q in ctx.quarantine.iter().take(10) {
            outln!("  pair {} (db {}) at {}: {}", q.pair_id, q.db_name, q.stage.label(), q.error);
        }
        if ctx.quarantine.len() > 10 {
            outln!("  … and {} more", ctx.quarantine.len() - 10);
        }
        match serde_json::to_string_pretty(&ctx.quarantine) {
            Ok(json) => match std::fs::write(&quarantine_path, json) {
                Ok(()) => outln!("[quarantine] ledger written to {quarantine_path}\n"),
                Err(e) => outln!("[quarantine] could not write {quarantine_path}: {e}\n"),
            },
            Err(e) => outln!("[quarantine] could not serialize ledger: {e}\n"),
        }
    }

    paper_sections(ctx, scale, data_only);
    if let Some(path) = &trace_path {
        nvbench::trace::disable();
        let report = nvbench::trace::report();
        match std::fs::write(path, report.to_json_string_pretty()) {
            Ok(()) => outln!("[trace] trace report written to {path}"),
            Err(e) => outln!("[trace] could not write {path}: {e}"),
        }
    }
    outln!("=== total {:.1}s ===", t0.elapsed().as_secs_f64());
}

/// Every paper section after setup: the data sections, then (unless
/// `data_only`) training and the model sections.
fn paper_sections(ctx: &Context, scale: Scale, data_only: bool) {
    section("table2", || exp_table2(ctx));
    section("table3", || exp_table3(ctx));
    section("fig7", exp_fig7);
    section("fig8", || exp_fig8(ctx));
    section("fig9", || exp_fig9(ctx));
    section("fig10", || exp_fig10(ctx));
    section("fig12", || exp_fig12(ctx));
    section("fig13", || exp_fig13(ctx));
    section("fig14", || exp_fig14(ctx));
    section("fig16", || exp_fig16(ctx));
    section("values", || exp_values(ctx));
    section("ablation", || exp_ablation(ctx));

    if data_only {
        outln!("(skipping model training: 'data' flag)");
        return;
    }

    let t1 = Instant::now();
    outln!("----------------------------------------------------------------");
    outln!("[training] three seq2vis variants…");
    let reports = train_and_evaluate(ctx, scale);
    outln!("[training] done in {:.1}s\n", t1.elapsed().as_secs_f64());

    section("fig17", || exp_fig17(&reports));
    section("table4", || exp_table4(&reports));
    section("table5", || exp_table5(ctx, scale, &reports[1]));
    section("fig19", || exp_fig19(&reports[1].0));
    section("fig18", || exp_fig18(ctx, scale));
}

/// Print one report section, then the wall time its body took as
/// `[<name>] <secs>s`.
fn section(name: &str, body: impl FnOnce() -> String) {
    let t = Instant::now();
    let text = body();
    outln!("----------------------------------------------------------------");
    outln!("{text}");
    outln!("[{name}] {:.3}s", t.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_arguments_is_the_full_run() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Full);
        assert!(!a.data_only);
        assert_eq!(a.threads, None);
        assert_eq!(a.budget, ExecBudget::default());
        assert_eq!(a.quarantine_path, "quarantine.json");
        assert_eq!(a.trace_path, None);
    }

    #[test]
    fn every_documented_argument_parses() {
        let a = parse(&[
            "quick",
            "data",
            "threads=4",
            "max_rows=1000",
            "fuel=77",
            "quarantine=q.json",
            "trace=t.json",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Quick);
        assert!(a.data_only);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.budget.max_rows, 1000);
        assert_eq!(a.budget.fuel, 77);
        assert_eq!(a.quarantine_path, "q.json");
        assert_eq!(a.trace_path.as_deref(), Some("t.json"));
    }

    #[test]
    fn unknown_words_and_bad_values_are_rejected() {
        for (words, msg) in [
            (&["quik"][..], "unknown argument 'quik'"),
            (&["quick", "--help"][..], "unknown argument '--help'"),
            (&["quick=1"][..], "unknown argument 'quick=1'"),
            (&["thread=2"][..], "unknown argument 'thread=2'"),
            (&["threads=abc"][..], "invalid argument 'threads=abc'"),
            (&["fuel=-1"][..], "invalid argument 'fuel=-1'"),
            (&["max_rows="][..], "invalid argument 'max_rows='"),
            (&["trace="][..], "invalid argument 'trace='"),
        ] {
            assert_eq!(parse(words), Err(msg.to_string()), "{words:?}");
        }
    }
}
