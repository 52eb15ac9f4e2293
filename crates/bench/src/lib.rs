//! # nv-bench — the experiment harness
//!
//! One experiment per paper table/figure (see DESIGN.md's per-experiment
//! index). The `reproduce` binary runs every experiment as one timed
//! section of an EXPERIMENTS-style report, at Full scale by default or
//! Quick scale with `quick`. Throughput is measured separately by the
//! `nvperf` benchmark.

pub mod context;
pub mod experiments;

pub use context::{context, train_variant, Context, Scale};

use std::io::{ErrorKind, Write};

/// `println!` for the harness binaries: when stdout has closed (say, the
/// output is piped into `head`), the process exits quietly with status 0
/// instead of panicking. Any other write error panics, as with `println!`.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The write behind [`outln!`].
pub fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}
