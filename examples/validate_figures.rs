//! Runs every preset behind `ntier_core::experiment::claims()` once on the
//! deterministic parallel runner and prints the claims table — the block
//! EXPERIMENTS.md embeds between its `claims:begin` and `claims:end`
//! markers. Exits non-zero if a measured value leaves its band.
//!
//! ```text
//! cargo run -q --release --example validate_figures
//! ```

#![deny(deprecated)]

use ntier_core::experiment::Measured;
use ntier_runner::{default_threads, run_all};

fn main() {
    let measured = Measured::run(|specs| run_all(specs, default_threads()));
    print!("{}", measured.table());
    let failures = measured.failures();
    for f in &failures {
        eprintln!("claim out of band: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
