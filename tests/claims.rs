//! The paper's claims, checked. Every preset behind
//! `experiment::claims()` runs once on the parallel runner; each claim's
//! measured value must land in its band, every run must conserve requests,
//! and EXPERIMENTS.md must embed the rendered claims table byte for byte.

#![deny(deprecated)]

use std::sync::OnceLock;
use std::time::Instant;

use ntier_repro::core::experiment::Measured;
use ntier_repro::runner::{default_threads, run_all};

const BEGIN: &str = "<!-- claims:begin -->\n";
const END: &str = "<!-- claims:end -->";

fn measured() -> &'static Measured {
    static MEASURED: OnceLock<Measured> = OnceLock::new();
    MEASURED.get_or_init(|| {
        let start = Instant::now();
        let m = Measured::run(|specs| run_all(specs, default_threads()));
        eprintln!(
            "claims: {} runs, {} claims measured in {:.1} s",
            m.runs.len(),
            m.claims.len(),
            start.elapsed().as_secs_f64()
        );
        m
    })
}

#[test]
fn every_claim_lands_in_its_band() {
    let failures = measured().failures();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_claim_run_conserves_requests() {
    for (preset, report) in &measured().runs {
        assert!(report.is_conserved(), "{preset:?}\n{}", report.summary());
    }
}

#[test]
fn experiments_md_embeds_the_claims_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let begin = doc
        .find(BEGIN)
        .expect("EXPERIMENTS.md has a claims:begin marker")
        + BEGIN.len();
    let end = begin
        + doc[begin..]
            .find(END)
            .expect("EXPERIMENTS.md has a claims:end marker");
    let committed = &doc[begin..end];
    let rendered = measured().table();
    if committed != rendered {
        let stale = committed
            .lines()
            .zip(rendered.lines())
            .find(|(c, r)| c != r)
            .map_or_else(
                || "the tables differ in length".to_string(),
                |(c, r)| format!("committed: {c}\nrendered:  {r}"),
            );
        panic!(
            "EXPERIMENTS.md's claims table is stale; regenerate it with \
             `cargo run -q --release --example validate_figures` and paste the \
             output between the claims markers\n{stale}"
        );
    }
}
