//! One test per paper figure: runs the presets behind that figure's
//! entries of `experiment::claims()` and asserts each band and request
//! conservation. `tests/claims.rs` checks the whole list at once and the
//! EXPERIMENTS.md table; these name the figure that regressed.

use ntier_repro::core::experiment::Measured;
use ntier_repro::runner::{default_threads, run_all};

fn check(selectors: &[&str]) {
    let m = Measured::only(selectors, |specs| run_all(specs, default_threads()));
    let failures = m.failures();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    for (preset, report) in &m.runs {
        assert!(report.is_conserved(), "{preset:?}\n{}", report.summary());
    }
}

#[test]
fn fig1a_operating_point_and_multimodality() {
    check(&["fig1a.", "fig1b.", "fig1c."]);
}

#[test]
fn fig3_upstream_ctqo_with_apache_process_spawn() {
    check(&["fig3."]);
}

#[test]
fn fig4_narrative_static_requests_also_become_vlrt() {
    check(&["fig4."]);
}

#[test]
fn fig5_io_millibottleneck_cascades_to_apache() {
    check(&["fig5."]);
}

#[test]
fn fig7_nx1_downstream_ctqo_at_tomcat() {
    check(&["fig7."]);
}

#[test]
fn nx1_mysql_stall_is_upstream_at_tomcat() {
    check(&["sec5b."]);
}

#[test]
fn fig8_nx2_downstream_ctqo_at_mysql() {
    check(&["fig8."]);
}

#[test]
fn fig9_nx2_batch_release_floods_mysql() {
    check(&["fig9."]);
}

#[test]
fn fig10_nx3_absorbs_cpu_millibottlenecks() {
    check(&["fig10."]);
}

#[test]
fn fig11_nx3_absorbs_io_millibottlenecks() {
    check(&["fig11."]);
}

#[test]
fn fig12_sync_collapses_async_stays_flat() {
    check(&["fig12."]);
}
