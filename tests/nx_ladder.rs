//! The paper's §V evaluation arc, one test per rung and stall site: runs
//! the `experiment::nx_ladder` presets behind the `ladder.*` entries of
//! `experiment::claims()` and asserts each band and request conservation.

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
fn nx0_app_stall_drops_upstream_at_apache() {
    check(&["ladder.nx0-app."]);
}

#[test]
fn nx0_db_stall_cascades_all_the_way_to_apache() {
    check(&["ladder.nx0-db."]);
}

#[test]
fn nx1_app_stall_moves_drops_to_tomcat() {
    check(&["ladder.nx1-app."]);
}

#[test]
fn nx1_db_stall_pushes_back_to_tomcat_not_nginx() {
    check(&["ladder.nx1-db."]);
}

#[test]
fn nx2_app_stall_batch_floods_mysql() {
    check(&["ladder.nx2-app."]);
}

#[test]
fn nx2_db_stall_drops_at_mysql_downstream() {
    check(&["ladder.nx2-db."]);
}

#[test]
fn nx3_absorbs_app_stall_with_zero_drops() {
    check(&["ladder.nx3-app."]);
}

#[test]
fn nx3_absorbs_db_stall_with_zero_drops() {
    check(&["ladder.nx3-db."]);
}

#[test]
fn multimodality_appears_only_with_drops() {
    check(&["ladder.nx0-app.modes", "ladder.nx3-app.modes"]);
}

#[test]
fn throughput_is_comparable_across_the_ladder() {
    check(&["ladder.throughput"]);
}
