//! Byte-for-byte pins on the CSV bundle.
//!
//! `csv::csv_bundle` is what users re-plot the paper's figures from, so its
//! bytes are part of the output contract: a change to how the 50 ms windows
//! are stored or printed must not move a single character. Each file of three
//! small bundles is hashed (64-bit FNV-1a over its contents) and compared,
//! name by name, with constants captured from the engine before the window
//! storage moved to integers; the metered bundle's `metrics.csv` and its
//! snapshot JSONL were captured before the event loop dropped batched pops.

use ntier_core::csv::csv_bundle;
use ntier_core::experiment;
use ntier_core::Balancer;
use ntier_des::prelude::*;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hashes(report: &ntier_core::RunReport) -> Vec<(String, u64)> {
    csv_bundle(report)
        .into_iter()
        .map(|(name, content)| (name, fnv1a(content.as_bytes())))
        .collect()
}

fn assert_pinned(got: &[(String, u64)], want: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(got, want, "CSV bundle bytes moved");
}

/// Fig. 1 at WL 7000 for 20 s: one instance per tier, with the Tomcat
/// millibottleneck train producing drops and VLRT windows.
#[test]
fn single_replica_bundle_is_pinned() {
    let report = experiment::fig1(7_000, SimDuration::from_secs(20), 7).run();
    assert!(
        report.drops_total > 0,
        "the pin should cover non-zero drop windows"
    );
    assert_pinned(
        &hashes(&report),
        &[
            ("summary.csv", 0xf636_9b3a_d0fb_22f3),
            ("latency_histogram.csv", 0x26dc_0859_bdb0_b558),
            ("resilience.csv", 0xdf85_74cf_e752_1074),
            ("tier_0_apache.csv", 0xd160_9b13_fe45_239f),
            ("tier_1_tomcat.csv", 0x6a5e_f815_a60e_2a4b),
            ("tier_2_mysql.csv", 0xd585_32f0_045c_d52e),
        ],
    );
}

/// The two-replica Tomcat ladder for 20 s: tier-level files pool the two
/// replicas (counters add, queue peaks take the max) beside one file per
/// replica, plus the traced run's event and chain files.
#[test]
fn two_replica_bundle_is_pinned() {
    let mut spec = experiment::replication_ladder(2, Balancer::RoundRobin, 7);
    spec.horizon = SimDuration::from_secs(20);
    let report = spec.run();
    assert!(
        report.drops_total > 0,
        "the pin should cover non-zero drop windows"
    );
    assert_pinned(
        &hashes(&report),
        &[
            ("summary.csv", 0x2ff9_3300_4e9a_2092),
            ("latency_histogram.csv", 0xaed2_10b0_2c29_3864),
            ("resilience.csv", 0xdf85_74cf_e752_1074),
            ("tier_0_apache.csv", 0x9d50_4a25_6e03_5bff),
            ("tier_1_tomcat.csv", 0xa176_12db_a9cb_d904),
            ("tier_1_r0_tomcat.csv", 0x0d65_9f7d_754c_8461),
            ("tier_1_r1_tomcat.csv", 0xea8c_fca6_1ead_2967),
            ("tier_2_mysql.csv", 0x4572_2d29_e6c9_b428),
            ("trace_events.csv", 0x9a8d_80d8_12df_022d),
            ("trace_chains.csv", 0x6792_0204_25d2_a2fd),
        ],
    );
}

/// The single-replica run with the metrics plane on: its six files keep
/// `single_replica_bundle_is_pinned`'s bytes (the plane only observes), the
/// bundle gains `metrics.csv`, and the snapshot stream's JSONL is pinned
/// too.
#[test]
fn metered_bundle_is_pinned() {
    let mut spec = experiment::fig1(7_000, SimDuration::from_secs(20), 7);
    spec.system = spec
        .system
        .with_metrics(ntier_telemetry::MetricsConfig::paper_default());
    let report = spec.run();
    assert_pinned(
        &hashes(&report),
        &[
            ("summary.csv", 0xf636_9b3a_d0fb_22f3),
            ("latency_histogram.csv", 0x26dc_0859_bdb0_b558),
            ("resilience.csv", 0xdf85_74cf_e752_1074),
            ("tier_0_apache.csv", 0xd160_9b13_fe45_239f),
            ("tier_1_tomcat.csv", 0x6a5e_f815_a60e_2a4b),
            ("tier_2_mysql.csv", 0xd585_32f0_045c_d52e),
            ("metrics.csv", 0xd183_bd03_5c75_aeab),
        ],
    );
    let jsonl = report.metrics.as_ref().expect("metered").jsonl();
    assert_eq!(
        fnv1a(jsonl.as_bytes()),
        0x70a7_0c40_8b2a_9f2b,
        "metrics JSONL bytes moved"
    );
}
