//! Extension tests: the CTQO mechanism at chain depths beyond the paper's 3.

use ntier_repro::core::experiment;

#[test]
fn sync_chain_drops_always_surface_at_tier_zero() {
    for depth in [2usize, 4, 6] {
        let report = experiment::chain_depth(depth, false, 7).run();
        assert!(
            report.drops_total > 0,
            "depth {depth}: {}",
            report.summary()
        );
        assert_eq!(
            report.tiers[0].drops_total,
            report.drops_total,
            "depth {depth}: drops must all be at the front\n{}",
            report.summary()
        );
        assert!(report.is_conserved());
    }
}

#[test]
fn drop_count_is_depth_invariant() {
    // The overflow is set by arrival rate × stall vs the front's capacity;
    // adding intermediate hops must not change it materially.
    let d2 = experiment::chain_depth(2, false, 7).run().drops_total as f64;
    let d6 = experiment::chain_depth(6, false, 7).run().drops_total as f64;
    assert!((d2 - d6).abs() / d2.max(d6) < 0.15, "{d2} vs {d6}");
}

#[test]
fn async_front_relocates_drops_one_hop_down() {
    for depth in [2usize, 5] {
        let report = experiment::chain_depth(depth, true, 7).run();
        assert_eq!(report.tiers[0].drops_total, 0, "depth {depth}");
        assert!(
            report.tiers[1].drops_total > 0,
            "depth {depth}: {}",
            report.summary()
        );
        for t in 2..depth {
            assert_eq!(report.tiers[t].drops_total, 0, "depth {depth} tier {t}");
        }
    }
}

#[test]
fn intermediate_tier_queues_show_the_cascade() {
    // In a 5-tier chain with the stall at tier 4, every intermediate tier's
    // thread pool (24) must have filled during the episode — the cascade.
    // Intermediate backlogs stay empty because each upstream tier can push
    // at most its own thread count (24 < 32): only tier 0, which faces the
    // unthrottled clients, fills its backlog and drops.
    let report = experiment::chain_depth(5, false, 7).run();
    for t in 0..4 {
        assert!(
            report.tiers[t].peak_queue >= 24,
            "tier {t} peak {} too small\n{}",
            report.tiers[t].peak_queue,
            report.summary()
        );
    }
}
