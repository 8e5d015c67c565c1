//! Fig. 3 — upstream CTQO from VM-consolidation CPU millibottlenecks in
//! Tomcat (burst marks at figure time 2/5/9/15 s).

use criterion::{criterion_group, criterion_main, Criterion};
use ntier_bench::{print_comparison, print_timeline, save_bundle, Row};
use ntier_core::experiment as exp;

fn regenerate() {
    let report = exp::fig3(42).run();
    save_bundle(&report, "fig03");
    print_timeline(
        &report,
        "Fig. 3 — upstream CTQO, CPU millibottlenecks in Tomcat (marks 2/5/9/15 s)",
    );
    print_comparison(
        "fig3",
        &[
            Row::new("drop site", "Apache (upstream)", {
                let mut sites: Vec<&str> = report
                    .tiers
                    .iter()
                    .filter(|t| t.drops_total > 0)
                    .map(|t| t.name.as_str())
                    .collect();
                if sites.is_empty() {
                    sites.push("none");
                }
                sites.join(", ")
            }),
            Row::new(
                "MaxSysQDepth(Apache) step",
                "278 -> 428",
                format!("peak queue {}", report.tiers[0].peak_queue),
            ),
            Row::new(
                "httpd processes spawned",
                "1",
                format!("{}", report.tiers[0].spawns),
            ),
            Row::new(
                "VLRT per burst window",
                "up to ~80 / 50 ms",
                format!(
                    "peak {} / 50 ms",
                    report.tiers[0].vlrt.counts().iter().max().unwrap_or(&0)
                ),
            ),
        ],
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let mut g = c.benchmark_group("fig03");
    g.sample_size(10);
    g.bench_function("run", |b| b.iter(|| exp::fig3(42).run()));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
