//! Fig. 8 — NX=2 (Nginx–XTomcat–MySQL), millibottlenecks in MySQL:
//! downstream CTQO at MySQL (228 = 100 threads + 128 backlog).

use criterion::{criterion_group, criterion_main, Criterion};
use ntier_bench::{print_comparison, print_timeline, save_bundle, Row};
use ntier_core::experiment as exp;

fn regenerate() {
    let report = exp::fig8(42).run();
    save_bundle(&report, "fig08");
    print_timeline(
        &report,
        "Fig. 8 — NX=2, millibottlenecks in MySQL (marks 6/21/39/57 s)",
    );
    print_comparison(
        "fig8",
        &[
            Row::new(
                "Nginx/XTomcat drops",
                "0 (no upstream CTQO)",
                format!(
                    "{} / {}",
                    report.tiers[0].drops_total, report.tiers[1].drops_total
                ),
            ),
            Row::new(
                "MySQL drops",
                "> 0 (downstream CTQO)",
                format!("{}", report.tiers[2].drops_total),
            ),
            Row::new(
                "MaxSysQDepth(MySQL)",
                "228 = 100 + 128",
                format!("peak queue {}", report.tiers[2].peak_queue),
            ),
            Row::new(
                "VLRT per burst window",
                "up to ~40 / 50 ms",
                format!(
                    "peak {} / 50 ms",
                    report.tiers[2].vlrt.counts().iter().max().unwrap_or(&0)
                ),
            ),
        ],
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let mut g = c.benchmark_group("fig08");
    g.sample_size(10);
    g.bench_function("run", |b| b.iter(|| exp::fig8(42).run()));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
