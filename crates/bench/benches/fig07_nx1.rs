//! Fig. 7 — NX=1 (Nginx–Tomcat–MySQL), CPU millibottlenecks in Tomcat:
//! no upstream CTQO at Nginx, downstream CTQO at Tomcat itself.

use criterion::{criterion_group, criterion_main, Criterion};
use ntier_bench::{print_comparison, print_timeline, save_bundle, Row};
use ntier_core::experiment as exp;

fn regenerate() {
    let report = exp::fig7(42).run();
    save_bundle(&report, "fig07");
    print_timeline(
        &report,
        "Fig. 7 — NX=1, millibottlenecks in Tomcat (marks 7/26/42/57 s)",
    );
    print_comparison(
        "fig7",
        &[
            Row::new(
                "Nginx drops",
                "0",
                format!("{}", report.tiers[0].drops_total),
            ),
            Row::new(
                "Tomcat drops",
                "> 0 (downstream CTQO)",
                format!("{}", report.tiers[1].drops_total),
            ),
            Row::new(
                "MaxSysQDepth(Tomcat)",
                "293 = 165 + 128",
                format!("peak queue {}", report.tiers[1].peak_queue),
            ),
            Row::new(
                "VLRT observed in",
                "Tomcat",
                report
                    .tiers
                    .iter()
                    .filter(|t| t.vlrt.total() > 0)
                    .map(|t| t.name.clone())
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
        ],
    );
}

fn bench(c: &mut Criterion) {
    regenerate();
    let mut g = c.benchmark_group("fig07");
    g.sample_size(10);
    g.bench_function("run", |b| b.iter(|| exp::fig7(42).run()));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
