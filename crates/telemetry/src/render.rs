//! ASCII and CSV rendering for figures.
//!
//! The examples regenerate each figure as (a) an ASCII
//! chart printed to stdout and (b) a CSV with the underlying series, so
//! results can be compared against the paper or re-plotted externally.

use std::fmt::Write as _;

use crate::histogram::LatencyHistogram;

/// Renders a semi-log frequency-by-latency chart like the paper's Fig. 1.
///
/// One row per non-empty bucket group (grouped by `group` buckets); bar
/// length is proportional to `log10(count + 1)`.
pub fn semilog_histogram(h: &LatencyHistogram, group: usize, width: usize) -> String {
    let group = group.max(1);
    let width = width.max(10);
    let mut rows: Vec<(u64, u64)> = Vec::new(); // (start_ms, count)
    let mut acc = 0u64;
    let mut start_ms = 0u64;
    for (i, (t, c)) in h.iter().enumerate() {
        if i % group == 0 {
            if acc > 0 {
                rows.push((start_ms, acc));
            }
            acc = 0;
            start_ms = t.as_millis();
        }
        acc += c;
    }
    if acc > 0 {
        rows.push((start_ms, acc));
    }
    if h.overflow() > 0 {
        rows.push((u64::MAX, h.overflow()));
    }
    let max_log = rows
        .iter()
        .map(|(_, c)| ((*c + 1) as f64).log10())
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>9}  frequency (log scale)",
        "latency", "count"
    );
    for (start, count) in rows {
        let bar_len = (((count + 1) as f64).log10() / max_log * width as f64).round() as usize;
        let label = if start == u64::MAX {
            ">range".to_string()
        } else {
            format!("{:.2}s", start as f64 / 1e3)
        };
        let _ = writeln!(
            out,
            "{label:>10} {count:>9}  {}",
            "#".repeat(bar_len.max(1))
        );
    }
    out
}

/// Serializes rows as CSV into a string (values are escaped minimally: any
/// field containing a comma or quote is quoted).
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        headers
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(",")
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{}",
            row.iter().map(|f| escape(f)).collect::<Vec<_>>().join(",")
        );
    }
    out
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntier_des::time::SimDuration;

    #[test]
    fn semilog_histogram_includes_clusters_and_overflow() {
        let mut h = LatencyHistogram::paper_default();
        for _ in 0..1000 {
            h.record(SimDuration::from_millis(5));
        }
        h.record(SimDuration::from_millis(3_001));
        h.record(SimDuration::from_secs(100)); // overflow
        let chart = semilog_histogram(&h, 10, 40);
        assert!(chart.contains("0.00s"), "{chart}");
        assert!(chart.contains("3.00s"), "{chart}");
        assert!(chart.contains(">range"), "{chart}");
    }

    #[test]
    fn csv_escapes_fields() {
        let csv = to_csv(
            &["a", "b"],
            &[vec!["1,5".to_string(), "say \"hi\"".to_string()]],
        );
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("\"1,5\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }
}
