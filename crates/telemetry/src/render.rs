//! ASCII and CSV rendering for figures.
//!
//! The examples regenerate each figure as (a) an ASCII
//! chart printed to stdout and (b) a CSV with the underlying series, so
//! results can be compared against the paper or re-plotted externally.

use std::fmt::Write as _;

use crate::histogram::LatencyHistogram;
use ntier_des::time::SimDuration;

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

/// Renders a compact per-window sparkline for a series of values in `[0, 1]`
/// (e.g. utilization) or arbitrary non-negative values (auto-scaled).
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let hi = values.iter().cloned().fold(0.0_f64, f64::max);
    if hi <= 0.0 {
        return TICKS[0].to_string().repeat(values.len());
    }
    values
        .iter()
        .map(|v| {
            let idx = ((v / hi) * (TICKS.len() - 1) as f64).round() as usize;
            TICKS[idx.min(TICKS.len() - 1)]
        })
        .collect()
}

/// A labelled horizontal bar chart (used for throughput tables like Fig. 12).
pub fn bar_chart(rows: &[(String, f64)], width: usize) -> String {
    let width = width.max(10);
    let hi = rows
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let bar = "#".repeat(((value / hi) * width as f64).round() as usize);
        let _ = writeln!(out, "{label:>label_w$} {value:>10.1} {bar}");
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

/// Formats a duration as seconds with millisecond precision (chart axes).
pub fn secs_label(d: SimDuration) -> String {
    format!("{:.3}", d.as_secs_f64())
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

    #[test]
    fn semilog_histogram_includes_clusters_and_overflow() {
        let mut h = LatencyHistogram::new(SimDuration::from_millis(50), 100);
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
    fn sparkline_scales_to_max() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
    }

    #[test]
    fn bar_chart_lines_up_labels() {
        let rows = vec![("sync".to_string(), 374.0), ("async".to_string(), 1200.0)];
        let chart = bar_chart(&rows, 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("####################"));
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

    #[test]
    fn secs_label_formats_millis() {
        assert_eq!(secs_label(SimDuration::from_millis(1_500)), "1.500");
    }
}
