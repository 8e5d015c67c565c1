//! Fine-grained measurement substrate.
//!
//! The paper's experimental method rests on *micro-level event analysis*:
//! every inter-server message is timestamped at millisecond resolution and
//! resource use is aggregated in 50 ms windows. This crate provides those
//! instruments for the reproduction:
//!
//! * [`series::CounterSeries`] / [`series::PeakSeries`] — one integer per
//!   50 ms window: drops and VLRT counts, queue-depth peaks;
//! * [`series::UtilizationSeries`] — busy-time accounting per window
//!   (the CPU-utilization timelines in Figs. 3, 5, 7–11);
//! * [`histogram::LatencyHistogram`] — response-time histograms with
//!   multi-modal cluster detection (Fig. 1's 0/3/6/9 s peaks);
//! * [`sketch::QuantileSketch`] — a deterministic, mergeable log-linear
//!   quantile sketch: the streaming/hot-path alternative to full
//!   histograms, with a documented relative-error bound;
//! * [`ring::RingSeries`] — bounded-memory windowed series via tiered
//!   downsampling (recent 50 ms windows, older collapsed 10:1);
//! * [`metrics`] — the streaming metrics plane: periodic
//!   [`metrics::MetricsSnapshot`]s rendered as JSONL/CSV;
//! * [`stats`] — summary statistics (means, percentiles);
//! * [`render`] — ASCII/CSV output used by the examples and CSV export.
//!
//! Everything here is plain data: no clocks, no threads, no I/O besides the
//! explicit CSV writers.

pub mod histogram;
pub mod metrics;
pub mod render;
pub mod ring;
pub mod series;
pub mod sketch;
pub mod stats;

pub use histogram::LatencyHistogram;
pub use metrics::{MetricsConfig, MetricsRegistry, MetricsSample, MetricsSnapshot};
pub use ring::RingSeries;
pub use series::{CounterSeries, PeakSeries, UtilizationSeries};
pub use sketch::QuantileSketch;

/// The paper's monitoring window: 50 ms.
pub const MONITOR_WINDOW_MS: u64 = 50;

/// The paper's VLRT threshold: requests slower than 3 s are "very long
/// response time" requests.
pub const VLRT_THRESHOLD_MS: u64 = 3_000;
