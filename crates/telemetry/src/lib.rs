//! Fine-grained measurement substrate.
//!
//! The paper's experimental method rests on *micro-level event analysis*:
//! every inter-server message is timestamped at millisecond resolution and
//! resource use is aggregated in 50 ms windows. This crate provides those
//! instruments for the reproduction:
//!
//! * [`series::CounterSeries`] — drops and VLRT counts per 50 ms window
//!   ([`MONITOR_WINDOW`](ntier_des::time::MONITOR_WINDOW)),
//!   stored sparsely (only the windows that counted);
//! * [`series::PeakSeries`] — queue-depth peaks, one integer per window;
//! * [`series::UtilizationSeries`] — busy-time accounting per window
//!   (the CPU-utilization timelines in Figs. 3, 5, 7–11);
//! * [`histogram::LatencyHistogram`] — response-time histograms with
//!   multi-modal cluster detection (Fig. 1's 0/3/6/9 s peaks);
//! * [`sketch::QuantileSketch`] — a deterministic, mergeable log-linear
//!   quantile sketch: the streaming/hot-path alternative to full
//!   histograms, with a documented relative-error bound;
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
pub mod series;
pub mod sketch;
pub mod stats;

pub use histogram::LatencyHistogram;
pub use metrics::{MetricsConfig, MetricsRegistry, MetricsSample, MetricsSnapshot};
pub use series::{CounterSeries, PeakSeries, UtilizationSeries};
pub use sketch::QuantileSketch;
