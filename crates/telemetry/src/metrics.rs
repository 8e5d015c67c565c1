//! The streaming metrics plane: periodic engine snapshots, rendered as
//! JSONL or CSV.
//!
//! The final run report tells you what happened after the run; the
//! paper's method needs to see queue depth, drops and latency
//! quantiles *while* the run executes — millibottlenecks are invisible at
//! end-of-run aggregation. A [`MetricsRegistry`] accumulates completion
//! latencies into a run-wide [`QuantileSketch`] and a per-interval recent
//! window sketch; on every `MetricsTick` engine event the engine hands it
//! a [`MetricsSample`] of raw gauges and the registry freezes a
//! [`MetricsSnapshot`]. The sketches are fixed-size, but the registry keeps
//! every snapshot, so its memory grows by one snapshot per tick (one per
//! second of simulated time at the paper's cadence).
//!
//! Everything in a snapshot is an integer (utilization in ppm), so the
//! JSONL/CSV bytes are identical across platforms and runner thread
//! counts — the same determinism contract the engine's goldens pin.

use ntier_des::time::{SimDuration, SimTime};

use crate::sketch::QuantileSketch;

/// Configuration for the streaming metrics plane. Disabled by default —
/// a `SystemConfig` without one takes exactly the pre-metrics code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Snapshot period (the `MetricsTick` cadence).
    pub interval: SimDuration,
}

impl MetricsConfig {
    /// Snapshots every `interval` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn every(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "metrics interval must be non-zero");
        MetricsConfig { interval }
    }

    /// The paper's monitoring cadence: one snapshot per second (20 of the
    /// 50 ms analysis windows).
    pub fn paper_default() -> Self {
        MetricsConfig::every(SimDuration::from_secs(1))
    }
}

/// Raw per-replica gauges the engine reads at tick time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaSample {
    /// Requests in service plus backlog (the paper's `SysQDepth`).
    pub depth: u64,
    /// Cumulative admission drops at this replica.
    pub drops: u64,
    /// Mean utilization from t=0 through now, in parts-per-million.
    pub util_ppm: u64,
}

/// Raw per-tier gauges the engine reads at tick time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierSample {
    /// Per-replica gauges, replica-id order.
    pub replicas: Vec<ReplicaSample>,
}

/// Everything the engine hands the registry on a `MetricsTick`: raw
/// counters and gauges only — quantiles and deltas are the registry's job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSample {
    /// Simulated time of the tick.
    pub now: SimTime,
    /// Events handled so far (engine self-metric).
    pub events_handled: u64,
    /// Events pending on the calendar queue (the tick itself already
    /// popped).
    pub calendar_occupancy: u64,
    /// Live entries in the request slab.
    pub slab_live: u64,
    /// Total slots the request slab has grown to.
    pub slab_slots: u64,
    /// Requests injected so far.
    pub injected: u64,
    /// Requests completed so far.
    pub completed: u64,
    /// Requests failed so far.
    pub failed: u64,
    /// Requests shed so far.
    pub shed: u64,
    /// Admission drops so far, all tiers.
    pub drops_total: u64,
    /// Retries launched so far, all tiers.
    pub retries: u64,
    /// Hedges launched so far.
    pub hedges: u64,
    /// Per-tier gauges, tier order.
    pub tiers: Vec<TierSample>,
}

/// One frozen snapshot: the sample's gauges plus sketch quantiles and
/// since-last-tick deltas. All integers — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Simulated time of the snapshot, microseconds.
    pub t_us: u64,
    /// Events handled so far.
    pub events_handled: u64,
    /// Events handled since the previous snapshot (divide by the interval
    /// for simulated events/s).
    pub events_delta: u64,
    /// Events pending on the calendar queue at the tick.
    pub calendar_occupancy: u64,
    /// Live request-slab entries.
    pub slab_live: u64,
    /// Request-slab capacity (slots ever allocated).
    pub slab_slots: u64,
    /// Cumulative injected / completed / failed / shed requests.
    pub injected: u64,
    /// See [`MetricsSnapshot::injected`].
    pub completed: u64,
    /// See [`MetricsSnapshot::injected`].
    pub failed: u64,
    /// See [`MetricsSnapshot::injected`].
    pub shed: u64,
    /// Completions since the previous snapshot.
    pub completed_delta: u64,
    /// Cumulative admission drops / retries / hedges.
    pub drops_total: u64,
    /// See [`MetricsSnapshot::drops_total`].
    pub retries: u64,
    /// See [`MetricsSnapshot::drops_total`].
    pub hedges: u64,
    /// Run-wide latency quantiles from the sketch, microseconds (0 while
    /// nothing has completed).
    pub p50_us: u64,
    /// See [`MetricsSnapshot::p50_us`].
    pub p99_us: u64,
    /// Quantiles over completions since the previous snapshot only.
    pub recent_p50_us: u64,
    /// See [`MetricsSnapshot::recent_p50_us`].
    pub recent_p99_us: u64,
    /// Number of completions the recent quantiles summarize.
    pub recent_samples: u64,
    /// Per-tier gauges, tier order.
    pub tiers: Vec<TierSample>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as one JSON line (stable field order, integers
    /// only — byte-identical across platforms and thread counts).
    pub fn jsonl(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"t_us\":{},\"events\":{},\"events_delta\":{},\"calendar_occupancy\":{},\
             \"slab_live\":{},\"slab_slots\":{},\"injected\":{},\"completed\":{},\
             \"failed\":{},\"shed\":{},\"completed_delta\":{},\"drops\":{},\
             \"retries\":{},\"hedges\":{},\"p50_us\":{},\"p99_us\":{},\
             \"recent_p50_us\":{},\"recent_p99_us\":{},\"recent_samples\":{},\"tiers\":[",
            self.t_us,
            self.events_handled,
            self.events_delta,
            self.calendar_occupancy,
            self.slab_live,
            self.slab_slots,
            self.injected,
            self.completed,
            self.failed,
            self.shed,
            self.completed_delta,
            self.drops_total,
            self.retries,
            self.hedges,
            self.p50_us,
            self.p99_us,
            self.recent_p50_us,
            self.recent_p99_us,
            self.recent_samples,
        );
        for (t, tier) in self.tiers.iter().enumerate() {
            if t > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"tier\":{t},\"replicas\":[");
            for (r, rep) in tier.replicas.iter().enumerate() {
                if r > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"depth\":{},\"drops\":{},\"util_ppm\":{}}}",
                    rep.depth, rep.drops, rep.util_ppm
                );
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// CSV header of [`MetricsRegistry::csv`] (tiers flattened
    /// out — per-replica detail lives in the JSONL stream).
    pub const CSV_HEADER: &'static str = "t_us,events,events_delta,calendar_occupancy,slab_live,\
         slab_slots,injected,completed,failed,shed,completed_delta,drops,retries,hedges,\
         p50_us,p99_us,recent_p50_us,recent_p99_us,recent_samples";

    /// Renders the scalar columns as one CSV row.
    fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.t_us,
            self.events_handled,
            self.events_delta,
            self.calendar_occupancy,
            self.slab_live,
            self.slab_slots,
            self.injected,
            self.completed,
            self.failed,
            self.shed,
            self.completed_delta,
            self.drops_total,
            self.retries,
            self.hedges,
            self.p50_us,
            self.p99_us,
            self.recent_p50_us,
            self.recent_p99_us,
            self.recent_samples
        )
    }
}

/// The streaming accumulator the engine feeds: completion latencies in,
/// periodic snapshots out. Its sketches are fixed-size; the snapshot list
/// grows by one per tick, so its memory is O(horizon / interval).
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    interval: SimDuration,
    /// Run-wide latency sketch.
    sketch: QuantileSketch,
    /// Latencies since the last snapshot; cleared per tick.
    window: QuantileSketch,
    snapshots: Vec<MetricsSnapshot>,
    prev_events: u64,
    prev_completed: u64,
}

impl MetricsRegistry {
    /// Creates a registry snapshotting at the config's interval.
    pub fn new(cfg: &MetricsConfig) -> Self {
        MetricsRegistry {
            interval: cfg.interval,
            sketch: QuantileSketch::new(),
            window: QuantileSketch::new(),
            snapshots: Vec::new(),
            prev_events: 0,
            prev_completed: 0,
        }
    }

    /// The snapshot cadence.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Records one completion latency.
    pub fn record_latency(&mut self, latency: SimDuration) {
        self.sketch.record(latency);
        self.window.record(latency);
    }

    /// Freezes one snapshot from the engine's raw `sample`, returning a
    /// reference to it (the engine streams it to a sink if one is
    /// attached). Clears the recent-window sketch.
    pub fn tick(&mut self, sample: MetricsSample) -> &MetricsSnapshot {
        let q = |s: &QuantileSketch, q: f64| s.quantile(q).map_or(0, |d| d.as_micros());
        let snap = MetricsSnapshot {
            t_us: sample.now.as_micros(),
            events_handled: sample.events_handled,
            events_delta: sample.events_handled - self.prev_events,
            calendar_occupancy: sample.calendar_occupancy,
            slab_live: sample.slab_live,
            slab_slots: sample.slab_slots,
            injected: sample.injected,
            completed: sample.completed,
            failed: sample.failed,
            shed: sample.shed,
            completed_delta: sample.completed - self.prev_completed,
            drops_total: sample.drops_total,
            retries: sample.retries,
            hedges: sample.hedges,
            p50_us: q(&self.sketch, 0.50),
            p99_us: q(&self.sketch, 0.99),
            recent_p50_us: q(&self.window, 0.50),
            recent_p99_us: q(&self.window, 0.99),
            recent_samples: self.window.total(),
            tiers: sample.tiers,
        };
        self.prev_events = sample.events_handled;
        self.prev_completed = sample.completed;
        self.window.clear();
        self.snapshots.push(snap);
        self.snapshots.last().expect("just pushed")
    }

    /// All snapshots frozen so far, tick order.
    pub fn snapshots(&self) -> &[MetricsSnapshot] {
        &self.snapshots
    }

    /// The run-wide latency sketch.
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// The whole snapshot stream as JSONL (one line per snapshot).
    pub fn jsonl(&self) -> String {
        let mut s = String::new();
        for snap in &self.snapshots {
            s.push_str(&snap.jsonl());
            s.push('\n');
        }
        s
    }

    /// The whole snapshot stream as CSV (header plus one row per snapshot).
    pub fn csv(&self) -> String {
        let mut s = String::from(MetricsSnapshot::CSV_HEADER);
        s.push('\n');
        for snap in &self.snapshots {
            s.push_str(&snap.csv_row());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_at(secs: u64, events: u64, completed: u64) -> MetricsSample {
        MetricsSample {
            now: SimTime::from_secs(secs),
            events_handled: events,
            calendar_occupancy: 5,
            slab_live: 3,
            slab_slots: 16,
            injected: completed + 3,
            completed,
            drops_total: 1,
            tiers: vec![TierSample {
                replicas: vec![ReplicaSample {
                    depth: 2,
                    drops: 1,
                    util_ppm: 433_000,
                }],
            }],
            ..MetricsSample::default()
        }
    }

    #[test]
    fn tick_computes_deltas_and_quantiles() {
        let mut reg = MetricsRegistry::new(&MetricsConfig::paper_default());
        reg.record_latency(SimDuration::from_millis(2));
        reg.record_latency(SimDuration::from_millis(2));
        let s1 = reg.tick(sample_at(1, 100, 2)).clone();
        assert_eq!(s1.events_delta, 100);
        assert_eq!(s1.completed_delta, 2);
        assert_eq!(s1.calendar_occupancy, 5);
        assert_eq!(s1.recent_samples, 2);
        assert!(s1.recent_p50_us > 0);
        // second tick with no completions: recent window is empty
        let s2 = reg.tick(sample_at(2, 150, 2)).clone();
        assert_eq!(s2.events_delta, 50);
        assert_eq!(s2.completed_delta, 0);
        assert_eq!(s2.recent_samples, 0);
        assert_eq!(s2.recent_p50_us, 0);
        assert!(s2.p50_us > 0, "run-wide sketch persists");
        assert_eq!(reg.snapshots().len(), 2);
    }

    #[test]
    fn jsonl_is_stable_and_greppable() {
        let mut reg = MetricsRegistry::new(&MetricsConfig::paper_default());
        reg.record_latency(SimDuration::from_millis(3));
        reg.tick(sample_at(1, 10, 1));
        let line = reg.jsonl();
        assert!(line.starts_with("{\"t_us\":1000000,"), "line: {line}");
        assert!(line.contains("\"completed\":1"));
        assert!(line.contains("\"tiers\":[{\"tier\":0,\"replicas\":[{\"depth\":2,"));
        assert!(line.ends_with("}\n"));
        // identical inputs render identical bytes
        let mut reg2 = MetricsRegistry::new(&MetricsConfig::paper_default());
        reg2.record_latency(SimDuration::from_millis(3));
        reg2.tick(sample_at(1, 10, 1));
        assert_eq!(line, reg2.jsonl());
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let mut reg = MetricsRegistry::new(&MetricsConfig::paper_default());
        reg.tick(sample_at(1, 10, 0));
        let header_cols = MetricsSnapshot::CSV_HEADER.split(',').count();
        let row_cols = reg.snapshots()[0].csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_rejected() {
        let _ = MetricsConfig::every(SimDuration::ZERO);
    }
}
