//! The benchmark's two timing adapters. They sit on boundaries the engine
//! already exposes — the `ArrivalSource` it pulls arrivals from and the
//! `Write` it streams metrics snapshots into — so per-layer cost is taken
//! from outside the crates and nothing inside the simulator is
//! instrumented.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use ntier_des::rng::SimRng;
use ntier_des::time::SimTime;
use ntier_workload::ArrivalSource;

/// What one adapter saw: calls forwarded, bytes forwarded (sinks only) and
/// host time spent inside the wrapped calls. Shared with the benchmark
/// through an `Arc`, because the engine owns the adapter while it runs.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

impl Probe {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }

    /// Calls forwarded to the wrapped source or sink.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Bytes the wrapped sink accepted.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Relaxed)
    }

    /// Host seconds spent inside the wrapped calls.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Relaxed) as f64 * 1e-9
    }
}

/// A forwarding [`ArrivalSource`] that times every pull of `inner`.
pub struct TimedSource<S> {
    inner: S,
    probe: Arc<Probe>,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: S, probe: Arc<Probe>) -> Self {
        TimedSource { inner, probe }
    }
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<S> {
    type Payload = S::Payload;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, S::Payload)> {
        let inner = &mut self.inner;
        self.probe.time(|| inner.next_arrival(rng))
    }

    fn fault(&self) -> Option<&str> {
        self.inner.fault()
    }
}

/// A forwarding metrics sink that counts and times the bytes written to
/// `inner`.
pub struct CountingSink<W> {
    inner: W,
    probe: Arc<Probe>,
}

impl<W> CountingSink<W> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: W, probe: Arc<Probe>) -> Self {
        CountingSink { inner, probe }
    }
}

impl<W: Write> Write for CountingSink<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let inner = &mut self.inner;
        let n = self.probe.time(|| inner.write(buf))?;
        self.probe.bytes.fetch_add(n as u64, Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.probe.time(|| inner.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{fingerprint, trace_replay_spec};
    use ntier_core::engine::Engine;
    use ntier_core::experiment::{self, TraceReplayArm, TRACE_REPLAY_FIXTURE};
    use ntier_des::time::SimDuration;
    use ntier_telemetry::MetricsConfig;

    /// The fixture's header plus its first `rows` task rows: a short but
    /// real trace, so a debug-build test replays it in about a second.
    fn fixture_prefix(rows: usize) -> &'static str {
        let end = TRACE_REPLAY_FIXTURE
            .match_indices('\n')
            .nth(rows)
            .map_or(TRACE_REPLAY_FIXTURE.len(), |(i, _)| i + 1);
        &TRACE_REPLAY_FIXTURE[..end]
    }

    #[test]
    fn timed_source_leaves_the_run_unchanged() {
        let csv = fixture_prefix(12);
        for arm in [TraceReplayArm::Baseline, TraceReplayArm::Hardened] {
            let plain = trace_replay_spec(csv, arm, 7, None).run();
            let probe = Arc::new(Probe::default());
            let timed = trace_replay_spec(csv, arm, 7, Some(&probe)).run();
            assert!(plain.injected > 0);
            assert_eq!(fingerprint(&timed), fingerprint(&plain), "{}", arm.label());
            // Every arrival is one pull, plus the pull that found the end.
            assert_eq!(probe.calls(), plain.injected + 1);
            assert!(probe.busy_s() > 0.0);
        }
    }

    #[test]
    fn counting_sink_leaves_the_run_unchanged() {
        let run = |sink: Box<dyn Write + Send>| {
            let spec = experiment::fig1(1_000, SimDuration::from_secs(20), 7);
            let system = spec.system.with_metrics(MetricsConfig::paper_default());
            Engine::new(system, spec.workload, spec.horizon, spec.seed)
                .with_metrics_sink(sink)
                .run()
        };
        let plain = run(Box::new(io::sink()));
        let probe = Arc::new(Probe::default());
        let counted = run(Box::new(CountingSink::new(io::sink(), probe.clone())));
        assert_eq!(fingerprint(&counted), fingerprint(&plain));
        let snapshots = plain
            .metrics
            .as_ref()
            .expect("metrics plane on")
            .snapshots();
        assert!(!snapshots.is_empty());
        let jsonl_bytes: usize = snapshots.iter().map(|s| s.jsonl().len() + 1).sum();
        assert_eq!(probe.bytes(), jsonl_bytes as u64);
    }
}
