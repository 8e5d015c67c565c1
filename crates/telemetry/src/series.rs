//! Fixed-window time series: the 50 ms aggregates the paper's figures plot.
//!
//! Every per-window quantity the engine records is an integer, and every
//! reader takes exactly one aggregate of it, so each series stores one
//! `u32` per window:
//!
//! * [`CounterSeries`] — events per window (drops, VLRT requests); replica
//!   sets pool by adding;
//! * [`PeakSeries`] — the highest gauge reading per window (queue depth);
//!   replica sets pool by taking the larger peak;
//! * [`UtilizationSeries`] — busy microseconds per window, read back as
//!   CPU utilization; replica sets pool busy time and cores.

use ntier_des::time::{SimDuration, SimTime};

/// Horizon past which the `paper_default_for` constructors stop
/// preallocating: 10 minutes of simulated time. Longer runs grow one
/// horizon-cap-sized chunk at a time (and long-horizon telemetry should
/// stream through [`crate::RingSeries`] instead) — O(horizon)
/// preallocation is exactly what capped runs at Fig.-1 scale.
pub const PREALLOC_HORIZON_CAP: SimDuration = SimDuration::from_secs(600);

/// One `u32` per window, from time zero through the last touched window:
/// the storage behind all three series. Untouched windows read as 0.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Windows {
    size: SimDuration,
    values: Vec<u32>,
}

impl Windows {
    fn new(size: SimDuration) -> Self {
        assert!(!size.is_zero(), "window must be non-zero");
        Windows {
            size,
            values: Vec::new(),
        }
    }

    /// Windows in [`PREALLOC_HORIZON_CAP`] plus a spill window for events
    /// landing exactly at the horizon: the most ever reserved up front, and
    /// the growth step past that.
    fn chunk(&self) -> usize {
        (PREALLOC_HORIZON_CAP.as_micros() / self.size.as_micros()) as usize + 2
    }

    /// Reserves capacity for every window up to `horizon` (plus the spill
    /// window), capped at one [`chunk`](Self::chunk). Only capacity is
    /// reserved: `len()` still reports the windows actually touched.
    fn reserve_through(&mut self, horizon: SimDuration) {
        let want = (horizon.as_micros() / self.size.as_micros()) as usize + 2;
        let n = want.min(self.chunk());
        self.values
            .reserve_exact(n.saturating_sub(self.values.len()));
    }

    #[inline]
    fn at(&mut self, idx: usize) -> &mut u32 {
        if idx >= self.values.len() {
            self.grow_to(idx);
        }
        &mut self.values[idx]
    }

    #[inline]
    fn index(&self, t: SimTime) -> usize {
        t.window_index(self.size) as usize
    }

    /// Extends the series through window `idx`. Past one chunk, capacity
    /// grows a whole chunk at a time: doubling would leave an hour-long
    /// run holding up to twice the windows it uses.
    #[cold]
    fn grow_to(&mut self, idx: usize) {
        let chunk = self.chunk();
        if idx >= self.values.capacity() && idx >= chunk {
            let target = (idx / chunk + 1) * chunk;
            self.values.reserve_exact(target - self.values.len());
        }
        self.values.resize(idx + 1, 0);
    }

    /// Adds `n` to window `idx`. The sum is the stored datum, so an
    /// overflow panics instead of wrapping.
    #[inline]
    fn add(&mut self, idx: usize, n: u32) {
        let v = self.at(idx);
        *v = checked_sum(*v, n);
    }

    fn get(&self, idx: usize) -> u32 {
        self.values.get(idx).copied().unwrap_or(0)
    }

    /// Drops the capacity past the last touched window: a finished series
    /// keeps exactly the windows it observed, and one never touched holds
    /// no buffer at all.
    fn shrink_to_fit(&mut self) {
        self.values.shrink_to_fit();
    }

    /// Folds `other` in window by window with `f`, extending `self` to
    /// cover every window either side touched.
    fn merge(&mut self, other: &Windows, f: impl Fn(u32, u32) -> u32) {
        assert_eq!(
            self.size, other.size,
            "cannot absorb series with a different window size"
        );
        if other.values.len() > self.values.len() {
            self.grow_to(other.values.len() - 1);
        }
        for (a, &b) in self.values.iter_mut().zip(&other.values) {
            *a = f(*a, b);
        }
    }

    fn to_f64(&self) -> Vec<f64> {
        self.values.iter().map(|&v| f64::from(v)).collect()
    }
}

fn checked_sum(a: u32, b: u32) -> u32 {
    a.checked_add(b).expect("per-window total overflows u32")
}

/// Events counted per window (default 50 ms): drops, VLRT requests.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
/// use ntier_telemetry::CounterSeries;
///
/// let mut vlrt = CounterSeries::with_window(SimDuration::from_millis(50));
/// vlrt.add(SimTime::from_millis(120), 1); // one VLRT request in window 2
/// vlrt.add(SimTime::from_millis(130), 1);
/// assert_eq!(vlrt.count(2), 2);
/// assert_eq!(vlrt.count(0), 0);
/// assert_eq!(vlrt.total(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSeries(Windows);

impl CounterSeries {
    /// Creates a series with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(window: SimDuration) -> Self {
        CounterSeries(Windows::new(window))
    }

    /// Creates a series with the paper's 50 ms monitoring window.
    pub fn paper_default() -> Self {
        Self::with_window(SimDuration::from_millis(crate::MONITOR_WINDOW_MS))
    }

    /// Like [`CounterSeries::paper_default`], with storage reserved for a
    /// run of length `horizon` (capped at [`PREALLOC_HORIZON_CAP`]) so the
    /// hot path does not reallocate. Observable state is unchanged.
    pub fn paper_default_for(horizon: SimDuration) -> Self {
        let mut s = Self::paper_default();
        s.0.reserve_through(horizon);
        s
    }

    /// Adds `n` events to the window containing `t`.
    #[inline]
    pub fn add(&mut self, t: SimTime, n: u32) {
        self.0.add(self.0.index(t), n);
    }

    /// Events in window `idx` (0 if never touched).
    pub fn count(&self, idx: usize) -> u32 {
        self.0.get(idx)
    }

    /// Events per window, from time zero through the last touched window.
    pub fn counts(&self) -> &[u32] {
        &self.0.values
    }

    /// The per-window counts as `f64`s, for readers that plot or compare
    /// floats.
    pub fn sums(&self) -> Vec<f64> {
        self.0.to_f64()
    }

    /// Total events across all windows.
    pub fn total(&self) -> u64 {
        self.0.values.iter().map(|&v| u64::from(v)).sum()
    }

    /// Iterates `(window_start_time, count)` over all windows.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        let w = self.0.size.as_micros();
        self.0
            .values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (SimTime::from_micros(i as u64 * w), v))
    }

    /// Number of windows from time zero through the last touched window.
    pub fn len(&self) -> usize {
        self.0.values.len()
    }

    /// `true` if no window was ever touched.
    pub fn is_empty(&self) -> bool {
        self.0.values.is_empty()
    }

    /// Releases the storage reserved past the last touched window. Every
    /// reading is unchanged.
    pub fn shrink_to_fit(&mut self) {
        self.0.shrink_to_fit();
    }

    /// Pools `other` into `self` (one replica into a tier-wide view):
    /// counts add window by window.
    ///
    /// # Panics
    ///
    /// Panics if the window sizes differ.
    pub fn absorb(&mut self, other: &CounterSeries) {
        self.0.merge(&other.0, checked_sum);
    }
}

/// The highest gauge reading per window (default 50 ms): queue depth.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
/// use ntier_telemetry::PeakSeries;
///
/// let mut depth = PeakSeries::paper_default();
/// depth.record(SimTime::from_millis(0), 100);
/// depth.record(SimTime::from_millis(10), 300);
/// depth.record(SimTime::from_millis(20), 200);
/// assert_eq!(depth.peak(0), 300);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeakSeries(Windows);

impl PeakSeries {
    /// Creates a series with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    fn with_window(window: SimDuration) -> Self {
        PeakSeries(Windows::new(window))
    }

    /// Creates a series with the paper's 50 ms monitoring window.
    pub fn paper_default() -> Self {
        Self::with_window(SimDuration::from_millis(crate::MONITOR_WINDOW_MS))
    }

    /// Like [`PeakSeries::paper_default`], with storage reserved for a run
    /// of length `horizon` (capped at [`PREALLOC_HORIZON_CAP`]).
    pub fn paper_default_for(horizon: SimDuration) -> Self {
        let mut s = Self::paper_default();
        s.0.reserve_through(horizon);
        s
    }

    /// Records a gauge reading at `t`; the window keeps its largest.
    #[inline]
    pub fn record(&mut self, t: SimTime, value: u32) {
        let w = self.0.at(self.0.index(t));
        *w = (*w).max(value);
    }

    /// The largest reading in window `idx` (0 if never touched).
    pub fn peak(&self, idx: usize) -> u32 {
        self.0.get(idx)
    }

    /// Per-window peaks, from time zero through the last touched window.
    pub fn peaks(&self) -> &[u32] {
        &self.0.values
    }

    /// The per-window peaks as `f64`s, for readers that plot or compare
    /// floats.
    pub fn maxima(&self) -> Vec<f64> {
        self.0.to_f64()
    }

    /// Number of windows from time zero through the last touched window.
    pub fn len(&self) -> usize {
        self.0.values.len()
    }

    /// `true` if no window was ever touched.
    pub fn is_empty(&self) -> bool {
        self.0.values.is_empty()
    }

    /// Releases the storage reserved past the last touched window. Every
    /// reading is unchanged.
    pub fn shrink_to_fit(&mut self) {
        self.0.shrink_to_fit();
    }

    /// Pools `other` into `self` (one replica into a tier-wide view): each
    /// window keeps the larger peak.
    ///
    /// # Panics
    ///
    /// Panics if the window sizes differ.
    pub fn absorb(&mut self, other: &PeakSeries) {
        self.0.merge(&other.0, u32::max);
    }
}

/// Busy-time accounting per window, yielding utilization timelines.
///
/// Busy intervals may span window boundaries; the busy time is split across
/// the overlapped windows, so utilization is exact rather than sampled.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
/// use ntier_telemetry::series::UtilizationSeries;
///
/// let mut cpu = UtilizationSeries::with_window(SimDuration::from_millis(50), 1);
/// // busy from 25 ms to 75 ms: half of window 0 and half of window 1
/// cpu.record_busy(SimTime::from_millis(25), SimTime::from_millis(75));
/// assert!((cpu.utilization(0) - 0.5).abs() < 1e-9);
/// assert!((cpu.utilization(1) - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationSeries {
    cores: u32,
    busy_micros: Windows,
}

/// Asserts that a fully busy window of `cores` cores fits the `u32`
/// per-window busy-time counter.
fn check_capacity(window: SimDuration, cores: u32) {
    assert!(
        window
            .as_micros()
            .checked_mul(u64::from(cores))
            .is_some_and(|c| c <= u64::from(u32::MAX)),
        "window x cores ({window} x {cores}) overflows the u32 busy-time counter"
    );
}

impl UtilizationSeries {
    /// Creates a utilization series for `cores` cores with the given window.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `cores` is zero, or if a fully busy window
    /// (`window` × `cores` microseconds) does not fit in a `u32`.
    pub fn with_window(window: SimDuration, cores: u32) -> Self {
        let busy_micros = Windows::new(window);
        assert!(cores > 0, "cores must be non-zero");
        check_capacity(window, cores);
        UtilizationSeries { cores, busy_micros }
    }

    /// Creates a series with the paper's 50 ms window.
    pub fn paper_default(cores: u32) -> Self {
        UtilizationSeries::with_window(SimDuration::from_millis(crate::MONITOR_WINDOW_MS), cores)
    }

    /// Like [`UtilizationSeries::paper_default`], but with busy-time storage
    /// reserved for a run of length `horizon` (capacity only — observable
    /// state is identical to the on-demand series), capped at
    /// [`PREALLOC_HORIZON_CAP`].
    pub fn paper_default_for(cores: u32, horizon: SimDuration) -> Self {
        let mut s = UtilizationSeries::paper_default(cores);
        s.busy_micros.reserve_through(horizon);
        s
    }

    /// Total busy time recorded across all windows, in microseconds — the
    /// integer numerator behind the metrics plane's `util_ppm` gauges.
    pub fn total_busy_micros(&self) -> u64 {
        self.busy_micros.values.iter().map(|&b| u64::from(b)).sum()
    }

    /// Accounts one core as busy over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn record_busy(&mut self, start: SimTime, end: SimTime) {
        assert!(end >= start, "busy interval must be well-ordered");
        let wsize = self.busy_micros.size.as_micros();
        let mut cursor = start.as_micros();
        let end_us = end.as_micros();
        while cursor < end_us {
            let idx = (cursor / wsize) as usize;
            let slice_end = ((idx as u64 + 1) * wsize).min(end_us);
            // A slice never exceeds one window, and `check_capacity`
            // bounds a window by `u32::MAX` microseconds.
            self.busy_micros.add(idx, (slice_end - cursor) as u32);
            cursor = slice_end;
        }
    }

    fn capacity_micros(&self) -> f64 {
        self.busy_micros.size.as_micros() as f64 * f64::from(self.cores)
    }

    /// Utilization of window `idx` in `[0, 1]` (0 if never touched).
    pub fn utilization(&self, idx: usize) -> f64 {
        f64::from(self.busy_micros.get(idx)) / self.capacity_micros()
    }

    /// Utilizations for all windows through the last touched one.
    pub fn utilizations(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.utilization(i)).collect()
    }

    /// Mean utilization over windows `[0, through_window]` (inclusive),
    /// counting untouched windows as idle.
    pub fn mean_utilization(&self, through_window: usize) -> f64 {
        if through_window == usize::MAX {
            return 0.0;
        }
        let n = through_window + 1;
        let busy: u64 = (0..n).map(|i| u64::from(self.busy_micros.get(i))).sum();
        busy as f64 / (self.capacity_micros() * n as f64)
    }

    /// Releases the busy-time storage reserved past the last touched
    /// window. Every reading is unchanged.
    pub fn shrink_to_fit(&mut self) {
        self.busy_micros.shrink_to_fit();
    }

    /// Pools `other` into `self`: busy time and core counts add, so the
    /// combined series reads as the utilization of the whole replica set
    /// (total busy over total capacity). Window sizes must match.
    ///
    /// # Panics
    ///
    /// Panics if the window sizes differ, or if the pooled cores overflow
    /// the `u32` busy-time counter.
    pub fn absorb(&mut self, other: &UtilizationSeries) {
        let cores = self.cores + other.cores;
        check_capacity(self.busy_micros.size, cores);
        self.busy_micros.merge(&other.busy_micros, checked_sum);
        self.cores = cores;
    }

    /// Number of windows touched.
    pub fn len(&self) -> usize {
        self.busy_micros.values.len()
    }

    /// `true` if no busy time was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.busy_micros.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::WindowAgg;
    use proptest::prelude::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn chunk() -> usize {
        Windows::new(SimDuration::from_millis(crate::MONITOR_WINDOW_MS)).chunk()
    }

    #[test]
    fn counter_accumulates_per_window() {
        let mut s = CounterSeries::paper_default();
        s.add(ms(10), 1);
        s.add(ms(40), 1);
        s.add(ms(51), 1);
        assert_eq!(s.count(0), 2);
        assert_eq!(s.count(1), 1);
        assert_eq!(s.total(), 3);
        assert_eq!(s.sums(), vec![2.0, 1.0]);
    }

    #[test]
    fn gauge_keeps_the_window_peak() {
        let mut s = PeakSeries::paper_default();
        s.record(ms(0), 100);
        s.record(ms(10), 300);
        s.record(ms(20), 200);
        s.record(ms(60), 7);
        assert_eq!(s.peaks(), &[300, 7]);
        assert_eq!(s.maxima(), vec![300.0, 7.0]);
    }

    #[test]
    fn untouched_windows_read_zero() {
        let c = CounterSeries::paper_default();
        let p = PeakSeries::paper_default();
        assert_eq!((c.count(17), p.peak(17)), (0, 0));
        assert!(c.is_empty() && p.is_empty());
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn iter_yields_window_starts() {
        let mut s = CounterSeries::with_window(SimDuration::from_millis(100));
        s.add(ms(150), 1);
        let points: Vec<_> = s.iter().collect();
        assert_eq!(points, vec![(ms(0), 0), (ms(100), 1)]);
    }

    #[test]
    fn absorb_adds_counters_and_maxes_peaks() {
        let (mut c0, mut c1) = (
            CounterSeries::paper_default(),
            CounterSeries::paper_default(),
        );
        let (mut p0, mut p1) = (PeakSeries::paper_default(), PeakSeries::paper_default());
        c0.add(ms(0), 2);
        c1.add(ms(0), 3);
        c1.add(ms(120), 1);
        p0.record(ms(0), 9);
        p1.record(ms(0), 4);
        p1.record(ms(120), 5);
        c0.absorb(&c1);
        p0.absorb(&p1);
        assert_eq!(c0.counts(), &[5, 0, 1]);
        assert_eq!(p0.peaks(), &[9, 0, 5]);
    }

    #[test]
    #[should_panic(expected = "different window size")]
    fn absorb_rejects_mismatched_windows() {
        let mut a = CounterSeries::paper_default();
        a.absorb(&CounterSeries::with_window(SimDuration::from_millis(10)));
    }

    #[test]
    fn preallocation_is_capped_past_ten_minutes() {
        let day = SimDuration::from_secs(24 * 3_600);
        let s = CounterSeries::paper_default_for(day);
        assert_eq!(s.0.values.capacity(), chunk());
        let u = UtilizationSeries::paper_default_for(2, day);
        assert_eq!(u.busy_micros.values.capacity(), chunk());
        // short horizons get their exact reservation
        let short = PeakSeries::paper_default_for(SimDuration::from_secs(20));
        assert_eq!(short.0.values.capacity(), 402);
    }

    #[test]
    fn growth_past_the_cap_is_one_chunk_at_a_time() {
        // An hour at 50 ms touches 72 000 windows; doubling from the capped
        // reservation would end at 8 chunks, chunked growth ends at 6.
        let hour = SimDuration::from_secs(3_600);
        let mut s = PeakSeries::paper_default_for(hour);
        for t in (0..3_600_000u64).step_by(50) {
            s.record(ms(t), 1);
            assert_eq!(s.0.values.capacity() % chunk(), 0, "at {t} ms");
        }
        assert_eq!(s.len(), 72_000);
        assert_eq!(s.0.values.capacity(), 6 * chunk());
        // Unreserved series double while small, then step by chunks.
        let mut c = CounterSeries::paper_default();
        c.add(ms(50 * 20_000), 1);
        assert_eq!(c.0.values.capacity(), 2 * chunk());
    }

    #[test]
    fn shrink_to_fit_keeps_every_reading() {
        let horizon = SimDuration::from_secs(20);
        let mut c = CounterSeries::paper_default_for(horizon);
        let mut p = PeakSeries::paper_default_for(horizon);
        let mut u = UtilizationSeries::paper_default_for(2, horizon);
        c.add(ms(120), 3);
        c.add(ms(4_010), 1);
        p.record(ms(60), 7);
        p.record(ms(3_990), 2);
        u.record_busy(ms(25), ms(175));
        u.record_busy(ms(5_000), ms(5_040));
        let (c0, p0, u0) = (c.clone(), p.clone(), u.clone());
        c.shrink_to_fit();
        p.shrink_to_fit();
        u.shrink_to_fit();
        assert_eq!((c.len(), p.len(), u.len()), (c0.len(), p0.len(), u0.len()));
        assert_eq!(c, c0);
        assert_eq!(p, p0);
        assert_eq!(c.total(), c0.total());
        assert_eq!(u.total_busy_micros(), u0.total_busy_micros());
        for w in 0..=u0.len() + 2 {
            assert_eq!(c.count(w), c0.count(w), "window {w}");
            assert_eq!(p.peak(w), p0.peak(w), "window {w}");
            assert_eq!(u.utilization(w).to_bits(), u0.utilization(w).to_bits());
        }
        assert_eq!(c.0.values.capacity(), c.len());
        assert_eq!(u.busy_micros.values.capacity(), u.len());
        // A counter that never fired keeps no buffer.
        let mut idle = CounterSeries::paper_default_for(horizon);
        idle.shrink_to_fit();
        assert_eq!(idle.0.values.capacity(), 0);
        assert_eq!(idle, CounterSeries::paper_default());
        // A trimmed series still grows on demand.
        c.add(ms(9_000), 1);
        assert_eq!((c.count(180), c.total()), (1, 5));
    }

    #[test]
    fn total_busy_micros_sums_windows() {
        let mut u = UtilizationSeries::paper_default(1);
        u.record_busy(ms(25), ms(75));
        u.record_busy(ms(100), ms(110));
        assert_eq!(u.total_busy_micros(), 60_000);
    }

    #[test]
    fn utilization_splits_across_windows() {
        let mut u = UtilizationSeries::paper_default(1);
        u.record_busy(ms(25), ms(75));
        assert!((u.utilization(0) - 0.5).abs() < 1e-12);
        assert!((u.utilization(1) - 0.5).abs() < 1e-12);
        assert_eq!(u.utilization(2), 0.0);
    }

    #[test]
    fn utilization_with_multiple_cores_scales() {
        let mut u = UtilizationSeries::paper_default(4);
        // one core fully busy for one window => 25% of a 4-core node
        u.record_busy(ms(0), ms(50));
        assert!((u.utilization(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mean_utilization_counts_idle_windows() {
        let mut u = UtilizationSeries::paper_default(1);
        u.record_busy(ms(0), ms(50));
        // windows 0..=3: one fully busy, three idle
        assert!((u.mean_utilization(3) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn absorbed_utilization_pools_busy_time_and_cores() {
        let mut a = UtilizationSeries::paper_default(1);
        let mut b = UtilizationSeries::paper_default(3);
        a.record_busy(ms(0), ms(50));
        b.record_busy(ms(50), ms(100));
        a.absorb(&b);
        assert_eq!(a.utilizations(), vec![0.25, 0.25]);
    }

    #[test]
    fn empty_busy_interval_is_noop() {
        let mut u = UtilizationSeries::paper_default(1);
        u.record_busy(ms(10), ms(10));
        assert!(u.is_empty());
    }

    #[test]
    #[should_panic(expected = "well-ordered")]
    fn reversed_busy_interval_panics() {
        let mut u = UtilizationSeries::paper_default(1);
        u.record_busy(ms(20), ms(10));
    }

    #[test]
    #[should_panic(expected = "overflows the u32 busy-time counter")]
    fn oversized_window_times_cores_panics() {
        // 50 ms x 100 000 cores = 5e9 busy microseconds per window.
        let _ = UtilizationSeries::paper_default(100_000);
    }

    /// The f64 `sum`/`count`/`max`/`last` aggregate the integer series
    /// replaced, fed the same samples.
    fn reference(samples: &[(u64, u32)]) -> Vec<WindowAgg> {
        let mut windows = Vec::new();
        for &(t, v) in samples {
            let idx = ms(t).window_index(SimDuration::from_millis(50)) as usize;
            if idx >= windows.len() {
                windows.resize(idx + 1, WindowAgg::default());
            }
            windows[idx].absorb(&WindowAgg::sample(f64::from(v)));
        }
        windows
    }

    fn absorb_reference(into: &mut Vec<WindowAgg>, other: &[WindowAgg]) {
        if other.len() > into.len() {
            into.resize(other.len(), WindowAgg::default());
        }
        for (w, o) in into.iter_mut().zip(other) {
            w.absorb(o);
        }
    }

    proptest! {
        /// Total busy time recorded equals total busy time read back,
        /// regardless of how intervals straddle windows.
        #[test]
        fn busy_time_is_conserved(intervals in proptest::collection::vec((0u64..5_000, 0u64..500), 1..50)) {
            let mut u = UtilizationSeries::paper_default(1);
            let mut expect = 0u64;
            for (start, len) in intervals {
                u.record_busy(SimTime::from_micros(start), SimTime::from_micros(start + len));
                expect += len;
            }
            prop_assert_eq!(u.total_busy_micros(), expect);
            let w = SimDuration::from_millis(crate::MONITOR_WINDOW_MS).as_micros() as f64;
            let got: f64 = u.utilizations().iter().map(|x| x * w).sum();
            prop_assert!((got - expect as f64).abs() < 1e-6);
        }

        /// Both integer series read exactly what the f64 aggregate read —
        /// counters its `sum`, gauges its `max`, over the same windows — for
        /// one replica and after pooling two replicas (counters add, gauges
        /// keep the larger peak).
        #[test]
        fn integer_series_match_the_f64_reference(
            a in proptest::collection::vec((0u64..10_000, 0u32..1_000), 0..100),
            b in proptest::collection::vec((0u64..10_000, 0u32..1_000), 0..100),
        ) {
            let build = |samples: &[(u64, u32)]| {
                let mut c = CounterSeries::paper_default();
                let mut p = PeakSeries::paper_default();
                for &(t, v) in samples {
                    c.add(ms(t), v);
                    p.record(ms(t), v);
                }
                (c, p)
            };
            let (mut ca, mut pa) = build(&a);
            let (cb, pb) = build(&b);
            let mut ra = reference(&a);
            let sums = |r: &[WindowAgg]| r.iter().map(|w| w.sum).collect::<Vec<_>>();
            let maxima = |r: &[WindowAgg]| r.iter().map(|w| w.max).collect::<Vec<_>>();
            prop_assert_eq!(ca.sums(), sums(&ra));
            prop_assert_eq!(pa.maxima(), maxima(&ra));

            ca.absorb(&cb);
            pa.absorb(&pb);
            absorb_reference(&mut ra, &reference(&b));
            prop_assert_eq!(ca.sums(), sums(&ra));
            prop_assert_eq!(pa.maxima(), maxima(&ra));
            prop_assert_eq!(ca.len(), ra.len());
            prop_assert_eq!(pa.len(), ra.len());
            prop_assert_eq!(ca.total() as f64, ra.iter().map(|w| w.sum).sum::<f64>());
        }
    }
}
