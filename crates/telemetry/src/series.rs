//! Fixed-window time series: the 50 ms aggregates the paper's figures plot.
//!
//! Every per-window quantity the engine records is an integer, and every
//! reader takes exactly one aggregate of it:
//!
//! * [`CounterSeries`] — events per window (drops, VLRT requests), kept
//!   sparsely as one `(window, count)` pair per window that saw any: both
//!   events are rare and cluster in millibottleneck episodes; replica sets
//!   pool by adding;
//! * [`PeakSeries`] — the highest gauge reading per window (queue depth),
//!   one `u32` per window; replica sets pool by taking the larger peak;
//! * [`UtilizationSeries`] — busy microseconds per window, one `u32` per
//!   window, read back as CPU utilization; replica sets pool busy time and
//!   cores.

use ntier_des::time::{SimDuration, SimTime, MONITOR_WINDOW};

/// Horizon past which the `paper_default_for` constructors stop
/// preallocating: 10 minutes of simulated time. Longer runs grow one
/// horizon-cap-sized chunk at a time — O(horizon) preallocation is exactly
/// what capped runs at Fig.-1 scale.
pub const PREALLOC_HORIZON_CAP: SimDuration = SimDuration::from_secs(600);

/// Windows in [`PREALLOC_HORIZON_CAP`] plus a spill window for events
/// landing exactly at the horizon: the most a dense series ever reserves up
/// front, and its growth step past that.
const CHUNK: usize = (PREALLOC_HORIZON_CAP.as_micros() / MONITOR_WINDOW.as_micros()) as usize + 2;

/// One `u32` per [`MONITOR_WINDOW`], from time zero through the last
/// touched window: the storage behind [`PeakSeries`] and
/// [`UtilizationSeries`]. Untouched windows read as 0.
#[derive(Debug, Clone)]
struct Windows {
    values: Vec<u32>,
    /// Windows to reserve on the first touch (0 once made): a series that
    /// never records allocates nothing.
    reserve: usize,
}

/// Equality is by contents: a pending reservation is capacity, not data.
impl PartialEq for Windows {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Eq for Windows {}

impl Windows {
    const fn new() -> Self {
        Windows {
            values: Vec::new(),
            reserve: 0,
        }
    }

    /// Plans capacity for every window up to `horizon` (plus the spill
    /// window), capped at one [`CHUNK`], and reserved on the first touch.
    /// Only capacity is reserved: `len()` still reports the windows
    /// actually touched.
    fn reserve_through(&mut self, horizon: SimDuration) {
        let want = (horizon.as_micros() / MONITOR_WINDOW.as_micros()) as usize + 2;
        self.reserve = want.min(CHUNK);
    }

    #[inline]
    fn at(&mut self, idx: usize) -> &mut u32 {
        if idx >= self.values.len() {
            self.grow_to(idx);
        }
        &mut self.values[idx]
    }

    /// Extends the series through window `idx`, first making the planned
    /// reservation. Past one chunk, capacity grows a whole chunk at a time:
    /// doubling would leave an hour-long run holding up to twice the
    /// windows it uses.
    #[cold]
    fn grow_to(&mut self, idx: usize) {
        if self.reserve > 0 {
            self.values.reserve_exact(std::mem::take(&mut self.reserve));
        }
        if idx >= self.values.capacity() && idx >= CHUNK {
            let target = (idx / CHUNK + 1) * CHUNK;
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

    /// Drops the capacity past the last touched window and any pending
    /// reservation: a finished series keeps exactly the windows it
    /// observed, and one never touched holds no buffer at all.
    fn shrink_to_fit(&mut self) {
        self.reserve = 0;
        self.values.shrink_to_fit();
    }

    /// Folds `other` in window by window with `f`, extending `self` to
    /// cover every window either side touched.
    fn merge(&mut self, other: &Windows, f: impl Fn(u32, u32) -> u32) {
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

/// Events counted per [`MONITOR_WINDOW`]: drops, VLRT requests.
///
/// Only windows with a nonzero count are stored, as window-ordered
/// `(window, count)` pairs; every reader still sees one count per window
/// from time zero through the last touched window, zeros included.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
/// use ntier_telemetry::CounterSeries;
///
/// let mut vlrt = CounterSeries::paper_default();
/// vlrt.add(SimTime::from_millis(120), 1); // one VLRT request in window 2
/// vlrt.add(SimTime::from_millis(130), 1);
/// assert_eq!(vlrt.count(2), 2);
/// assert_eq!(vlrt.count(0), 0);
/// assert_eq!(vlrt.total(), 2);
/// assert_eq!(vlrt.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSeries {
    /// Windows from time zero through the last touched window.
    len: usize,
    /// `(window, count)` of every window with a nonzero count, in window
    /// order.
    nonzero: Vec<(u32, u32)>,
}

impl CounterSeries {
    /// Creates an empty series over the paper's 50 ms monitoring window.
    pub const fn paper_default() -> Self {
        CounterSeries {
            len: 0,
            nonzero: Vec::new(),
        }
    }

    /// Adds `n` events to the window containing `t`. Adding 0 still
    /// extends the series through that window.
    ///
    /// # Panics
    ///
    /// Panics if the window's count overflows `u32`, or if its index does.
    #[inline]
    pub fn add(&mut self, t: SimTime, n: u32) {
        let w = u32::try_from(t.window_index(MONITOR_WINDOW)).expect("window index overflows u32");
        self.len = self.len.max(w as usize + 1);
        if n == 0 {
            return;
        }
        // Drops and VLRT completions are counted at the current time, so
        // the last entry is the common case; a replica's VLRT is charged
        // back to its first drop's window.
        match self.nonzero.last_mut() {
            Some((last, c)) if *last == w => *c = checked_sum(*c, n),
            Some(&mut (last, _)) if last > w => self.add_back_dated(w, n),
            _ => self.nonzero.push((w, n)),
        }
    }

    fn add_back_dated(&mut self, w: u32, n: u32) {
        match self.nonzero.binary_search_by_key(&w, |&(at, _)| at) {
            Ok(i) => self.nonzero[i].1 = checked_sum(self.nonzero[i].1, n),
            Err(i) => self.nonzero.insert(i, (w, n)),
        }
    }

    /// Events in window `idx` (0 if never touched).
    pub fn count(&self, idx: usize) -> u32 {
        let Ok(w) = u32::try_from(idx) else {
            return 0;
        };
        self.nonzero
            .binary_search_by_key(&w, |&(at, _)| at)
            .map_or(0, |i| self.nonzero[i].1)
    }

    /// The per-window counts as `f64`s, for readers that plot or compare
    /// floats.
    pub fn sums(&self) -> Vec<f64> {
        self.iter().map(|(_, n)| f64::from(n)).collect()
    }

    /// Total events across all windows.
    pub fn total(&self) -> u64 {
        self.nonzero.iter().map(|&(_, n)| u64::from(n)).sum()
    }

    /// Iterates `(window_start_time, count)` over all windows, from time
    /// zero through the last touched window, zeros included.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        let w = MONITOR_WINDOW.as_micros();
        let mut nonzero = self.nonzero.iter().peekable();
        (0..self.len).map(move |i| {
            let n = nonzero
                .next_if(|&&(at, _)| at as usize == i)
                .map_or(0, |&(_, n)| n);
            (SimTime::from_micros(i as u64 * w), n)
        })
    }

    /// Number of windows from time zero through the last touched window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no window was ever touched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Releases the storage past the last nonzero window. Every reading is
    /// unchanged.
    pub fn shrink_to_fit(&mut self) {
        self.nonzero.shrink_to_fit();
    }

    /// Pools `other` into `self` (one replica into a tier-wide view):
    /// counts add window by window.
    pub fn absorb(&mut self, other: &CounterSeries) {
        self.len = self.len.max(other.len);
        if other.nonzero.is_empty() {
            return;
        }
        // Two window-ordered runs: the stable sort merges them, and each
        // window then appears at most twice, adjacent.
        self.nonzero.extend_from_slice(&other.nonzero);
        self.nonzero.sort_by_key(|&(at, _)| at);
        self.nonzero.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = checked_sum(kept.1, later.1);
            }
            same
        });
    }
}

/// The highest gauge reading per [`MONITOR_WINDOW`]: queue depth.
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
    /// Creates an empty series over the paper's 50 ms monitoring window.
    pub const fn paper_default() -> Self {
        PeakSeries(Windows::new())
    }

    /// Like [`PeakSeries::paper_default`], with storage for a run of length
    /// `horizon` (capped at [`PREALLOC_HORIZON_CAP`]) reserved on the first
    /// record, so a series that never records allocates nothing.
    pub fn paper_default_for(horizon: SimDuration) -> Self {
        let mut s = Self::paper_default();
        s.0.reserve_through(horizon);
        s
    }

    /// Records a gauge reading at `t`; the window keeps its largest.
    #[inline]
    pub fn record(&mut self, t: SimTime, value: u32) {
        let w = self.0.at(t.window_index(MONITOR_WINDOW) as usize);
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
/// let mut cpu = UtilizationSeries::paper_default(1);
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
fn check_capacity(cores: u32) {
    assert!(
        MONITOR_WINDOW
            .as_micros()
            .checked_mul(u64::from(cores))
            .is_some_and(|c| c <= u64::from(u32::MAX)),
        "window x cores ({MONITOR_WINDOW} x {cores}) overflows the u32 busy-time counter"
    );
}

impl UtilizationSeries {
    /// Creates a utilization series for `cores` cores over the paper's
    /// 50 ms monitoring window.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero, or if a fully busy window
    /// ([`MONITOR_WINDOW`] × `cores` microseconds) does not fit in a `u32`.
    pub fn paper_default(cores: u32) -> Self {
        assert!(cores > 0, "cores must be non-zero");
        check_capacity(cores);
        UtilizationSeries {
            cores,
            busy_micros: Windows::new(),
        }
    }

    /// Like [`UtilizationSeries::paper_default`], but with busy-time storage
    /// for a run of length `horizon` (capped at [`PREALLOC_HORIZON_CAP`])
    /// reserved on the first record: capacity only — observable state is
    /// identical to the on-demand series.
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
        let wsize = MONITOR_WINDOW.as_micros();
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
        MONITOR_WINDOW.as_micros() as f64 * f64::from(self.cores)
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
    /// (total busy over total capacity).
    ///
    /// # Panics
    ///
    /// Panics if the pooled cores overflow the `u32` busy-time counter.
    pub fn absorb(&mut self, other: &UtilizationSeries) {
        let cores = self.cores + other.cores;
        check_capacity(cores);
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
    use proptest::prelude::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
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
        let mut s = CounterSeries::paper_default();
        s.add(ms(150), 1);
        let points: Vec<_> = s.iter().collect();
        assert_eq!(
            points,
            vec![(ms(0), 0), (ms(50), 0), (ms(100), 0), (ms(150), 1)]
        );
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
        assert_eq!(c0.sums(), vec![5.0, 0.0, 1.0]);
        assert_eq!(p0.peaks(), &[9, 0, 5]);
    }

    #[test]
    fn preallocation_is_capped_past_ten_minutes() {
        let day = SimDuration::from_secs(24 * 3_600);
        let mut p = PeakSeries::paper_default_for(day);
        let mut u = UtilizationSeries::paper_default_for(2, day);
        let mut short = PeakSeries::paper_default_for(SimDuration::from_secs(20));
        let mut c = CounterSeries::paper_default();
        // Nothing is reserved before the first record.
        assert_eq!(p.0.values.capacity(), 0);
        assert_eq!(u.busy_micros.values.capacity(), 0);
        assert_eq!(short.0.values.capacity(), 0);
        assert_eq!(c.nonzero.capacity(), 0);
        p.record(ms(0), 1);
        u.record_busy(ms(0), ms(1));
        short.record(ms(0), 1);
        c.add(ms(0), 0);
        assert_eq!(p.0.values.capacity(), CHUNK);
        assert_eq!(u.busy_micros.values.capacity(), CHUNK);
        // short horizons get their exact reservation
        assert_eq!(short.0.values.capacity(), 402);
        // an add of 0 extends the counter without storing a window
        assert_eq!((c.len(), c.nonzero.capacity()), (1, 0));
    }

    #[test]
    fn growth_past_the_cap_is_one_chunk_at_a_time() {
        // An hour at 50 ms touches 72 000 windows; doubling from the capped
        // reservation would end at 8 chunks, chunked growth ends at 6.
        let hour = SimDuration::from_secs(3_600);
        let mut s = PeakSeries::paper_default_for(hour);
        for t in (0..3_600_000u64).step_by(50) {
            s.record(ms(t), 1);
            assert_eq!(s.0.values.capacity() % CHUNK, 0, "at {t} ms");
        }
        assert_eq!(s.len(), 72_000);
        assert_eq!(s.0.values.capacity(), 6 * CHUNK);
        // Unreserved series double while small, then step by chunks.
        let mut p = PeakSeries::paper_default();
        p.record(ms(50 * 20_000), 1);
        assert_eq!(p.0.values.capacity(), 2 * CHUNK);
        // A counter stores only the windows that counted.
        let mut c = CounterSeries::paper_default();
        c.add(ms(50 * 20_000), 1);
        assert_eq!((c.len(), c.nonzero.len()), (20_001, 1));
    }

    #[test]
    fn shrink_to_fit_keeps_every_reading() {
        let horizon = SimDuration::from_secs(20);
        let mut c = CounterSeries::paper_default();
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
        assert_eq!(c.nonzero.capacity(), 2);
        assert_eq!(p.0.values.capacity(), p.len());
        assert_eq!(u.busy_micros.values.capacity(), u.len());
        // A series that never recorded keeps no buffer, and trimming drops
        // its pending reservation.
        let mut idle = PeakSeries::paper_default_for(horizon);
        assert_eq!(idle, PeakSeries::paper_default());
        idle.shrink_to_fit();
        idle.absorb(&p);
        assert_eq!(idle.0.values.capacity(), p.len());
        assert_eq!(idle, p);
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

    /// One window of the f64 aggregate the integer series replaced: the
    /// sum counters read and the maximum gauges read (0 when empty).
    #[derive(Debug, Clone, Copy, Default)]
    struct RefWindow {
        sum: f64,
        max: f64,
    }

    impl RefWindow {
        fn absorb(&mut self, w: &RefWindow) {
            self.sum += w.sum;
            self.max = self.max.max(w.max);
        }
    }

    /// The f64 reference, fed the same samples as the integer series.
    fn reference(samples: &[(u64, u32)]) -> Vec<RefWindow> {
        let mut windows = Vec::new();
        for &(t, v) in samples {
            let idx = ms(t).window_index(MONITOR_WINDOW) as usize;
            if idx >= windows.len() {
                windows.resize(idx + 1, RefWindow::default());
            }
            let v = f64::from(v);
            windows[idx].absorb(&RefWindow { sum: v, max: v });
        }
        windows
    }

    fn absorb_reference(into: &mut Vec<RefWindow>, other: &[RefWindow]) {
        if other.len() > into.len() {
            into.resize(other.len(), RefWindow::default());
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
            let w = MONITOR_WINDOW.as_micros() as f64;
            let got: f64 = u.utilizations().iter().map(|x| x * w).sum();
            prop_assert!((got - expect as f64).abs() < 1e-6);
        }

        /// Both integer series read exactly what the f64 aggregate read —
        /// counters its `sum`, gauges its `max`, over the same windows — for
        /// one replica and after pooling two replicas (counters add, gauges
        /// keep the larger peak). Replica `a` is fed in time order, each
        /// sample followed by one charged up to 3 s in the past (the replica
        /// `vlrt` pattern: a VLRT request is charged to its first drop's
        /// window when it completes); replica `b` is fed in random order,
        /// with `n = 0` adds that only extend the series. Their windows
        /// interleave when pooled.
        #[test]
        fn integer_series_match_the_f64_reference(
            a in proptest::collection::vec((0u64..10_000, 0u32..1_000, 0u64..3_000), 0..100),
            b in proptest::collection::vec((0u64..10_000, 0u32..1_000), 0..100),
            zeros in proptest::collection::vec(0u64..12_000, 0..4),
        ) {
            let mut a = a;
            a.sort_unstable_by_key(|&(t, _, _)| t);
            let a: Vec<(u64, u32)> = a
                .iter()
                .flat_map(|&(t, v, back)| [(t, v), (t.saturating_sub(back), 1)])
                .collect();
            let b: Vec<(u64, u32)> = b.into_iter().chain(zeros.into_iter().map(|t| (t, 0))).collect();
            let build = |samples: &[(u64, u32)]| {
                let mut c = CounterSeries::paper_default();
                let mut p = PeakSeries::paper_default();
                for &(t, v) in samples {
                    c.add(ms(t), v);
                    p.record(ms(t), v);
                }
                (c, p)
            };
            let sums = |r: &[RefWindow]| r.iter().map(|w| w.sum).collect::<Vec<_>>();
            let maxima = |r: &[RefWindow]| r.iter().map(|w| w.max).collect::<Vec<_>>();
            // Every reader of a counter, including past its last window.
            let check = |c: &CounterSeries, r: &[RefWindow]| {
                prop_assert_eq!(c.sums(), sums(r));
                prop_assert_eq!(c.len(), r.len());
                prop_assert_eq!(c.total() as f64, r.iter().map(|w| w.sum).sum::<f64>());
                for w in 0..r.len() + 3 {
                    let want = r.get(w).map_or(0.0, |x| x.sum);
                    prop_assert_eq!(f64::from(c.count(w)), want, "window {}", w);
                }
                let iter: Vec<_> = c.iter().collect();
                prop_assert_eq!(iter.len(), r.len());
                for (w, &(t, n)) in iter.iter().enumerate() {
                    prop_assert_eq!(t, ms(w as u64 * 50));
                    prop_assert_eq!(f64::from(n), r[w].sum);
                }
            };
            let (mut ca, mut pa) = build(&a);
            let (cb, pb) = build(&b);
            let mut ra = reference(&a);
            let rb = reference(&b);
            check(&ca, &ra);
            check(&cb, &rb);
            prop_assert_eq!(pa.maxima(), maxima(&ra));

            ca.absorb(&cb);
            pa.absorb(&pb);
            absorb_reference(&mut ra, &rb);
            check(&ca, &ra);
            prop_assert_eq!(pa.maxima(), maxima(&ra));
            prop_assert_eq!(pa.len(), ra.len());
        }
    }
}
