//! Streaming readers for real cluster-trace CSV formats.
//!
//! Two dialects are supported, matching the public batch-workload traces
//! the scaling literature replays:
//!
//! * **Alibaba** `batch_task.csv` rows:
//!   `task_name,instance_num,job_name,task_type,status,start_time,end_time,plan_cpu,plan_mem`
//!   with start/end in *seconds* and `plan_cpu` in centi-cores (100 = one
//!   core). One row fans out into `instance_num` logical users.
//! * **Google** cluster-data task events:
//!   `time,missing,job_id,task_index,machine_id,event_type,user,class,priority,cpu_request,...`
//!   with time in *microseconds*; only `SUBMIT` rows (event type 0) become
//!   arrivals, one instance each, with `cpu_request` as a machine fraction.
//!
//! Both readers are single-pass over a [`BufRead`] — memory is one line
//! buffer plus, for [`TraceArrivals`], the merge heap of *currently
//! active* tasks. Parse failures are typed [`TraceReadError`]s, never
//! panics; rows must be sorted by start time (the on-disk order of the
//! real traces) and the reader rejects regressions so the downstream
//! arrival stream stays monotone. Lines that are empty or start with `#`
//! are skipped, so fixtures can carry their own column legend.

use std::collections::BinaryHeap;
use std::io::BufRead;

use ntier_des::rng::SimRng;
use ntier_des::time::{SimDuration, SimTime};

use crate::source::ArrivalSource;

/// Which trace format a reader parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDialect {
    /// Alibaba cluster-trace `batch_task.csv`.
    Alibaba,
    /// Google cluster-data `task_events` (SUBMIT rows only).
    Google,
}

/// One parsed trace task: a batch of identical instances over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceTask {
    /// When the task starts (first instance arrival).
    pub at: SimTime,
    /// When the task's window ends (instances are spread over `[at, end]`).
    pub end: SimTime,
    /// Logical users this task represents (≥ 1; zero-instance rows are
    /// skipped by the reader).
    pub instances: u32,
    /// Requested CPU in cores (Alibaba `plan_cpu`/100, Google
    /// `cpu_request`); drives per-request demand scaling downstream.
    pub cpu: f64,
}

/// Error from reading a cluster-trace CSV — typed, so a malformed row
/// never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReadError {
    /// 1-based line number of the offending row (0 for stream-level IO
    /// errors before any line was read).
    pub line: u64,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster trace error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TraceReadError {}

/// Streaming parser: one [`TraceTask`] per `next_task` call, O(1) memory.
#[derive(Debug)]
pub struct ClusterTraceReader<R> {
    dialect: TraceDialect,
    input: R,
    line: u64,
    last_start: SimTime,
    buf: String,
}

impl<R: BufRead> ClusterTraceReader<R> {
    /// Wraps `input` (not read until the first `next_task`).
    pub fn new(input: R, dialect: TraceDialect) -> Self {
        ClusterTraceReader {
            dialect,
            input,
            line: 0,
            last_start: SimTime::ZERO,
            buf: String::new(),
        }
    }

    /// The next task row, `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`TraceReadError`] on IO failure, malformed fields, a task
    /// window that ends before it starts, or rows out of start-time order.
    fn next_task(&mut self) -> Result<Option<TraceTask>, TraceReadError> {
        loop {
            self.buf.clear();
            let n = self
                .input
                .read_line(&mut self.buf)
                .map_err(|e| TraceReadError {
                    line: self.line + 1,
                    message: format!("io error: {e}"),
                })?;
            if n == 0 {
                return Ok(None);
            }
            self.line += 1;
            let row = self.buf.trim();
            if row.is_empty() || row.starts_with('#') {
                continue;
            }
            let task = match self.dialect {
                TraceDialect::Alibaba => Some(parse_alibaba(row, self.line)?),
                TraceDialect::Google => parse_google(row, self.line)?,
            };
            let Some(task) = task else {
                continue; // a Google row that is not a SUBMIT event
            };
            if task.instances == 0 {
                continue;
            }
            if task.at < self.last_start {
                return Err(TraceReadError {
                    line: self.line,
                    message: format!(
                        "rows out of order: start {} after {}",
                        task.at, self.last_start
                    ),
                });
            }
            self.last_start = task.at;
            return Ok(Some(task));
        }
    }

    /// Drains the whole input (convenience for small traces and tests).
    ///
    /// # Errors
    ///
    /// The first malformed, out-of-order or unreadable row, if any.
    pub fn read_all(mut self) -> Result<Vec<TraceTask>, TraceReadError> {
        let mut out = Vec::new();
        while let Some(t) = self.next_task()? {
            out.push(t);
        }
        Ok(out)
    }
}

fn field<'a>(
    cols: &[&'a str],
    idx: usize,
    name: &str,
    line: u64,
) -> Result<&'a str, TraceReadError> {
    cols.get(idx).copied().ok_or_else(|| TraceReadError {
        line,
        message: format!("missing column {idx} ({name})"),
    })
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str, line: u64) -> Result<T, TraceReadError>
where
    T::Err: std::fmt::Display,
{
    s.trim().parse().map_err(|e| TraceReadError {
        line,
        message: format!("bad {name} '{s}': {e}"),
    })
}

fn parse_alibaba(row: &str, line: u64) -> Result<TraceTask, TraceReadError> {
    let cols: Vec<&str> = row.split(',').collect();
    let instances: u32 = parse_num(field(&cols, 1, "instance_num", line)?, "instance_num", line)?;
    let start: u64 = parse_num(field(&cols, 5, "start_time", line)?, "start_time", line)?;
    let end: u64 = parse_num(field(&cols, 6, "end_time", line)?, "end_time", line)?;
    let plan_cpu = field(&cols, 7, "plan_cpu", line)?.trim();
    let cpu: f64 = if plan_cpu.is_empty() {
        100.0
    } else {
        parse_num(plan_cpu, "plan_cpu", line)?
    };
    if end < start {
        return Err(TraceReadError {
            line,
            message: format!("task window ends at {end}s before its start {start}s"),
        });
    }
    if !cpu.is_finite() || cpu < 0.0 {
        return Err(TraceReadError {
            line,
            message: format!("plan_cpu {cpu} is not a non-negative finite number"),
        });
    }
    Ok(TraceTask {
        at: SimTime::from_secs(start),
        end: SimTime::from_secs(end),
        instances,
        cpu: cpu / 100.0,
    })
}

fn parse_google(row: &str, line: u64) -> Result<Option<TraceTask>, TraceReadError> {
    let cols: Vec<&str> = row.split(',').collect();
    let event: u32 = parse_num(field(&cols, 5, "event_type", line)?, "event_type", line)?;
    if event != 0 {
        return Ok(None); // only SUBMIT events become arrivals
    }
    let t: u64 = parse_num(field(&cols, 0, "time", line)?, "time", line)?;
    let cpu_raw = field(&cols, 9, "cpu_request", line)?.trim();
    let cpu: f64 = if cpu_raw.is_empty() {
        0.5 // the trace redacts some requests; assume half a machine
    } else {
        parse_num(cpu_raw, "cpu_request", line)?
    };
    if !cpu.is_finite() || cpu < 0.0 {
        return Err(TraceReadError {
            line,
            message: format!("cpu_request {cpu} is not a non-negative finite number"),
        });
    }
    let at = SimTime::from_micros(t);
    Ok(Some(TraceTask {
        at,
        end: at,
        instances: 1,
        cpu,
    }))
}

/// One per-arrival payload from a trace: the task's requested CPU and
/// window width, for downstream demand mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceInstance {
    /// Requested CPU in cores.
    pub cpu: f64,
    /// The owning task's window width (zero for instantaneous dialects).
    pub duration: SimDuration,
}

/// Emission cursor over one admitted task: instance `j` of `n` arrives at
/// `start + (end−start)·j/n`. Ordered by `(next_t, seq)` so the merge is
/// deterministic on time ties (seq = admission order = row order).
#[derive(Debug, Clone, Copy)]
struct InstanceCursor {
    next_t: SimTime,
    seq: u64,
    emitted: u32,
    start: SimTime,
    span: SimDuration,
    instances: u32,
    cpu: f64,
}

impl InstanceCursor {
    fn time_of(&self, j: u32) -> SimTime {
        self.start
            + SimDuration::from_micros(
                self.span.as_micros() * u64::from(j) / u64::from(self.instances),
            )
    }
}

impl PartialEq for InstanceCursor {
    fn eq(&self, other: &Self) -> bool {
        (self.next_t, self.seq) == (other.next_t, other.seq)
    }
}
impl Eq for InstanceCursor {}
impl PartialOrd for InstanceCursor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InstanceCursor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.next_t, self.seq).cmp(&(other.next_t, other.seq))
    }
}

/// The trace as a streaming [`ArrivalSource`]: each task row fans out into
/// its instances, spread evenly over the task window, with overlapping
/// task windows merged in global time order. Memory is O(*concurrently
/// active* tasks) — the trace-scale analogue of the engine's O(active
/// requests) slab — regardless of how many total instances the trace
/// expands to. A parse error ends the stream (sticky `None`) and is
/// surfaced through [`ArrivalSource::fault`].
#[derive(Debug)]
pub struct TraceArrivals<R> {
    reader: ClusterTraceReader<R>,
    peeked: Option<TraceTask>,
    active: BinaryHeap<std::cmp::Reverse<InstanceCursor>>,
    admitted: u64,
    primed: bool,
    error: Option<String>,
}

impl<R: BufRead> TraceArrivals<R> {
    /// Streams `reader`'s tasks as per-instance arrivals.
    pub fn new(reader: ClusterTraceReader<R>) -> Self {
        TraceArrivals {
            reader,
            peeked: None,
            active: BinaryHeap::new(),
            admitted: 0,
            primed: false,
            error: None,
        }
    }

    /// Tasks currently mid-emission (the O(active) bound).
    #[cfg(test)]
    fn active_tasks(&self) -> usize {
        self.active.len()
    }

    fn read_next(&mut self) -> Option<TraceTask> {
        match self.reader.next_task() {
            Ok(t) => t,
            Err(e) => {
                self.error = Some(e.to_string());
                None
            }
        }
    }

    fn admit(&mut self, task: TraceTask) {
        let seq = self.admitted;
        self.admitted += 1;
        let cursor = InstanceCursor {
            next_t: task.at,
            seq,
            emitted: 0,
            start: task.at,
            span: task.end - task.at,
            instances: task.instances,
            cpu: task.cpu,
        };
        self.active.push(std::cmp::Reverse(cursor));
    }
}

impl<R: BufRead> ArrivalSource for TraceArrivals<R> {
    type Payload = TraceInstance;

    fn next_arrival(&mut self, _rng: &mut SimRng) -> Option<(SimTime, TraceInstance)> {
        if !self.primed {
            self.peeked = self.read_next();
            self.primed = true;
        }
        if self.error.is_some() {
            // Truncate at the fault: emitting the already-admitted tail
            // would hide how far the parse got.
            self.active.clear();
            return None;
        }
        // Admit every task that could precede the earliest active emission
        // (rows are start-sorted, so everything unread starts later).
        while let Some(task) = self.peeked {
            let frontier = self.active.peek().map(|c| c.0.next_t);
            if frontier.is_some_and(|f| task.at > f) {
                break;
            }
            self.admit(task);
            self.peeked = self.read_next();
            if self.error.is_some() {
                self.active.clear();
                return None;
            }
        }
        let std::cmp::Reverse(mut c) = self.active.pop()?;
        let t = c.next_t;
        let inst = TraceInstance {
            cpu: c.cpu,
            duration: c.span,
        };
        c.emitted += 1;
        if c.emitted < c.instances {
            c.next_t = c.time_of(c.emitted);
            self.active.push(std::cmp::Reverse(c));
        }
        Some((t, inst))
    }

    fn fault(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::materialize;
    use std::io::Cursor;

    fn alibaba(csv: &str) -> ClusterTraceReader<Cursor<&str>> {
        ClusterTraceReader::new(Cursor::new(csv), TraceDialect::Alibaba)
    }

    #[test]
    fn alibaba_rows_parse_with_comments_and_blanks() {
        let csv = "# task_name,instance_num,job_name,task_type,status,start_time,end_time,plan_cpu,plan_mem\n\
                   t1,3,j1,A,Terminated,10,16,200,0.5\n\
                   \n\
                   t2,1,j1,A,Terminated,12,12,,0.5\n";
        let tasks = alibaba(csv).read_all().expect("parses");
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].at, SimTime::from_secs(10));
        assert_eq!(tasks[0].end, SimTime::from_secs(16));
        assert_eq!(tasks[0].instances, 3);
        assert!((tasks[0].cpu - 2.0).abs() < 1e-12);
        // empty plan_cpu defaults to one core
        assert!((tasks[1].cpu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn google_submit_rows_parse_and_others_are_skipped() {
        let csv = "1000000,,42,0,,0,u,2,9,0.25,0.1,0.0,\n\
                   1500000,,42,0,m1,1,u,2,9,0.25,0.1,0.0,\n\
                   2000000,,43,0,,0,u,2,9,,0.1,0.0,\n";
        let tasks = ClusterTraceReader::new(Cursor::new(csv), TraceDialect::Google)
            .read_all()
            .expect("parses");
        assert_eq!(tasks.len(), 2, "only SUBMIT rows become arrivals");
        assert_eq!(tasks[0].at, SimTime::from_secs(1));
        assert_eq!(tasks[0].instances, 1);
        assert!((tasks[0].cpu - 0.25).abs() < 1e-12);
        assert!((tasks[1].cpu - 0.5).abs() < 1e-12, "redacted cpu defaults");
    }

    #[test]
    fn typed_errors_carry_the_line_number() {
        let err = alibaba("t1,notanumber,j,A,S,1,2,100,0\n")
            .read_all()
            .unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("instance_num"), "{err}");

        let err = alibaba("t1,1,j,A,S,10,5,100,0\n").read_all().unwrap_err();
        assert!(err.message.contains("ends"), "{err}");

        let err = alibaba("t1,1,j,A,S,10,12,100,0\nt2,1,j,A,S,5,9,100,0\n")
            .read_all()
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("out of order"), "{err}");

        let err = alibaba("t1,1\n").read_all().unwrap_err();
        assert!(err.message.contains("missing column"), "{err}");
    }

    #[test]
    fn instances_spread_over_the_task_window_in_order() {
        let csv = "t1,4,j,A,S,10,18,100,0\n";
        let mut src = TraceArrivals::new(alibaba(csv));
        let mut rng = SimRng::seed_from(1);
        let out = materialize(&mut src, &mut rng);
        let times: Vec<u64> = out.iter().map(|(t, _)| t.as_millis() / 1_000).collect();
        assert_eq!(times, vec![10, 12, 14, 16]);
        assert_eq!(out[0].1.duration, SimDuration::from_secs(8));
    }

    #[test]
    fn overlapping_tasks_merge_in_time_order_with_bounded_active_set() {
        let csv = "a,100,j,A,S,0,100,100,0\n\
                   b,100,j,A,S,50,150,200,0\n\
                   c,2,j,A,S,140,142,100,0\n";
        let mut src = TraceArrivals::new(alibaba(csv));
        let mut rng = SimRng::seed_from(1);
        let mut last = SimTime::ZERO;
        let mut peak_active = 0;
        let mut n = 0;
        while let Some((t, _)) = src.next_arrival(&mut rng) {
            assert!(t >= last, "stream must be monotone");
            last = t;
            peak_active = peak_active.max(src.active_tasks());
            n += 1;
        }
        assert_eq!(n, 202);
        assert!(peak_active <= 3, "peak active {peak_active}");
        assert!(src.fault().is_none());
    }

    #[test]
    fn mid_stream_parse_fault_truncates_and_is_surfaced() {
        let csv = "a,2,j,A,S,0,10,100,0\n\
                   b,oops,j,A,S,5,10,100,0\n";
        let mut src = TraceArrivals::new(alibaba(csv));
        let mut rng = SimRng::seed_from(1);
        let mut n = 0;
        while src.next_arrival(&mut rng).is_some() {
            n += 1;
        }
        assert!(n <= 1, "stream truncates at the fault, got {n}");
        let fault = src.fault().expect("fault surfaced");
        assert!(fault.contains("line 2"), "{fault}");
        assert!(src.next_arrival(&mut rng).is_none(), "sticky after fault");
    }

    #[test]
    fn zero_instance_rows_are_skipped() {
        let csv = "a,0,j,A,S,0,10,100,0\nb,1,j,A,S,5,6,100,0\n";
        let tasks = alibaba(csv).read_all().expect("parses");
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].at, SimTime::from_secs(5));
    }
}
