//! Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and CSV.
//!
//! The JSON follows the Trace Event Format's stable subset: `"X"` complete
//! events for spans (ts/dur in microseconds), `"i"` instants for point
//! events, and `"M"` metadata records naming each request's track. Each
//! logical request gets its own `tid`, so Perfetto renders one lane per
//! request with its service spans and RTO waits laid out on the lane.
//!
//! Tier sites render replica-qualified (`app#2`) only for replicas past the
//! first, so exports from single-replica topologies are byte-identical to
//! the pre-replica format.

use crate::analyzer::{Analysis, TierData};
use crate::event::{RequestTrace, TraceEventKind};
use crate::tracer::TraceLog;
use ntier_des::ids::{site_label, ReplicaId, TierId};
use std::fmt::Write as _;

fn tier_label(names: &[String], tier: TierId, replica: ReplicaId) -> String {
    let base = names
        .get(tier.index())
        .cloned()
        .unwrap_or_else(|| format!("T{tier}"));
    if replica == ReplicaId::FIRST {
        base
    } else {
        format!("{base}#{replica}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct JsonEvents {
    out: String,
    first: bool,
}

impl JsonEvents {
    fn new() -> Self {
        JsonEvents {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn push(&mut self, record: String) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str(&record);
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

fn emit_trace(json: &mut JsonEvents, t: &RequestTrace, tier_names: &[String]) {
    let tid = t.id;
    json.push(format!(
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"req {} [{} {:.2}s]\"}}}}",
        t.id,
        t.outcome.as_str(),
        t.latency.as_secs_f64()
    ));
    // Whole-request span.
    json.push(format!(
        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
         \"cat\":\"request\",\"name\":\"request\",\"args\":{{\"class\":\"{}\",\
         \"outcome\":\"{}\",\"sampled\":{}}}}}",
        t.injected_at.as_micros(),
        t.latency.as_micros(),
        escape(t.class),
        t.outcome.as_str(),
        t.sampled
    ));
    // Service spans: pair ServiceStart/ServiceEnd by (tier, replica, visit).
    for (i, ev) in t.events.iter().enumerate() {
        if let TraceEventKind::ServiceStart {
            tier,
            replica,
            visit,
        } = ev.kind
        {
            let end = t.events[i + 1..]
                .iter()
                .find(|e| {
                    e.kind
                        == TraceEventKind::ServiceEnd {
                            tier,
                            replica,
                            visit,
                        }
                })
                .map(|e| e.at)
                .unwrap_or(t.terminal_at);
            json.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                 \"cat\":\"service\",\"name\":\"{} v{}\"}}",
                ev.at.as_micros(),
                end.saturating_since(ev.at).as_micros(),
                escape(&tier_label(tier_names, tier, replica)),
                visit
            ));
        }
    }
    // RTO-wait spans and point events.
    for (i, ev) in t.events.iter().enumerate() {
        let ts = ev.at.as_micros();
        match ev.kind {
            TraceEventKind::SynDrop {
                tier,
                replica,
                retransmit_no,
            } => {
                let resume = t.events[i + 1..]
                    .iter()
                    .map(|e| e.at)
                    .find(|&at| at > ev.at)
                    .unwrap_or(t.terminal_at);
                json.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\
                     \"cat\":\"rto\",\"name\":\"rto wait {} #{}\"}}",
                    resume.saturating_since(ev.at).as_micros(),
                    escape(&tier_label(tier_names, tier, replica)),
                    retransmit_no
                ));
                json.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                     \"cat\":\"drop\",\"name\":\"syn_drop {} #{}\"}}",
                    escape(&tier_label(tier_names, tier, replica)),
                    retransmit_no
                ));
            }
            TraceEventKind::ClientSend { attempt } if attempt > 0 => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                     \"cat\":\"retry\",\"name\":\"client retry #{attempt}\"}}"
                ));
            }
            TraceEventKind::HedgeFire { attempt } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                     \"cat\":\"hedge\",\"name\":\"hedge_fire #{attempt}\"}}"
                ));
            }
            TraceEventKind::Enqueue { tier, replica } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                     \"cat\":\"queue\",\"name\":\"enqueue {}\"}}",
                    escape(&tier_label(tier_names, tier, replica))
                ));
            }
            TraceEventKind::AppRetry { tier } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                     \"cat\":\"retry\",\"name\":\"app retry {}\"}}",
                    escape(&tier_label(tier_names, tier, ReplicaId::FIRST))
                ));
            }
            TraceEventKind::AttemptTimeout { attempt } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                     \"cat\":\"timeout\",\"name\":\"attempt_timeout #{attempt}\"}}"
                ));
            }
            TraceEventKind::CancelReap { tier, replica } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                     \"cat\":\"cancel\",\"name\":\"cancel_reap {}\"}}",
                    escape(&tier_label(tier_names, tier, replica))
                ));
            }
            TraceEventKind::Shed { tier, replica } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
                     \"cat\":\"shed\",\"name\":\"shed {}\"}}",
                    escape(&tier_label(tier_names, tier, replica))
                ));
            }
            _ => {}
        }
    }
}

/// Renders the retained log as Chrome trace-event JSON.
pub fn chrome_trace_json(log: &TraceLog, tier_names: &[String]) -> String {
    let mut json = JsonEvents::new();
    json.push(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
         \"args\":{\"name\":\"ntier-trace\"}}"
            .to_string(),
    );
    for t in &log.traces {
        emit_trace(&mut json, t, tier_names);
    }
    json.finish()
}

/// Flat per-event CSV over the retained log. The `tier` column is the
/// [`site_label`] coordinate ("1", "1#2") or `-1` for client-side events,
/// so replica-0 rows match the pre-replica integer column exactly.
pub fn events_csv(log: &TraceLog) -> String {
    let mut out =
        String::from("trace_id,class,outcome,latency_us,sampled,at_us,kind,tier,ordinal\n");
    let site = |t: TierId, r: ReplicaId| site_label(t, r);
    let client = || "-1".to_string();
    for t in &log.traces {
        for ev in &t.events {
            let (kind, tier, ordinal) = match ev.kind {
                TraceEventKind::ClientSend { attempt } => ("client_send", client(), attempt as i64),
                TraceEventKind::HedgeFire { attempt } => ("hedge_fire", client(), attempt as i64),
                TraceEventKind::Enqueue { tier, replica } => ("enqueue", site(tier, replica), -1),
                TraceEventKind::ServiceStart {
                    tier,
                    replica,
                    visit,
                } => ("service_start", site(tier, replica), visit as i64),
                TraceEventKind::ServiceEnd {
                    tier,
                    replica,
                    visit,
                } => ("service_end", site(tier, replica), visit as i64),
                TraceEventKind::SynDrop {
                    tier,
                    replica,
                    retransmit_no,
                } => ("syn_drop", site(tier, replica), retransmit_no as i64),
                TraceEventKind::AppRetry { tier } => {
                    ("app_retry", site(tier, ReplicaId::FIRST), -1)
                }
                TraceEventKind::AttemptTimeout { attempt } => {
                    ("attempt_timeout", client(), attempt as i64)
                }
                TraceEventKind::CancelReap { tier, replica } => {
                    ("cancel_reap", site(tier, replica), -1)
                }
                TraceEventKind::Shed { tier, replica } => ("shed", site(tier, replica), -1),
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{kind},{tier},{ordinal}",
                t.id,
                t.class,
                t.outcome.as_str(),
                t.latency.as_micros(),
                t.sampled,
                ev.at.as_micros()
            );
        }
    }
    out
}

/// Per-step CSV over an analysis: one row per attributed 3 s step. Drop
/// and culprit sites carry a `#replica` suffix when they name a specific
/// replica of a replica set.
pub fn chains_csv(analysis: &Analysis, tiers: &[TierData]) -> String {
    let name = |i: usize, r: Option<ReplicaId>| {
        let base = tiers
            .get(i)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| format!("T{i}"));
        match r {
            Some(r) if r != ReplicaId::FIRST => format!("{base}#{r}"),
            _ => base,
        }
    };
    let mut out = String::from(
        "trace_id,class,outcome,latency_us,step,drop_tier,drop_at_us,window,\
         retransmit_no,stalled_us,culprit_kind,culprit_tier,culprit_window,culprit_score\n",
    );
    for chain in &analysis.chains {
        for (i, s) in chain.steps.iter().enumerate() {
            let (ck, ct, cw, cs) = match &s.culprit {
                Some(c) => (
                    c.kind.as_str().to_string(),
                    name(c.tier, c.replica),
                    c.window as i64,
                    c.score,
                ),
                None => ("none".to_string(), "-".to_string(), -1, 0.0),
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{i},{},{},{},{},{},{ck},{ct},{cw},{cs:.3}",
                chain.trace_id,
                chain.class,
                chain.outcome.as_str(),
                chain.latency.as_micros(),
                name(s.tier, Some(s.replica)),
                s.drop_at.as_micros(),
                s.window,
                s.retransmit_no,
                s.stalled_for.as_micros()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RequestTrace, TerminalClass, TraceEvent};
    use ntier_des::time::{SimDuration, SimTime};

    fn sample_log() -> TraceLog {
        sample_log_at(ReplicaId(0))
    }

    fn sample_log_at(replica: ReplicaId) -> TraceLog {
        let t = RequestTrace {
            id: 4,
            class: "browse",
            injected_at: SimTime::from_millis(100),
            terminal_at: SimTime::from_millis(3_160),
            outcome: TerminalClass::Completed,
            latency: SimDuration::from_millis(3_060),
            sampled: false,
            events: vec![
                TraceEvent {
                    at: SimTime::from_millis(100),
                    kind: TraceEventKind::ClientSend { attempt: 0 },
                },
                TraceEvent {
                    at: SimTime::from_millis(101),
                    kind: TraceEventKind::SynDrop {
                        tier: TierId(1),
                        replica,
                        retransmit_no: 0,
                    },
                },
                TraceEvent {
                    at: SimTime::from_millis(3_101),
                    kind: TraceEventKind::ServiceStart {
                        tier: TierId(1),
                        replica,
                        visit: 0,
                    },
                },
                TraceEvent {
                    at: SimTime::from_millis(3_150),
                    kind: TraceEventKind::ServiceEnd {
                        tier: TierId(1),
                        replica,
                        visit: 0,
                    },
                },
            ],
        };
        TraceLog {
            traces: vec![t],
            started: 1,
            promoted: 1,
            evicted: 0,
            unterminated: 0,
        }
    }

    fn names() -> Vec<String> {
        vec!["web".into(), "app".into(), "db".into()]
    }

    #[test]
    fn chrome_json_is_balanced_and_has_expected_records() {
        let json = chrome_trace_json(&sample_log(), &names());
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"request\""));
        assert!(json.contains("\"name\":\"app v0\""));
        assert!(json.contains("rto wait app #0"));
        assert!(json.contains("syn_drop app #0"));
        // The rto span runs from the drop to the next activity: 3 s.
        assert!(json.contains("\"ts\":101000,\"dur\":3000000"), "{json}");
    }

    #[test]
    fn chrome_json_qualifies_nonzero_replicas() {
        let json = chrome_trace_json(&sample_log_at(ReplicaId(2)), &names());
        assert!(json.contains("\"name\":\"app#2 v0\""), "{json}");
        assert!(json.contains("syn_drop app#2 #0"), "{json}");
    }

    #[test]
    fn events_csv_has_one_row_per_event() {
        let csv = events_csv(&sample_log());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 4);
        assert!(lines[0].starts_with("trace_id,"));
        assert!(lines[2].contains("syn_drop,1,0"), "{}", lines[2]);
    }

    #[test]
    fn events_csv_site_labels_nonzero_replicas() {
        let csv = events_csv(&sample_log_at(ReplicaId(1)));
        assert!(csv.contains("syn_drop,1#1,0"), "{csv}");
        assert!(csv.contains("service_start,1#1,0"), "{csv}");
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
