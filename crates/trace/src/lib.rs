//! Per-request causal tracing and automated CTQO root-cause analysis.
//!
//! The paper's core evidence is micro-level: timestamping every inter-tier
//! message to show that one specific VLRT request took 3/6/9 s because its
//! connection was dropped at one specific tier during one specific
//! millibottleneck window. This crate gives the reproduction that same
//! power as a first-class artifact:
//!
//! * [`Tracer`] — the DES engine's hot-path recorder: refcounted scratch
//!   buffers, post-hoc promotion (VLRT/failed/shed/cancelled always kept,
//!   fast requests probabilistically sampled), a bounded retained ring,
//!   and strict zero-allocation no-ops when disabled.
//! * [`RootCause`] — walks VLRT span trees, attributes each 3 s step to a
//!   concrete (tier, drop-window, retransmit-count), and joins utilization
//!   series to name the millibottleneck behind the overflow.
//! * [`export`] — Chrome trace-event JSON (loadable in Perfetto) and CSV.

pub mod analyzer;
pub mod event;
pub mod export;
pub mod tracer;

pub use analyzer::{
    Analysis, CausalChain, CausalStep, ControlAction, Culprit, CulpritKind, RootCause, TierData,
};
pub use event::{RequestTrace, TerminalClass, TraceEvent, TraceEventKind};
pub use export::{chains_csv, chrome_trace_json, events_csv};
pub use tracer::{TraceConfig, TraceHandle, TraceLog, Tracer, TRACE_NONE};
