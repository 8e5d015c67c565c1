//! # ntier-core — CTQO in n-tier systems: RPC vs. asynchronous invocations
//!
//! A deterministic simulation framework reproducing *"A Study of Long-Tail
//! Latency in n-Tier Systems: RPC vs. Asynchronous Invocations"*
//! (ICDCS 2017). The paper's phenomenon — **Cross-Tier Queue Overflow
//! (CTQO)** — arises when a sub-second *millibottleneck* in one tier of a
//! synchronous RPC chain fills queues across tiers until some tier's
//! `MaxSysQDepth` (thread pool + TCP backlog) overflows, packets drop, and
//! TCP retransmission turns millisecond requests into 3/6/9-second ones.
//!
//! The crate provides:
//!
//! * [`config`] — tier/system configuration (sync vs. async architecture,
//!   pools, backlogs, `LiteQDepth`, replica sets);
//! * [`topology`] — the typed call-graph builder: replicated tiers behind
//!   pluggable load balancers and scatter-gather fan-out with quorums;
//! * [`engine`] — the event-driven simulator of the call graph;
//! * [`presets`] — the paper's server configurations (Apache, Tomcat,
//!   MySQL, Nginx, XTomcat, XMySQL) and the NX=0..3 ladder;
//! * [`experiment`] — ready-made experiment specs for every figure;
//! * [`analysis`] — the CTQO detector (upstream vs. downstream episodes);
//! * [`conditions`] — the paper's §III static/dynamic condition checkers;
//! * [`report`] — run reports with all figure series;
//! * [`servlet`] — the Fig. 14 sync → event-driven servlet transformation
//!   as a miniature executable API.
//!
//! # Quickstart
//!
//! ```
//! use ntier_core::engine::{Engine, Workload};
//! use ntier_core::presets;
//! use ntier_des::prelude::*;
//! use ntier_workload::{ClosedLoopSpec, RequestMix};
//!
//! // The fully synchronous baseline under a small closed-loop workload.
//! let report = Engine::new(
//!     presets::sync_three_tier(),
//!     Workload::closed(ClosedLoopSpec::rubbos(100), RequestMix::rubbos_browse()),
//!     SimDuration::from_secs(10),
//!     7,
//! )
//! .run();
//! assert!(report.is_conserved());
//! ```

pub mod analysis;
pub mod arrivals;
pub mod conditions;
pub mod config;
pub mod csv;
pub mod engine;
pub mod experiment;
#[cfg(test)]
mod laws;
pub mod plan;
pub mod presets;
pub mod report;
pub mod servlet;
pub mod topology;

pub use analysis::{CtqoClass, CtqoEpisode};
pub use arrivals::{MixPlans, PlanStamped, SourcedRequest, TraceDemandModel, TracePlans};
pub use config::{SystemConfig, TierKind, TierSpec};
pub use engine::{Engine, Workload, WorkloadError, WorkloadSource};
pub use experiment::ExperimentSpec;
pub use plan::Plan;
pub use report::{EventCounts, ReplicaReport, RunReport, TierReport};
pub use topology::{Balancer, Branch, Topology, TopologyBuilder, TopologyError, TopologyShape};
