//! Umbrella crate for the ICDCS 2017 CTQO reproduction.
//!
//! Re-exports the workspace crates so examples and integration tests can use
//! one import root. Library users should normally depend on [`ntier_core`]
//! directly.

pub use ntier_core as core;
pub use ntier_core::{control, interference, net, resilience, server};
pub use ntier_des as des;
pub use ntier_live as live;
pub use ntier_runner as runner;
pub use ntier_telemetry as telemetry;
pub use ntier_trace as trace;
pub use ntier_workload as workload;
