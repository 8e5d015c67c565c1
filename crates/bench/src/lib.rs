//! Holder crate for the `engine_events` throughput bench under `benches/`.
//! The library itself is empty; the experiments live in
//! `ntier_core::experiment`.
