//! End-to-end, layer-by-layer benchmark of the pre-implemented flow:
//! descriptor in -> legal routed design out, in five regimes (see
//! `README.md`). Everything is measured from outside, by timing calls
//! into the crates' public functions.

pub mod metrics;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod serve_mix;
pub mod trace;
pub mod workloads;
pub mod zoo;
