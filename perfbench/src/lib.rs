//! The AAPM end-to-end benchmark: three workloads driven through the
//! simulator's public APIs, end-to-end metrics with tracing off, and
//! per-layer metrics from timing decorators and fixed-input layer
//! timings (see README.md).

pub mod checks;
pub mod hist;
pub mod layers;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
