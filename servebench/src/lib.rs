//! Served-path benchmark for SkyDiver.
//!
//! Drives the `skydiver serve` binary over TCP with one of four seeded
//! workloads, checks every answer against the in-process library, and
//! reports end-to-end metrics (tracing off) or per-layer metrics
//! (tracing on). See `README.md` in this directory for the workloads,
//! the metrics and why each exists.

pub mod inputs;
pub mod layers;
pub mod proc;
pub mod report;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;
