//! The repository's end-to-end benchmark: workloads, the `Endpoint`
//! wrapper that records per-layer spans, and the result line.
//!
//! The binary (`src/main.rs`) is the entry point; the library exists so
//! the benchmark's own tests can drive the same harness.

pub mod bench;
pub mod codec;
pub mod mux;
pub mod report;
pub mod sim;
pub mod sys;
pub mod tap;
pub mod udp;
