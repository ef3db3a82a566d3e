//! The mmdb benchmark: three UniBench-derived workloads driven through
//! the public facade (`Database`, `Session`, `Client`, MMQL text), with
//! output checks against the polyglot baseline and a traced run that
//! times each layer. `main.rs` is the command line; `report` turns a run
//! into the metrics it prints.

pub mod data;
pub mod layers;
pub mod ops;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
