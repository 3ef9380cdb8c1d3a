//! The rflash benchmark.
//!
//! Three workloads run through the public `Simulation` / `run_fleet` API,
//! configured as `rflash run-setup --full` configures a run. An untraced
//! run gives the end-to-end metrics; a traced run replays the same steps
//! one layer call at a time ([`trace::Replay`]) and gives the per-layer
//! metrics. See `README.md` beside this crate.

mod header;
pub mod run;
mod stats;
pub mod trace;
pub mod workload;
