//! # ipt-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7) via
//! the `repro` binary. The experiment-to-artefact mapping is DESIGN.md §4;
//! measured-vs-paper numbers are archived in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod check;
pub mod common;
pub mod experiments;
pub mod workloads;
