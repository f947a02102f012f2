//! # arq-bench — experiment harness
//!
//! Shared scaffolding for the `experiments` binary, which regenerates
//! every table and figure of the paper — see `EXPERIMENTS.md`.
//!
//! The library half provides:
//!
//! * [`experiments`] — one function per experiment id (E1–E15), each
//!   returning a structured [`experiments::ExperimentReport`];
//! * [`report`] — Markdown/ASCII rendering of reports and the JSON
//!   persistence used by `results/`.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
