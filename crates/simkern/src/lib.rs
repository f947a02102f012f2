//! # arq-simkern — discrete-event simulation kernel
//!
//! Foundation crate for the `arq` workspace. It provides the pieces every
//! simulator and every experiment in the workspace builds on:
//!
//! * [`time::SimTime`] — a monotone simulated clock value;
//! * [`queue::EventQueue`] — a calendar/bucket event queue with
//!   **deterministic tie-breaking** (events scheduled at the same instant
//!   fire in insertion order), which is what makes whole-simulation runs
//!   reproducible, holding memory in proportion to the events pending
//!   (drained bucket buffers are pooled and reused); the original
//!   binary-heap implementation survives as [`queue::HeapQueue`], the
//!   reference the calendar queue's seeded differential tests compare
//!   against;
//! * [`rng`] — self-contained SplitMix64 / Xoshiro256** generators with
//!   inherent draw methods (no external RNG crate), plus a
//!   [`rng::StreamFactory`] that derives independent, stable sub-streams
//!   from one master seed;
//! * [`stats`] — streaming statistics (Welford mean/variance, histograms,
//!   exact quantiles);
//! * [`series`] — time-series containers used for per-trial coverage and
//!   success measurements;
//! * [`timer`] — deterministic exponential [`timer::Backoff`] schedules
//!   for retry/timeout lifecycles;
//! * [`chart`] — ASCII line charts used to render the paper's figures into
//!   `EXPERIMENTS.md`;
//! * [`rows`] — many short variable-length rows (a node's neighbors, a
//!   node's files) in one arena, so a large network is built and freed
//!   in a handful of allocations;
//! * [`hash`] — one seeded integer hasher ([`hash::IntMap`]) for the
//!   maps keyed by host ids, host pairs and GUIDs;
//! * [`json`] — dependency-free JSON values and serialization with
//!   insertion-ordered objects, so experiment artifacts are byte-stable;
//! * [`fsio`] — crash-safe artifact output (write-temp, fsync, rename),
//!   so an interrupted run can never leave a truncated file.
//!
//! The kernel deliberately does not prescribe an event *type*: each
//! simulator (e.g. `arq-gnutella`) defines its own event enum and drains an
//! `EventQueue<E>` in its own loop. This keeps the hot loop monomorphic and
//! allocation-free.

#![warn(missing_docs)]

pub mod chart;
pub mod fsio;
pub mod hash;
pub mod json;
pub mod queue;
pub mod rng;
pub mod rows;
pub mod series;
pub mod stats;
pub mod time;
pub mod timer;

pub use fsio::{write_atomic, write_atomic_str, Journal};
pub use json::{Json, ToJson};
pub use queue::{EventQueue, HeapQueue, SchedulePastError};
pub use rng::{Rng64, SplitMix64, StreamFactory};
pub use rows::Rows;
pub use series::TimeSeries;
pub use stats::{Histogram, Summary, Welford};
pub use time::SimTime;
pub use timer::Backoff;
