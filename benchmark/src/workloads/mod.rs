//! The six workloads. Each is a time-boxed loop of set-up → one
//! measured call into `arq` → output check, plus a per-layer pass that
//! repeats the loop under the tracer and runs its family's probes.

pub mod serve;
pub mod sim;
pub mod trace_sweep;

use crate::harness::{Ctx, Layers, Loop};
use crate::metrics::Family;

pub trait Workload {
    fn name(&self) -> &'static str;
    fn family(&self) -> Family;
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    fn why(&self) -> &'static str;
    /// The time-boxed loop. Spans are recorded when `ctx.tracer` is
    /// enabled; the sim workloads then also wrap the policy in `Timed`.
    fn run(&self, ctx: &mut Ctx, seconds: f64) -> Loop;
    /// The per-layer pass: every metric of this workload's family.
    fn layers(&self, ctx: &mut Ctx, seconds: f64) -> Layers;
}

pub fn all() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(trace_sweep::TraceSweep),
        Box::new(sim::FLOOD),
        Box::new(sim::SCALE),
        Box::new(sim::LINKS),
        Box::new(serve::INGEST),
        Box::new(serve::ROUTE),
    ]
}

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all().into_iter().find(|w| w.name() == name)
}
