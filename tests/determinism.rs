//! Whole-system determinism: identical seeds must reproduce identical
//! traces, evaluations, and simulations; different seeds must not.

use arq::core::engine::make_strategy;
use arq::core::evaluate;
use arq::gnutella::sim::{Network, SimConfig};
use arq::gnutella::FloodPolicy;
use arq::trace::{SynthConfig, SynthTrace};

#[test]
fn synthetic_traces_are_reproducible() {
    let a = SynthTrace::new(SynthConfig::paper_default(50_000, 12345)).pairs();
    let b = SynthTrace::new(SynthConfig::paper_default(50_000, 12345)).pairs();
    assert_eq!(a, b);
    let c = SynthTrace::new(SynthConfig::paper_default(50_000, 54321)).pairs();
    assert_ne!(a, c);
}

#[test]
fn raw_traces_are_reproducible() {
    let (q1, r1) = SynthTrace::new(SynthConfig::paper_default(5_000, 9)).raw();
    let (q2, r2) = SynthTrace::new(SynthConfig::paper_default(5_000, 9)).raw();
    assert_eq!(q1, q2);
    assert_eq!(r1, r2);
}

#[test]
fn evaluations_are_reproducible() {
    let pairs = SynthTrace::new(SynthConfig::paper_default(60_000, 3)).pairs();
    let eval = |spec| evaluate(make_strategy(spec).unwrap().as_mut(), &pairs, 10_000);
    let (a, b) = (eval("sliding(s=10)"), eval("sliding(s=10)"));
    assert_eq!(a.coverage.ys(), b.coverage.ys());
    assert_eq!(a.success.ys(), b.success.ys());
    let c = eval("adaptive(s=10,h=10,i=0.7)");
    let d = eval("adaptive(s=10,h=10,i=0.7)");
    assert_eq!(c.regenerations, d.regenerations);
    assert_eq!(c.coverage.ys(), d.coverage.ys());
}

#[test]
fn simulations_are_reproducible() {
    let cfg = SimConfig::default_with(80, 500, 77);
    let a = Network::new(cfg.clone(), FloodPolicy).run();
    let b = Network::new(cfg.clone(), FloodPolicy).run();
    assert_eq!(a.metrics.query_messages, b.metrics.query_messages);
    assert_eq!(a.metrics.hit_messages, b.metrics.hit_messages);
    assert_eq!(a.metrics.answered, b.metrics.answered);
    assert_eq!(a.end_time, b.end_time);

    let mut other = cfg;
    other.seed = 78;
    let c = Network::new(other, FloodPolicy).run();
    assert_ne!(a.metrics.query_messages, c.metrics.query_messages);
}

#[test]
fn collector_traces_are_reproducible() {
    let mut cfg = SimConfig::default_with(80, 800, 13);
    cfg.collector = Some(arq::overlay::NodeId(0));
    let mut ta = Network::new(cfg.clone(), FloodPolicy).run().trace.unwrap();
    let mut tb = Network::new(cfg, FloodPolicy).run().trace.unwrap();
    let (ra, pa) = ta.clean_and_join();
    let (rb, pb) = tb.clean_and_join();
    assert_eq!(ra, rb);
    assert_eq!(pa, pb);
}
