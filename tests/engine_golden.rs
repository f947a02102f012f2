//! Golden digests of the simulator's one engine: a few small configs,
//! each pinned by `RunMetrics::digest()`. Between them they drive every
//! path of the message loop's storage — GUID-store capacity eviction,
//! age expiry and churn resets, tables that every node or only a
//! handful of nodes remember, the relay's candidate check, the library
//! match — through floods, walks, rings and a learning policy under
//! lossy links, retries and crashes. A change to those structures that
//! is meant to be behaviour-neutral must leave every constant here as
//! it is.
//!
//! If a change is meant to move one (a model change), update the
//! constant with the value the failure message prints, after
//! confirming the change is the one you meant to make.

use arq::core::engine::{make_fault_plan, make_link_plan, make_policy, make_retry_policy};
use arq::gnutella::sim::{Network, SimConfig};
use arq::overlay::ChurnConfig;
use arq::simkern::time::Duration;

fn small(nodes: usize, queries: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default_with(nodes, queries, seed);
    cfg.catalog.topics = 8;
    cfg.catalog.files_per_topic = 60;
    cfg
}

fn digest(mut cfg: SimConfig, policy: &str) -> u64 {
    let built = make_policy(policy).expect("a registered policy");
    built.apply_to(&mut cfg);
    Network::new(cfg, built.policy).run().metrics.digest()
}

fn check(name: &str, cfg: SimConfig, policy: &str, want: u64) {
    let got = digest(cfg, policy);
    assert_eq!(
        got, want,
        "{name}: digest moved: measured {got:#018x}, expected {want:#018x}"
    );
}

/// Every delivered flood reaches most of the network, so its GUID's
/// table holds nearly every node.
#[test]
fn flood() {
    check("flood", small(300, 120, 11), "flood", 0x9814_93cb_4e75_bbfc);
}

/// A flood under a small cache, an expiry and churn: tables that hold
/// most of the network empty again through all three.
#[test]
fn flood_forgetting() {
    let mut cfg = small(300, 120, 12);
    cfg.mean_query_interval = Duration::from_ticks(50);
    cfg.guid_cache = 5;
    cfg.guid_expiry = Some(Duration::from_ticks(250));
    cfg.churn = Some(ChurnConfig {
        mean_session: Duration::from_ticks(6_000),
        mean_downtime: Duration::from_ticks(2_000),
        pinned: vec![],
    });
    check("flood_forgetting", cfg, "flood", 0x0ccd_beb1_e4e4_d365);
}

/// Walkers under a cache of 8, an expiry and session churn: every
/// node's GUID memory is evicted, expired and reset all through the
/// run.
#[test]
fn k_walk_forgetting() {
    let mut cfg = small(400, 300, 13);
    cfg.mean_query_interval = Duration::from_ticks(100);
    cfg.guid_cache = 8;
    cfg.guid_expiry = Some(Duration::from_ticks(700));
    cfg.churn = Some(ChurnConfig {
        mean_session: Duration::from_ticks(20_000),
        mean_downtime: Duration::from_ticks(8_000),
        pinned: vec![],
    });
    check(
        "k_walk_forgetting",
        cfg,
        "k-walk(k=4,ttl=24)",
        0xa340_1c36_b811_8ffc,
    );
}

/// The learning policy under lossy bounded links, retries and crashes.
#[test]
fn assoc_impaired() {
    let mut cfg = small(300, 300, 14);
    cfg.links =
        Some(make_link_plan("links(up=8,down=32,upbuf=2048,downbuf=8192,loss=0.05)").unwrap());
    cfg.retry = Some(make_retry_policy("retry(deadline=2000,attempts=3,maxttl=8)").unwrap());
    cfg.faults = Some(make_fault_plan("faults(crash=0.05)").unwrap());
    check("assoc_impaired", cfg, "assoc(k=2)", 0x1783_0ac5_2e08_061d);
}

/// The ring reissues under fresh GUIDs at growing TTLs.
#[test]
fn expanding_ring() {
    check(
        "expanding_ring",
        small(300, 150, 15),
        "expanding-ring",
        0x58c5_b76f_f5c9_31d9,
    );
}

/// The learning policy's failure adaptation under crashes and retries:
/// timeouts demote the rules that blamed a dead consequent, and a
/// window of misses discards a node's rules. The run's policy string is
/// overwritten with a fixed one, so the constant does not depend on how
/// the spec is spelt.
#[test]
fn assoc_demote_and_failure_window() {
    let mut cfg = small(400, 400, 16);
    cfg.ttl = 4;
    cfg.catalog.topics = 20;
    cfg.catalog.files_per_topic = 40;
    cfg.retry = Some(make_retry_policy("retry(deadline=2000,attempts=3,maxttl=8)").unwrap());
    cfg.faults = Some(make_fault_plan("faults(crash=0.05)").unwrap());
    let built = make_policy("assoc(k=2,demote=0.5,fw=20)").unwrap();
    built.apply_to(&mut cfg);
    let mut metrics = Network::new(cfg, built.policy).run().metrics;
    metrics.policy = "assoc-demote".to_string();
    let got = metrics.digest();
    assert_eq!(
        got, 0x3b3f_ade6_1f80_24f7,
        "digest moved: measured {got:#018x}"
    );
}
