// Property tests require the external `proptest` crate; the feature is
// default-off so offline builds skip this file entirely.
#![cfg(feature = "proptest")]

//! Property-based tests for the protocol simulator.

use arq_content::{CatalogConfig, FileId, QueryKey, Topic};
use arq_gnutella::guid::GuidGen;
use arq_gnutella::sim::{Network, RetryPolicy, SimConfig};
use arq_gnutella::{FaultPlan, FloodPolicy, QueryMsg};
use arq_overlay::NodeId;
use arq_simkern::time::Duration;
use arq_simkern::Rng64;
use arq_trace::record::Guid;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A query relays exactly `ttl − 1` times before dying, whatever the
    /// starting TTL.
    #[test]
    fn ttl_bounds_hop_chain(ttl in 0u32..50) {
        let mut msg = QueryMsg {
            guid: Guid(1),
            key: QueryKey { file: FileId(0), topic: Topic(0) },
            ttl,
            hops: 0,
        };
        let mut hops = 0;
        while let Some(next) = msg.hop() {
            msg = next;
            hops += 1;
            prop_assert!(hops < 100, "runaway relay chain");
        }
        prop_assert_eq!(hops, ttl.saturating_sub(1));
        prop_assert_eq!(msg.hops, ttl.saturating_sub(1));
    }

    /// Faulty GUID generators only ever emit GUIDs from their pool.
    #[test]
    fn faulty_guids_cycle_their_pool(seed in any::<u64>(), pool in 1usize..8, draws in 1usize..50) {
        let mut rng = Rng64::seed_from(seed);
        let mut gen = GuidGen::faulty(pool, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..draws {
            seen.insert(gen.next(&mut rng));
        }
        prop_assert!(seen.len() <= pool);
        prop_assert!(seen.len() <= draws);
    }

    /// The retry lifecycle never exceeds its attempt budget and every
    /// attempt draws a fresh GUID (with proper generators).
    #[test]
    fn retry_bounds_attempts_and_redraws_guids(
        seed in any::<u64>(),
        max_attempts in 1u32..5,
        loss_milli in 0u32..700,
        deadline in 500u64..5_000,
    ) {
        let queries = 60usize;
        let mut cfg = SimConfig::default_with(30, queries, seed);
        cfg.faulty_fraction = 0.0; // proper generators: GUIDs never repeat
        cfg.catalog = CatalogConfig {
            topics: 4,
            files_per_topic: 30,
            ..Default::default()
        };
        cfg.faults = Some(FaultPlan { loss: f64::from(loss_milli) / 1000.0, ..Default::default() });
        cfg.retry = Some(RetryPolicy {
            deadline: Duration::from_ticks(deadline),
            max_attempts,
            backoff: 2.0,
            ttl_step: 1,
            max_ttl: 8,
        });
        let result = Network::new(cfg, FloodPolicy).run();
        prop_assert!(result.total_attempts <= (queries as u64) * u64::from(max_attempts));
        prop_assert!(result.metrics.retried <= (queries as u64) * u64::from(max_attempts - 1));
        prop_assert_eq!(result.distinct_query_guids as u64, result.total_attempts);
    }

    /// Collector output always survives the clean/join pipeline with
    /// src/via fields inside the node id space.
    #[test]
    fn collector_records_are_wellformed(seed in any::<u64>()) {
        let mut cfg = SimConfig::default_with(40, 300, seed);
        cfg.collector = Some(NodeId(0));
        cfg.catalog = CatalogConfig {
            topics: 4,
            files_per_topic: 30,
            ..Default::default()
        };
        let result = Network::new(cfg, FloodPolicy).run();
        let mut db = result.trace.unwrap();
        let (_, pairs) = db.clean_and_join();
        for p in &pairs {
            prop_assert!(p.src.0 < 40);
            prop_assert!(p.via.0 < 40);
            prop_assert!(p.responder.0 < 40);
        }
    }
}

proptest! {
    /// Ping crawls discover exactly the TTL-ball (minus the origin), in
    /// nearest-first order, on arbitrary graphs.
    #[test]
    fn ping_crawl_equals_bfs_ball(
        n in 2usize..30,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120),
        ttl in 0u32..6,
        origin in any::<u32>(),
    ) {
        let mut g = arq_overlay::Graph::new(n);
        for (a, b) in edges {
            let a = arq_overlay::NodeId(a % n as u32);
            let b = arq_overlay::NodeId(b % n as u32);
            if a != b {
                g.add_edge(a, b);
            }
        }
        let origin = arq_overlay::NodeId(origin % n as u32);
        let crawl = arq_gnutella::ping_crawl(&g, origin, ttl);
        let mut expected = arq_overlay::algo::reachable_within(&g, origin, ttl);
        let mut found = crawl.peers.clone();
        expected.sort_unstable();
        found.sort_unstable();
        prop_assert_eq!(found, expected);
        // Nearest-first ordering.
        let dist = arq_overlay::algo::bfs_distances(&g, origin);
        let ds: Vec<u32> = crawl.peers.iter().map(|p| dist[p.index()]).collect();
        prop_assert!(ds.windows(2).all(|w| w[0] <= w[1]), "not nearest-first: {ds:?}");
    }
}
