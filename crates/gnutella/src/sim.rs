//! The network simulator.
//!
//! A single-threaded, deterministic discrete-event simulation. One run
//! wires together:
//!
//! * a topology from `arq-overlay` (plus optional churn);
//! * a content catalog and per-node workload from `arq-content`;
//! * the protocol mechanics of this crate (GUID dedup, TTL, reverse-path
//!   hits);
//! * a [`ForwardingPolicy`] making every relay decision;
//! * optionally an expanding-ring reissue schedule at the querier;
//! * optionally a [`Collector`] recording the paper's trace at one node.
//!
//! Determinism: all randomness flows from labelled
//! [`arq_simkern::StreamFactory`] streams, events tie-break by insertion
//! order, and policies receive their own RNG stream — two runs with the
//! same [`SimConfig`] produce byte-identical results.

use crate::collector::Collector;
use crate::faults::{FaultPlan, FaultState};
use crate::guid::GuidGens;
use crate::message::{HitMsg, QueryMsg};
use crate::metrics::{MetricsBuilder, QueryOutcome, RunMetrics};
use crate::net::{LinkPlan, LinkState, Transmission};
use crate::node::Upstream;
use crate::policy::{ForwardCtx, ForwardingPolicy, ShortcutProposal};
use crate::store::GuidStore;
use arq_content::{Catalog, CatalogConfig, FileId, Library, QueryKey, WorkloadConfig, WorkloadGen};
use arq_obs::{DropKind, Event as ObsEvent, Obs, ObsReport};
use arq_overlay::churn::{rewire_join, ChurnKind};
use arq_overlay::{generate, ChurnConfig, ChurnProcess, Graph, NodeId};
use arq_simkern::time::Duration;
use arq_simkern::{Backoff, EventQueue, Rng64, SimTime, StreamFactory};
use arq_trace::record::Guid;
use arq_trace::TraceDb;
use std::collections::HashMap;

/// Which random topology to build.
#[derive(Debug, Clone)]
pub enum Topology {
    /// Barabási–Albert preferential attachment with `m` edges per node.
    BarabasiAlbert {
        /// Edges added per joining node.
        m: usize,
    },
    /// Erdős–Rényi with edge probability `p`.
    ErdosRenyi {
        /// Edge probability.
        p: f64,
    },
    /// Watts–Strogatz ring lattice (`k` per side) with rewiring `beta`.
    WattsStrogatz {
        /// Lattice half-degree.
        k: usize,
        /// Rewiring probability.
        beta: f64,
    },
    /// Two-tier superpeer topology: ids `0..n_super` form the core.
    SuperPeer {
        /// Core size.
        n_super: usize,
        /// Core interconnection degree.
        super_degree: usize,
    },
}

/// Expanding-ring reissue schedule (Lv et al., baseline).
#[derive(Debug, Clone)]
pub struct RingSchedule {
    /// Successive TTLs to try.
    pub ttls: Vec<u32>,
    /// How long to wait for a hit before escalating.
    pub wait: Duration,
}

/// Timeout-driven retry schedule for individual queries.
///
/// Every issued query gets a deadline. If no hit arrives in time the
/// issuer reissues under a **fresh GUID** with an escalated TTL
/// (expanding-ring style) and waits again, successive waits growing
/// geometrically per [`Backoff`]. A query that exhausts `max_attempts`
/// without a hit is marked expired. On every timeout — including the
/// final, expiring one — the forwarding policy receives
/// [`ForwardingPolicy::on_failure`] feedback for the failed attempt's
/// first-hop targets, which is how learning policies notice dead rules.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Wait before the first deadline fires.
    pub deadline: Duration,
    /// Total attempts allowed (initial issue + retries), at least 1.
    pub max_attempts: u32,
    /// Geometric growth factor for successive waits (>= 1.0).
    pub backoff: f64,
    /// TTL added per retry (attempt `k` uses `ttl + ttl_step * k`).
    pub ttl_step: u32,
    /// TTL ceiling for the escalation.
    pub max_ttl: u32,
}

impl RetryPolicy {
    /// A moderate default: 3 attempts, doubling waits, +1 TTL per retry.
    pub fn default_with(deadline: Duration, max_ttl: u32) -> Self {
        RetryPolicy {
            deadline,
            max_attempts: 3,
            backoff: 2.0,
            ttl_step: 1,
            max_ttl,
        }
    }
}

/// A parameter of an [`AdaptPlan`] is out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptPlanError {
    /// A field that must be positive was zero.
    ZeroField {
        /// Which field.
        field: &'static str,
    },
}

impl std::fmt::Display for AdaptPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptPlanError::ZeroField { field } => {
                write!(f, "adapt plan field `{field}` must be positive")
            }
        }
    }
}

impl std::error::Error for AdaptPlanError {}

/// Live topology adaptation on a tumbling schedule.
///
/// Every `every` ticks the simulator runs one adaptation round:
///
/// 1. **Retire** applied shortcuts whose source rule decayed out of the
///    policy ([`ForwardingPolicy::shortcut_active`] turned false) or
///    whose edge vanished because an endpoint left the overlay.
/// 2. **Apply** the proposals collected at the *previous* boundary,
///    re-validating endpoint liveness first — a proposal whose endpoint
///    crashed between the propose and apply boundaries is rejected and
///    counted, never applied. At most `budget` shortcuts are applied per
///    round, and no node may own more than `degree` shortcut edges.
/// 3. **Collect** fresh proposals via
///    [`ForwardingPolicy::propose_shortcuts`] for the next boundary.
///
/// Rounds consume no randomness, so a plan over a policy that proposes
/// nothing (plain flooding) is byte-identical to no plan at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptPlan {
    /// Interval between adaptation rounds (the tumbling boundary).
    pub every: Duration,
    /// Max shortcuts applied per round, network-wide.
    pub budget: usize,
    /// Max shortcut edges any single node may own (as asker).
    pub degree: usize,
}

impl AdaptPlan {
    /// A moderate default: rounds every `every`, 8 shortcuts per round,
    /// at most 2 owned per node.
    pub fn default_with(every: Duration) -> Self {
        AdaptPlan {
            every,
            budget: 8,
            degree: 2,
        }
    }

    /// Checks every field is positive.
    pub fn validate(&self) -> Result<(), AdaptPlanError> {
        if self.every.ticks() == 0 {
            return Err(AdaptPlanError::ZeroField { field: "every" });
        }
        if self.budget == 0 {
            return Err(AdaptPlanError::ZeroField { field: "budget" });
        }
        if self.degree == 0 {
            return Err(AdaptPlanError::ZeroField { field: "degree" });
        }
        Ok(())
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Topology generator.
    pub topology: Topology,
    /// Query TTL (ignored when `ring` is set).
    pub ttl: u32,
    /// Number of queries to issue.
    pub queries: usize,
    /// Mean inter-query interval (global Poisson process), in ticks.
    pub mean_query_interval: Duration,
    /// Per-hop latency range `[lo, hi)` in ticks.
    pub hop_latency: (u64, u64),
    /// Churn model; `None` freezes the topology.
    pub churn: Option<ChurnConfig>,
    /// Edges re-established when a node rejoins.
    pub rejoin_degree: usize,
    /// When set, rejoining nodes discover attachment points with a
    /// ping crawl of this TTL from a random live bootstrap peer (instead
    /// of wiring to uniform random peers), biasing reconnection toward
    /// one neighborhood as real bootstrap caches do.
    pub rejoin_via_ping: Option<u32>,
    /// Per-node GUID cache capacity.
    pub guid_cache: usize,
    /// Fraction of nodes with faulty GUID generators.
    pub faulty_fraction: f64,
    /// Node to instrument with a trace collector.
    pub collector: Option<NodeId>,
    /// Content catalog shape.
    pub catalog: CatalogConfig,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Expanding-ring schedule; `None` means single-shot queries.
    /// Mutually exclusive with `retry`.
    pub ring: Option<RingSchedule>,
    /// Fault-injection plan (crashes, silent free-riders, and `loss` /
    /// `jitter` as sugar for the link plan's); `None` — or a plan with
    /// every rate zero — injects nothing.
    pub faults: Option<FaultPlan>,
    /// Per-query deadline/retry lifecycle; `None` means queries are
    /// fire-and-forget. Mutually exclusive with `ring`.
    pub retry: Option<RetryPolicy>,
    /// Byte-accurate link layer (bandwidth, bounded buffers, loss,
    /// jitter) — the only process that loses or delays a message;
    /// `None` — or an all-zero plan — models infinite-capacity links
    /// and is byte-identical to the pre-link simulator.
    pub links: Option<LinkPlan>,
    /// Age limit for seen-GUID table entries; `None` keeps entries until
    /// LRU capacity eviction.
    pub guid_expiry: Option<Duration>,
    /// Live topology adaptation on a tumbling schedule; `None` keeps the
    /// overlay as churn leaves it. A plan over a policy that proposes no
    /// shortcuts is byte-identical to no plan.
    pub adapt: Option<AdaptPlan>,
    /// When `true`, an issuer downloads the file after its first hit,
    /// adding it to its own library — the replication feedback loop that
    /// spreads popular content through real file-sharing networks.
    pub download_on_hit: bool,
    /// Master seed.
    pub seed: u64,
}

impl SimConfig {
    /// A small-but-realistic default: 500-node power-law overlay, TTL 5.
    pub fn default_with(nodes: usize, queries: usize, seed: u64) -> Self {
        SimConfig {
            nodes,
            topology: Topology::BarabasiAlbert { m: 3 },
            ttl: 5,
            queries,
            mean_query_interval: Duration::from_ticks(2_000),
            hop_latency: (20, 80),
            churn: None,
            rejoin_degree: 3,
            rejoin_via_ping: None,
            guid_cache: 4_096,
            faulty_fraction: 0.02,
            collector: None,
            catalog: CatalogConfig::default(),
            workload: WorkloadConfig::default(),
            ring: None,
            faults: None,
            retry: None,
            links: None,
            guid_expiry: None,
            adapt: None,
            download_on_hit: false,
            seed,
        }
    }
}

enum Event {
    Issue {
        qidx: usize,
    },
    Query {
        to: NodeId,
        from: NodeId,
        msg: QueryMsg,
        /// Index of the query this message is accounted to (resolved
        /// once at issue time from the GUID, so deliveries never touch
        /// a GUID→query map).
        qidx: usize,
    },
    Hit {
        to: NodeId,
        from: NodeId,
        msg: HitMsg,
        qidx: usize,
    },
    RingTimeout {
        qidx: usize,
        stage: usize,
    },
    QueryDeadline {
        qidx: usize,
        attempt: u32,
    },
    Crash {
        node: NodeId,
    },
}

/// Everything a finished run yields.
#[derive(Debug)]
pub struct SimResult {
    /// Aggregated traffic/search metrics.
    pub metrics: RunMetrics,
    /// The collector's raw trace, when a collector was configured.
    pub trace: Option<TraceDb>,
    /// Final simulated time.
    pub end_time: SimTime,
    /// Distinct query GUIDs observed across all attempts (with proper
    /// generators this equals `total_attempts`: every retry re-draws).
    pub distinct_query_guids: usize,
    /// Query attempts issued across all queries (initial + reissues).
    pub total_attempts: u64,
    /// Structured event trace and metrics, when an enabled [`Obs`] was
    /// attached via [`Network::with_obs`]. `None` otherwise.
    pub obs: Option<ObsReport>,
    /// Link-layer byte ledger `(sent, delivered, lost, buffer_dropped)`
    /// of any run that impaired messages — through a link plan or a
    /// fault plan's `loss`/`jitter`. A drained run conserves bytes:
    /// `sent == delivered + lost + buffer_dropped`.
    pub link_bytes: Option<(u64, u64, u64, u64)>,
}

struct LiveQuery {
    node: NodeId,
    key: QueryKey,
    issued_at: SimTime,
    outcome: QueryOutcome,
    /// First-hop targets of the most recent attempt — the neighbors the
    /// issuer's policy picked; they receive failure feedback on timeout.
    first_hop: Vec<NodeId>,
    /// Responders whose hits already reached the issuer (duplicate
    /// suppression across retries).
    responders: Vec<NodeId>,
}

/// Book-keeping of an active [`AdaptPlan`]: the two-phase
/// propose-then-apply pipeline plus the set of shortcuts currently
/// applied to the overlay.
struct AdaptState {
    plan: AdaptPlan,
    /// Boundary time of the next adaptation round.
    next_round: SimTime,
    /// Proposals collected at the previous boundary, awaiting liveness
    /// re-validation and application at the next.
    pending: Vec<ShortcutProposal>,
    /// Shortcuts applied to the overlay and not yet retired.
    applied: Vec<ShortcutProposal>,
    /// Shortcut edges currently owned per node (asker side), bounded by
    /// `plan.degree`.
    degree: Vec<u32>,
}

impl AdaptState {
    fn new(plan: AdaptPlan, nodes: usize) -> Self {
        AdaptState {
            next_round: SimTime::ZERO.saturating_add(plan.every),
            pending: Vec::new(),
            applied: Vec::new(),
            degree: vec![0; nodes],
            plan,
        }
    }
}

/// How many *online* nodes share each file. Answers "can anyone but
/// the issuer serve this query" from one counter instead of probing
/// every library: shifted by a node's own library when its liveness
/// flips, bumped when a download adds a replica at a live node.
struct LiveHolders(Vec<u32>);

impl LiveHolders {
    fn build(graph: &Graph, workload: &WorkloadGen, files: usize) -> Self {
        let mut holders = LiveHolders(vec![0; files]);
        for node in graph.live_nodes() {
            holders.came_online(workload.library(node.index()));
        }
        holders
    }

    fn came_online(&mut self, library: Library<'_>) {
        for f in library.iter() {
            self.0[f.0 as usize] += 1;
        }
    }

    fn went_offline(&mut self, library: Library<'_>) {
        for f in library.iter() {
            self.0[f.0 as usize] -= 1;
        }
    }

    fn gained_replica(&mut self, f: FileId) {
        self.0[f.0 as usize] += 1;
    }

    fn of(&self, f: FileId) -> u32 {
        self.0[f.0 as usize]
    }
}

/// One simulation instance. Build with [`Network::new`], consume with
/// [`Network::run`].
pub struct Network<P: ForwardingPolicy> {
    cfg: SimConfig,
    graph: Graph,
    catalog: Catalog,
    workload: WorkloadGen,
    /// Kept in step with `graph` liveness and `workload` libraries by
    /// [`Network::depart`], [`Network::rejoin`] and `deliver_hit`.
    live_holders: LiveHolders,
    policy: P,
    /// Network-wide GUID dedup + reverse-path memory, GUID-major: one
    /// table per GUID, per-node FIFOs in one arena (see [`GuidStore`]).
    store: GuidStore,
    guid_gens: GuidGens,
    churn: Option<ChurnProcess>,
    collector: Option<Collector>,
    queue: EventQueue<Event>,
    queries: Vec<LiveQuery>,
    /// First query to use each GUID. Written once per issued attempt
    /// (cold path); per-message accounting rides on the `qidx` embedded
    /// in the events instead of hitting this map.
    guid_to_query: HashMap<Guid, usize>,
    issue_rng: Rng64,
    net_rng: Rng64,
    policy_rng: Rng64,
    faults: Option<FaultState>,
    /// Byte-accurate link layer; `None` models infinite-capacity links.
    links: Option<LinkState>,
    /// Nodes that crashed permanently; their churn events are ignored.
    crashed: Vec<bool>,
    /// Live topology adaptation; `None` when no plan is configured.
    adapt: Option<AdaptState>,
    obs: Obs,
    /// Reused candidate buffer for [`Network::relay`] — the hottest call
    /// in a flood, so it must not allocate per hop.
    candidate_scratch: Vec<NodeId>,
    /// Reused selection buffer, filled by
    /// [`ForwardingPolicy::select_into`] on every relay.
    selected_scratch: Vec<NodeId>,
    /// Per node, the last relay generation that made it a candidate, so
    /// the relay checks "selected ⊆ candidates" in O(candidates +
    /// selected) instead of scanning the candidates per target.
    candidate_stamps: Vec<u32>,
    /// The current relay's generation; 0 is never current.
    relay_generation: u32,
}

impl<P: ForwardingPolicy> Network<P> {
    /// Builds the network, workload, and event schedule.
    pub fn new(cfg: SimConfig, policy: P) -> Self {
        Self::build(cfg, policy, None)
    }

    /// Like [`Network::new`] but runs on a caller-supplied overlay graph
    /// (must have exactly `cfg.nodes` nodes). Used by the
    /// topology-adaptation experiment to replay a workload on a rewired
    /// overlay.
    pub fn with_graph(cfg: SimConfig, policy: P, graph: Graph) -> Self {
        assert_eq!(
            graph.len(),
            cfg.nodes,
            "supplied graph size does not match cfg.nodes"
        );
        Self::build(cfg, policy, Some(graph))
    }

    fn build(cfg: SimConfig, mut policy: P, prebuilt: Option<Graph>) -> Self {
        assert!(cfg.nodes >= 4, "network too small");
        assert!(cfg.queries > 0, "no queries to run");
        assert!(cfg.hop_latency.1 > cfg.hop_latency.0, "empty latency range");
        assert!(
            cfg.ring.is_none() || cfg.retry.is_none(),
            "ring and retry schedules are mutually exclusive"
        );
        if let Some(rp) = &cfg.retry {
            // Backoff::new enforces deadline > 0, backoff >= 1, attempts > 0.
            let _ = Backoff::new(rp.deadline, rp.backoff, rp.max_attempts);
            assert!(
                rp.max_ttl >= cfg.ttl,
                "retry max_ttl below the base TTL would shrink the search"
            );
        }
        if let Some(plan) = &cfg.faults {
            plan.validate().expect("invalid fault plan");
        }
        if let Some(plan) = &cfg.links {
            plan.validate().expect("invalid link plan");
        }
        if let Some(plan) = &cfg.adapt {
            plan.validate().expect("invalid adapt plan");
        }
        let streams = StreamFactory::new(cfg.seed);
        let mut topo_rng = streams.stream("topology");
        let graph = prebuilt.unwrap_or_else(|| match cfg.topology {
            Topology::BarabasiAlbert { m } => {
                generate::barabasi_albert(cfg.nodes, m, &mut topo_rng)
            }
            Topology::ErdosRenyi { p } => {
                let mut g = generate::erdos_renyi(cfg.nodes, p, &mut topo_rng);
                generate::ensure_connected(&mut g, &mut topo_rng);
                g
            }
            Topology::WattsStrogatz { k, beta } => {
                generate::watts_strogatz(cfg.nodes, k, beta, &mut topo_rng)
            }
            Topology::SuperPeer {
                n_super,
                super_degree,
            } => generate::superpeer(cfg.nodes, n_super, super_degree, &mut topo_rng).0,
        });
        graph
            .check_invariants()
            .expect("generator produced a broken graph");

        let mut cat_rng = streams.stream("catalog");
        let catalog = Catalog::generate(cfg.catalog.clone(), &mut cat_rng);
        let mut wl_rng = streams.stream("workload");
        let workload =
            WorkloadGen::generate(cfg.nodes, &catalog, cfg.workload.clone(), &mut wl_rng);

        let mut guid_rng = streams.stream("guid");
        let mut guid_gens = GuidGens::with_capacity(cfg.nodes);
        for _ in 0..cfg.nodes {
            if guid_rng.chance(cfg.faulty_fraction) {
                guid_gens.push_faulty(4, &mut guid_rng);
            } else {
                guid_gens.push_proper();
            }
        }

        let churn = cfg.churn.clone().map(|mut c| {
            if let Some(col) = cfg.collector {
                // The collector must stay online for the full capture,
                // like the paper's instrumented client.
                if !c.pinned.contains(&col) {
                    c.pinned.push(col);
                }
            }
            ChurnProcess::new(cfg.nodes, c, streams.stream("churn"))
        });

        let mut issue_rng = streams.stream("issue");
        let mut queue = EventQueue::with_capacity(cfg.queries * 4);
        let mut t = SimTime::ZERO;
        for qidx in 0..cfg.queries {
            let dt = issue_rng
                .exp(cfg.mean_query_interval.ticks() as f64)
                .max(1.0) as u64;
            t = t.saturating_add(Duration::from_ticks(dt));
            queue.schedule(t, Event::Issue { qidx });
        }

        // Node-level faults are drawn up front from their own stream, so
        // a zero-rate plan (or no plan) leaves every other stream
        // untouched. Crash times span the issue horizon — the last
        // scheduled query.
        let faults = cfg.faults.clone().map(|plan| {
            let exempt: Vec<NodeId> = cfg.collector.into_iter().collect();
            FaultState::new(plan, cfg.nodes, t, &exempt, streams.stream("faults"))
        });
        if let Some(f) = &faults {
            for &(at, node) in f.crash_schedule() {
                queue.schedule(at, Event::Crash { node });
            }
        }

        // The link layer is the only process that loses or delays a
        // message. The fault plan's `loss`/`jitter` are sugar for the
        // link plan's and are lowered into it here, so a message is
        // rolled once, at send, on the `"links"` stream whichever spec
        // asked for it. Nothing is built when nothing is impaired: a
        // zero plan (or none) leaves the run byte-identical to the
        // pre-link simulator.
        let plan = cfg.links.unwrap_or_default();
        let (extra_loss, extra_jitter) =
            cfg.faults.as_ref().map_or((0.0, 0), |f| (f.loss, f.jitter));
        let links = (!plan.is_noop() || extra_loss > 0.0 || extra_jitter > 0).then(|| {
            let exempt: Vec<NodeId> = cfg.collector.into_iter().collect();
            let query_sizes: Vec<u32> = (0..catalog.len())
                .map(|i| QueryMsg::wire_size_for(catalog.query_len(FileId(i as u32))) as u32)
                .collect();
            let hit_sizes: Vec<u32> = (0..catalog.len())
                .map(|i| HitMsg::wire_size_for(catalog.query_len(FileId(i as u32))) as u32)
                .collect();
            LinkState::new(
                &plan,
                cfg.nodes,
                extra_loss,
                extra_jitter,
                query_sizes,
                hit_sizes,
                &exempt,
                streams.stream("links"),
            )
        });

        policy.init(&graph, &workload, &catalog);

        Network {
            live_holders: LiveHolders::build(&graph, &workload, catalog.len()),
            collector: cfg.collector.map(Collector::new),
            store: GuidStore::new(cfg.nodes, cfg.guid_cache, cfg.guid_expiry),
            guid_gens,
            churn,
            queue,
            queries: Vec::with_capacity(cfg.queries),
            guid_to_query: HashMap::with_capacity(cfg.queries * 2),
            issue_rng,
            net_rng: streams.stream("net"),
            policy_rng: streams.stream("policy"),
            faults,
            links,
            crashed: vec![false; cfg.nodes],
            adapt: cfg
                .adapt
                .clone()
                .map(|plan| AdaptState::new(plan, cfg.nodes)),
            obs: Obs::disabled(),
            candidate_scratch: Vec::new(),
            selected_scratch: Vec::new(),
            candidate_stamps: vec![0; graph.len()],
            relay_generation: 0,
            graph,
            catalog,
            workload,
            policy,
            cfg,
        }
    }

    /// Immutable access to the overlay (tests and baselines use it).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Attaches an observability recorder. Instrumentation reads only
    /// simulated time and deterministic counters, so the resulting trace
    /// is byte-identical across thread counts and (with a disabled
    /// recorder) the run itself is unchanged.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    fn hop_latency(&mut self) -> Duration {
        let (lo, hi) = self.cfg.hop_latency;
        Duration::from_ticks(lo + self.net_rng.below(hi - lo))
    }

    /// Takes `node` offline in the overlay and the live-holder counts.
    /// A node that is already down (a crash landing mid-downtime) is
    /// left as it is.
    fn depart(&mut self, node: NodeId) {
        if self.graph.is_alive(node) {
            self.live_holders
                .went_offline(self.workload.library(node.index()));
            self.graph.depart(node);
        }
    }

    /// Brings `node` back online and wires it to fresh neighbors:
    /// through a ping-discovery walk from a random live bootstrap peer
    /// when configured, else (or when the walk finds nobody) to uniformly
    /// random live peers.
    fn rejoin(&mut self, node: NodeId) {
        if !self.graph.is_alive(node) {
            self.live_holders
                .came_online(self.workload.library(node.index()));
            self.graph.rejoin(node);
        }
        if let Some(ttl) = self.cfg.rejoin_via_ping {
            let others = self.graph.live_count() - 1;
            if others > 0 {
                let bootstrap = self
                    .graph
                    .select_live_except(node, self.net_rng.index(others))
                    .expect("draw is below the live count");
                let wired = crate::discovery::rewire_via_discovery(
                    &mut self.graph,
                    node,
                    bootstrap,
                    ttl,
                    self.cfg.rejoin_degree,
                    &mut self.net_rng,
                );
                if !wired.is_empty() {
                    return;
                }
            }
        }
        rewire_join(
            &mut self.graph,
            node,
            self.cfg.rejoin_degree,
            &mut self.net_rng,
        );
    }

    fn apply_churn_until(&mut self, horizon: SimTime) {
        let mut changed = false;
        while let Some(ev) = self.churn.as_mut().and_then(|c| c.next_before(horizon)) {
            if self.crashed[ev.node.index()] {
                continue; // crashed nodes neither leave nor rejoin
            }
            match ev.kind {
                ChurnKind::Leave | ChurnKind::Crash => {
                    self.depart(ev.node);
                    self.store.reset(ev.node);
                    self.crashed[ev.node.index()] |= ev.kind == ChurnKind::Crash;
                }
                ChurnKind::Join => self.rejoin(ev.node),
            }
            changed = true;
        }
        if changed {
            self.policy.on_topology_change(&self.graph);
        }
    }

    /// Runs every adaptation round whose boundary is at or before
    /// `horizon` (called after churn, before the event at `horizon` is
    /// processed).
    fn apply_adaptation_until(&mut self, horizon: SimTime) {
        let Some(mut st) = self.adapt.take() else {
            return;
        };
        while st.next_round <= horizon {
            let at = st.next_round;
            self.adaptation_round(&mut st, at);
            st.next_round = at.saturating_add(st.plan.every);
        }
        self.adapt = Some(st);
    }

    /// One adaptation round: retire dead shortcuts, apply last round's
    /// surviving proposals, collect fresh ones. Consumes no randomness.
    fn adaptation_round(&mut self, st: &mut AdaptState, at: SimTime) {
        let mut changed = false;

        // 1. Retire: the rule decayed, or churn took an endpoint (and
        // with it the edge) out of the overlay.
        let mut kept = Vec::with_capacity(st.applied.len());
        for sc in st.applied.drain(..) {
            let edge_alive = self.graph.has_edge(sc.asker, sc.target)
                && self.graph.is_alive(sc.asker)
                && self.graph.is_alive(sc.target);
            let rule_alive = self.policy.shortcut_active(sc.asker, sc.target, sc.via);
            if edge_alive && rule_alive {
                kept.push(sc);
                continue;
            }
            if self.graph.remove_edge(sc.asker, sc.target) {
                changed = true;
            }
            st.degree[sc.asker.index()] = st.degree[sc.asker.index()].saturating_sub(1);
            self.obs.record(|| ObsEvent::ShortcutRetired {
                at,
                asker: sc.asker.0,
                target: sc.target.0,
            });
        }
        st.applied = kept;

        // 2. Apply the previous boundary's proposals, re-validating
        // liveness: endpoints can crash between the propose and apply
        // phases, and a dead proposal must be rejected, not wired in.
        let mut spent = 0usize;
        for sc in st.pending.drain(..) {
            if spent >= st.plan.budget {
                break;
            }
            if !self.graph.is_alive(sc.asker) || !self.graph.is_alive(sc.target) {
                self.obs.record(|| ObsEvent::ShortcutRejected {
                    at,
                    asker: sc.asker.0,
                    target: sc.target.0,
                });
                continue;
            }
            if !self.policy.shortcut_active(sc.asker, sc.target, sc.via) {
                continue; // rule already decayed; silently stale
            }
            if st.degree[sc.asker.index()] >= st.plan.degree as u32
                || self.graph.has_edge(sc.asker, sc.target)
            {
                continue; // over budget or redundant
            }
            self.graph.add_edge(sc.asker, sc.target);
            st.degree[sc.asker.index()] += 1;
            st.applied.push(sc);
            spent += 1;
            changed = true;
            self.obs.record(|| ObsEvent::ShortcutAdded {
                at,
                asker: sc.asker.0,
                target: sc.target.0,
            });
        }

        // 3. Collect proposals for the next boundary, on the post-apply
        // overlay so existing shortcuts are not re-proposed.
        st.pending = self.policy.propose_shortcuts(&self.graph);

        if changed {
            self.policy.on_topology_change(&self.graph);
        }
    }

    /// The incrementally kept counts against a rebuild from the final
    /// overlay and libraries.
    #[cfg(test)]
    fn assert_live_holders_match_rebuild(&self) {
        let rebuilt = LiveHolders::build(&self.graph, &self.workload, self.catalog.len());
        assert_eq!(self.live_holders.0, rebuilt.0, "live-holder counts drifted");
    }

    /// Picks a live issuer uniformly: the k-th live node in id order,
    /// one `issue`-stream draw. With everyone down, node 0 skips its
    /// turn (recorded as an unanswerable, zero-message query).
    fn pick_issuer(&mut self) -> NodeId {
        match self.graph.live_count() {
            0 => NodeId(0),
            live => self
                .graph
                .select_live(self.issue_rng.index(live))
                .expect("draw is below the live count"),
        }
    }

    /// Draws `node`'s next query and opens its record, deciding
    /// answerability — does any *other* live node hold the file — from
    /// the live-holder count.
    fn open_query(&mut self, node: NodeId, now: SimTime) {
        let key = self
            .workload
            .next_query(node.index(), &self.catalog, &mut self.issue_rng);
        let own = self.graph.is_alive(node) && self.workload.library(node.index()).matches(key);
        let answerable = self.live_holders.of(key.file) > u32::from(own);
        #[cfg(test)]
        assert_eq!(
            answerable,
            (0..self.workload.len()).any(|h| h != node.index()
                && self.graph.is_alive(NodeId(h as u32))
                && self.workload.library(h).matches(key)),
            "live-holder count disagrees with the library scan for {key:?}"
        );
        self.queries.push(LiveQuery {
            node,
            key,
            issued_at: now,
            outcome: QueryOutcome {
                answerable,
                ..QueryOutcome::default()
            },
            first_hop: Vec::new(),
            responders: Vec::new(),
        });
    }

    /// Issues one attempt of query `qidx` under a fresh GUID. Returns
    /// `false` when the issuer is offline and nothing was sent.
    fn issue_attempt(&mut self, qidx: usize, ttl: u32, now: SimTime) -> bool {
        let node = self.queries[qidx].node;
        if !self.graph.is_alive(node) {
            return false; // issuer offline at reissue time
        }
        let key = self.queries[qidx].key;
        let guid = self.guid_gens.next(node.index(), &mut self.net_rng);
        // Accounting follows the GUID's *first* query: a faulty generator
        // re-using a GUID charges traffic to the original query, exactly
        // as a lookup through the map on every message would.
        let owner = *self.guid_to_query.entry(guid).or_insert(qidx);
        self.queries[qidx].outcome.attempts += 1;
        let msg = QueryMsg {
            guid,
            key,
            ttl,
            hops: 0,
        };
        if let Some(l) = self.links.as_mut() {
            // The retry deadline clock starts when the attempt's sends
            // actually leave the uplink, not when they were offered.
            l.begin_attempt(now.ticks());
        }
        self.store.record(node, guid, Upstream::Origin, now);
        self.relay(node, None, msg, owner, now);
        let first_hop = std::mem::take(&mut self.queries[qidx].first_hop);
        let mut first_hop = first_hop;
        first_hop.clear();
        first_hop.extend_from_slice(&self.selected_scratch);
        self.queries[qidx].first_hop = first_hop;
        true
    }

    /// Runs the policy at `node` and transmits the query onward, leaving
    /// the selected targets in `self.selected_scratch`.
    fn relay(
        &mut self,
        node: NodeId,
        from: Option<NodeId>,
        msg: QueryMsg,
        qidx: usize,
        now: SimTime,
    ) {
        let mut selected = std::mem::take(&mut self.selected_scratch);
        selected.clear();
        let Some(next) = msg.hop() else {
            self.selected_scratch = selected;
            return;
        };
        // Fill the reusable scratch buffers instead of collecting fresh
        // Vecs per relay; they are taken out for the duration of the
        // policy call and put back (capacity intact) before returning.
        let mut candidates = std::mem::take(&mut self.candidate_scratch);
        candidates.clear();
        candidates.extend(self.graph.live_neighbors(node).filter(|&n| Some(n) != from));
        if candidates.is_empty() {
            self.candidate_scratch = candidates;
            self.selected_scratch = selected;
            return;
        }
        let ctx = ForwardCtx {
            node,
            from,
            query: &next,
            candidates: &candidates,
        };
        self.policy
            .select_into(&ctx, &mut self.policy_rng, &mut selected);
        self.obs.record(|| ObsEvent::Forward {
            at: now,
            node: node.0,
            candidates: candidates.len(),
            selected: selected.len(),
        });
        self.relay_generation = self.relay_generation.wrapping_add(1);
        if self.relay_generation == 0 {
            self.candidate_stamps.fill(0);
            self.relay_generation = 1;
        }
        let generation = self.relay_generation;
        for c in &candidates {
            self.candidate_stamps[c.index()] = generation;
        }
        for &target in &selected {
            assert!(
                self.candidate_stamps.get(target.index()) == Some(&generation),
                "policy {} selected non-candidate {target} at {node}",
                self.policy.name()
            );
        }
        self.candidate_scratch = candidates;
        for &target in &selected {
            let bytes = match &self.links {
                Some(l) => l.query_size(next.key.file),
                None => next.wire_size(),
            };
            let outcome = &mut self.queries[qidx].outcome;
            outcome.query_messages += 1;
            outcome.bytes += bytes;
            let event = Event::Query {
                to: target,
                from: node,
                msg: next,
                qidx,
            };
            self.send(now, node, target, bytes, DropKind::Query, event);
        }
        self.selected_scratch = selected;
    }

    /// The one place a message leaves a node: draws the hop latency,
    /// then either offers the message to the link layer — which may
    /// lose it, drop it at a full buffer, or delay it — or, with no
    /// link layer, schedules its delivery one hop later.
    #[inline]
    fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        kind: DropKind,
        event: Event,
    ) {
        let prop = self.hop_latency();
        let Some(links) = self.links.as_mut() else {
            self.queue.schedule(now.saturating_add(prop), event);
            return;
        };
        match links.transmit(now.ticks(), from, to, bytes, prop.ticks()) {
            Transmission::Delivered { at } => {
                self.queue.schedule(SimTime::from_ticks(at), event);
            }
            Transmission::Lost => {
                self.obs.record(|| ObsEvent::FaultDrop { at: now, kind });
            }
            Transmission::BufferDropped => {
                self.obs.record(|| ObsEvent::BufferDrop { at: now, kind });
            }
        }
    }

    fn send_hit(&mut self, to: NodeId, from: NodeId, msg: HitMsg, qidx: usize, now: SimTime) {
        let bytes = match &self.links {
            Some(l) => l.hit_size(msg.key.file),
            None => msg.wire_size(),
        };
        let outcome = &mut self.queries[qidx].outcome;
        outcome.hit_messages += 1;
        outcome.bytes += bytes;
        let event = Event::Hit {
            to,
            from,
            msg,
            qidx,
        };
        self.send(now, from, to, bytes, DropKind::Hit, event);
    }

    fn handle_query(&mut self, to: NodeId, from: NodeId, msg: QueryMsg, qidx: usize, now: SimTime) {
        if let Some(l) = self.links.as_mut() {
            let bytes = l.query_size(msg.key.file);
            l.on_delivered(to, bytes);
        }
        if !self.graph.is_alive(to) {
            return; // delivered into the void
        }
        if let Some(col) = self.collector.as_mut() {
            if col.node() == to {
                col.on_query(now, msg.guid, from, msg.key);
            }
        }
        if !self
            .store
            .record(to, msg.guid, Upstream::Neighbor(from), now)
        {
            return; // duplicate
        }
        // Local match: reply, then keep relaying (Gnutella semantics).
        if self.workload.library(to.index()).matches(msg.key) {
            let hit = HitMsg {
                guid: msg.guid,
                responder: to,
                key: msg.key,
                query_hops: msg.hops,
            };
            self.route_hit_from(to, hit, qidx, now);
        }
        // Silent free-riders answer from their own library (self-interest)
        // but never spend upstream bandwidth relaying for others.
        if self.faults.as_ref().is_some_and(|f| f.is_silent(to)) {
            return;
        }
        self.relay(to, Some(from), msg, qidx, now);
    }

    /// Starts or continues a hit's travel along the reverse path from
    /// `node`.
    fn route_hit_from(&mut self, node: NodeId, msg: HitMsg, qidx: usize, now: SimTime) {
        match self.store.upstream(node, msg.guid) {
            Some(Upstream::Origin) => {
                // node is the issuer — the responder is the issuer itself
                // only in degenerate configs; deliver.
                self.deliver_hit(node, msg, qidx, now);
            }
            Some(Upstream::Neighbor(up)) if self.graph.is_alive(up) => {
                self.send_hit(up, node, msg, qidx, now);
            }
            Some(Upstream::Neighbor(_)) => {
                // Broken reverse path: hit is lost, as in the real network.
            }
            None => {
                // Cache evicted or node restarted: hit is lost.
            }
        }
    }

    fn handle_hit(&mut self, to: NodeId, from: NodeId, msg: HitMsg, qidx: usize, now: SimTime) {
        if let Some(l) = self.links.as_mut() {
            let bytes = l.hit_size(msg.key.file);
            l.on_delivered(to, bytes);
        }
        if !self.graph.is_alive(to) {
            return;
        }
        if let Some(col) = self.collector.as_mut() {
            if col.node() == to {
                col.on_reply(now, msg.guid, from, msg.responder, msg.key);
            }
        }
        let upstream = match self.store.upstream(to, msg.guid) {
            Some(Upstream::Origin) => None,
            Some(Upstream::Neighbor(n)) => Some(n),
            None => {
                return; // no route memory; drop
            }
        };
        self.policy.on_reply(to, upstream, from, msg.key);
        match upstream {
            None => self.deliver_hit(to, msg, qidx, now),
            Some(up) => {
                if self.graph.is_alive(up) {
                    self.send_hit(up, to, msg, qidx, now);
                }
            }
        }
    }

    fn deliver_hit(&mut self, issuer: NodeId, msg: HitMsg, qidx: usize, now: SimTime) {
        let q = &mut self.queries[qidx];
        debug_assert_eq!(q.node, issuer);
        // Retried queries can re-discover a holder that already answered
        // an earlier attempt; suppress the duplicate instead of counting
        // it as a fresh delivery. Single-attempt runs never get here.
        if self.cfg.retry.is_some() {
            if q.responders.contains(&msg.responder) {
                q.outcome.duplicate_hits += 1;
                return;
            }
            q.responders.push(msg.responder);
        }
        q.outcome.hits_delivered += 1;
        if q.outcome.first_hit_hops.is_none() {
            let latency = now.since(q.issued_at);
            q.outcome.first_hit_hops = Some(msg.query_hops + 1);
            q.outcome.first_hit_latency = Some(latency);
            self.obs.observe_query_latency(latency.ticks());
            if self.cfg.download_on_hit {
                // First hit: fetch the file, becoming a new replica.
                let file = msg.key.file;
                let fresh = self.workload.add_file(issuer.index(), file);
                if fresh && self.graph.is_alive(issuer) {
                    self.live_holders.gained_replica(file);
                }
            }
        }
    }

    /// A query's deadline fired: give the policy failure feedback and
    /// either reissue with an escalated TTL or expire the query.
    fn handle_deadline(&mut self, qidx: usize, attempt: u32, now: SimTime) {
        let rp = self
            .cfg
            .retry
            .clone()
            .expect("deadline without retry policy");
        if self.queries[qidx].outcome.hits_delivered > 0 {
            return; // answered in time
        }
        // The attempt produced nothing: every first-hop target looks
        // unproductive (dead, silent, or on a lossy path) to the issuer.
        let issuer = self.queries[qidx].node;
        let targets = std::mem::take(&mut self.queries[qidx].first_hop);
        for target in targets {
            self.policy.on_failure(issuer, target);
        }
        let backoff = Backoff::new(rp.deadline, rp.backoff, rp.max_attempts);
        let Some(delay) = backoff.delay_for(attempt) else {
            self.queries[qidx].outcome.expired = true;
            self.obs.record(|| ObsEvent::Expire {
                at: now,
                query: qidx,
                attempts: attempt,
            });
            return; // retry budget exhausted
        };
        let ttl = self
            .cfg
            .ttl
            .saturating_add(rp.ttl_step.saturating_mul(attempt))
            .min(rp.max_ttl);
        let mut sent_at = now;
        if self.issue_attempt(qidx, ttl, now) {
            sent_at = self.attempt_sent_at(now);
            self.queries[qidx].outcome.retries += 1;
            self.obs.record(|| ObsEvent::Retry {
                at: now,
                query: qidx,
                attempt,
                ttl,
            });
        }
        self.queue.schedule(
            sent_at.saturating_add(delay),
            Event::QueryDeadline {
                qidx,
                attempt: attempt + 1,
            },
        );
    }

    /// When the attempt's sends actually left the uplink — the point
    /// the retry deadline clock starts from. Without a link layer
    /// transmission is instantaneous and this is `now`, which keeps
    /// link-free runs byte-identical.
    fn attempt_sent_at(&self, now: SimTime) -> SimTime {
        self.links
            .as_ref()
            .map_or(now, |l| SimTime::from_ticks(l.send_done()))
    }

    /// Runs to completion, consuming the network.
    pub fn run(self) -> SimResult {
        self.run_full().0
    }

    /// Runs to completion, also returning the policy (with its learned
    /// state) and the final overlay graph — the inputs the
    /// topology-adaptation extension needs.
    pub fn run_full(mut self) -> (SimResult, P, Graph) {
        let first_ttl = self
            .cfg
            .ring
            .as_ref()
            .map(|r| *r.ttls.first().expect("empty ring schedule"))
            .unwrap_or(self.cfg.ttl);
        while let Some(next_time) = self.queue.peek_time() {
            self.apply_churn_until(next_time);
            self.apply_adaptation_until(next_time);
            let (now, event) = self.queue.pop().expect("peeked event vanished");
            match event {
                Event::Issue { qidx } => {
                    debug_assert_eq!(qidx, self.queries.len());
                    let node = self.pick_issuer();
                    self.open_query(node, now);
                    if self.graph.is_alive(node) {
                        self.issue_attempt(qidx, first_ttl, now);
                        let sent_at = self.attempt_sent_at(now);
                        if let Some(ring) = self.cfg.ring.clone() {
                            if ring.ttls.len() > 1 {
                                self.queue.schedule(
                                    now.saturating_add(ring.wait),
                                    Event::RingTimeout { qidx, stage: 1 },
                                );
                            }
                        }
                        if let Some(rp) = &self.cfg.retry {
                            self.queue.schedule(
                                sent_at.saturating_add(rp.deadline),
                                Event::QueryDeadline { qidx, attempt: 1 },
                            );
                        }
                    }
                }
                Event::Query {
                    to,
                    from,
                    msg,
                    qidx,
                } => self.handle_query(to, from, msg, qidx, now),
                Event::Hit {
                    to,
                    from,
                    msg,
                    qidx,
                } => self.handle_hit(to, from, msg, qidx, now),
                Event::QueryDeadline { qidx, attempt } => self.handle_deadline(qidx, attempt, now),
                Event::Crash { node } => {
                    if self.graph.is_alive(node) {
                        self.depart(node);
                        self.store.reset(node);
                        self.policy.on_topology_change(&self.graph);
                    }
                    // Whether it was up or mid-downtime, the node never
                    // returns: later churn events for it are ignored.
                    self.crashed[node.index()] = true;
                }
                Event::RingTimeout { qidx, stage } => {
                    let ring = self
                        .cfg
                        .ring
                        .clone()
                        .expect("ring timeout without schedule");
                    if self.queries[qidx].outcome.hits_delivered == 0 {
                        let ttl = ring.ttls[stage];
                        self.issue_attempt(qidx, ttl, now);
                        if stage + 1 < ring.ttls.len() {
                            self.queue.schedule(
                                now.saturating_add(ring.wait),
                                Event::RingTimeout {
                                    qidx,
                                    stage: stage + 1,
                                },
                            );
                        }
                    }
                }
            }
        }

        #[cfg(test)]
        self.assert_live_holders_match_rebuild();
        let end_time = self.queue.now();
        let mut builder = MetricsBuilder::new();
        let mut total_attempts = 0u64;
        for q in &self.queries {
            builder.record(&q.outcome);
            total_attempts += u64::from(q.outcome.attempts);
        }
        let mut metrics = builder.finish(self.policy.name());
        // Loss and buffer drops are disjoint link outcomes and never
        // double-count a message.
        metrics.lost_messages = self.links.as_ref().map_or(0, LinkState::lost);
        metrics.buffer_dropped = self.links.as_ref().map_or(0, LinkState::buffer_dropped);
        if let Some(l) = &self.links {
            let (ups, downs) = (l.node_up_bytes(), l.node_down_bytes());
            for i in 0..ups.len() {
                self.obs.observe_node_bytes(ups[i], downs[i]);
            }
        }
        let result = SimResult {
            metrics,
            trace: self.collector.map(Collector::into_db),
            end_time,
            distinct_query_guids: self.guid_to_query.len(),
            total_attempts,
            link_bytes: self.links.as_ref().map(LinkState::byte_ledger),
            obs: self.obs.report(),
        };
        (result, self.policy, self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FloodPolicy;

    fn tiny_cfg(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::default_with(50, 200, seed);
        cfg.catalog = CatalogConfig {
            topics: 5,
            files_per_topic: 40,
            ..Default::default()
        };
        cfg.workload.files_per_node = 30;
        cfg.workload.free_rider_fraction = 0.1;
        cfg
    }

    #[test]
    fn flooding_finds_most_answerable_content() {
        let result = Network::new(tiny_cfg(1), FloodPolicy).run();
        let m = &result.metrics;
        assert_eq!(m.queries, 200);
        assert!(m.answerable > 100, "workload too sparse: {}", m.answerable);
        // TTL-5 flooding on a 50-node BA graph reaches everyone.
        assert!(
            m.success_rate > 0.95,
            "flooding missed content: {}",
            m.success_rate
        );
        assert!(m.query_messages > 0 && m.hit_messages > 0);
        assert!(m.messages_per_query > 10.0, "suspiciously little traffic");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Network::new(tiny_cfg(7), FloodPolicy).run();
        let b = Network::new(tiny_cfg(7), FloodPolicy).run();
        assert_eq!(a.metrics.query_messages, b.metrics.query_messages);
        assert_eq!(a.metrics.hit_messages, b.metrics.hit_messages);
        assert_eq!(a.metrics.answered, b.metrics.answered);
        assert_eq!(a.end_time, b.end_time);
        let c = Network::new(tiny_cfg(8), FloodPolicy).run();
        assert_ne!(a.metrics.query_messages, c.metrics.query_messages);
    }

    #[test]
    fn ttl_one_generates_single_ring_of_messages() {
        let mut cfg = tiny_cfg(3);
        cfg.ttl = 2; // issuer floods neighbors; they answer but relay no further
        let result = Network::new(cfg, FloodPolicy).run();
        let m = &result.metrics;
        // Max messages per query = issuer degree (BA graph m=3 minimum) —
        // mean must be far below a full flood.
        assert!(
            m.messages_per_query < 30.0,
            "TTL 2 produced {} messages/query",
            m.messages_per_query
        );
        assert!(m.success_rate < 0.9, "2-hop horizon cannot see everything");
    }

    #[test]
    fn collector_records_traffic() {
        let mut cfg = tiny_cfg(5);
        // Instrument the highest-degree node (id 0 is in the BA seed clique).
        cfg.collector = Some(NodeId(0));
        let result = Network::new(cfg, FloodPolicy).run();
        let mut db = result.trace.expect("collector configured");
        assert!(
            db.query_count() > 100,
            "collector saw {} queries",
            db.query_count()
        );
        assert!(db.reply_count() > 0);
        let (_, pairs) = db.clean_and_join();
        assert!(!pairs.is_empty());
        // Pair sources must be neighbors, not arbitrary nodes.
        for p in &pairs {
            assert_ne!(p.src.0, 0, "collector recorded itself as source");
        }
    }

    /// Collector output always survives the clean/join pipeline with
    /// src/via/responder inside the node id space.
    #[test]
    fn collector_records_are_wellformed() {
        for seed in 0..8 {
            let mut cfg = SimConfig::default_with(40, 300, seed);
            cfg.collector = Some(NodeId(0));
            cfg.catalog = CatalogConfig {
                topics: 4,
                files_per_topic: 30,
                ..Default::default()
            };
            let result = Network::new(cfg, FloodPolicy).run();
            let mut db = result.trace.expect("collector configured");
            let (_, pairs) = db.clean_and_join();
            assert!(!pairs.is_empty(), "seed {seed}");
            for p in &pairs {
                assert!(
                    p.src.0 < 40 && p.via.0 < 40 && p.responder.0 < 40,
                    "seed {seed}: {p:?}"
                );
            }
        }
    }

    #[test]
    fn churn_does_not_break_the_run() {
        let mut cfg = tiny_cfg(9);
        cfg.queries = 300;
        cfg.churn = Some(ChurnConfig {
            mean_session: Duration::from_ticks(100_000),
            mean_downtime: Duration::from_ticks(50_000),
            pinned: vec![],
        });
        let result = Network::new(cfg, FloodPolicy).run();
        let m = &result.metrics;
        assert_eq!(m.queries, 300);
        // Churn costs some hits but the network keeps functioning.
        assert!(
            m.success_rate > 0.5,
            "churn collapsed success: {}",
            m.success_rate
        );
    }

    #[test]
    fn expanding_ring_uses_fewer_messages_when_content_is_near() {
        let mut cfg = tiny_cfg(11);
        cfg.queries = 300;
        let flood = Network::new(cfg.clone(), FloodPolicy).run();
        cfg.ring = Some(RingSchedule {
            ttls: vec![2, 5],
            wait: Duration::from_ticks(1_000),
        });
        let ring = Network::new(cfg, FloodPolicy).run();
        assert!(
            ring.metrics.messages_per_query < flood.metrics.messages_per_query,
            "ring {} >= flood {}",
            ring.metrics.messages_per_query,
            flood.metrics.messages_per_query
        );
        // Success stays in the same ballpark because the last ring is a
        // full flood.
        assert!(ring.metrics.success_rate > flood.metrics.success_rate - 0.1);
    }

    #[test]
    fn downloads_replicate_content_and_raise_answerability() {
        let mut cfg = tiny_cfg(41);
        cfg.queries = 1_500;
        cfg.workload.files_per_node = 10; // sparse: replication matters
        let without = Network::new(cfg.clone(), FloodPolicy).run().metrics;
        cfg.download_on_hit = true;
        let with = Network::new(cfg, FloodPolicy).run().metrics;
        // Replication makes strictly more queries answerable over the
        // run (popular files spread to their requesters).
        assert!(
            with.answerable > without.answerable,
            "replication did not help: {} vs {}",
            with.answerable,
            without.answerable
        );
    }

    /// The live-holder counts against their oracles: in test builds
    /// `open_query` compares every answerability verdict with the
    /// O(nodes) library scan and the end of a run compares the counts
    /// with a rebuild. Session churn, crashes landing on nodes that are
    /// mid-downtime, ping rejoin and downloads all move the counts here.
    #[test]
    fn live_holder_counts_agree_with_the_library_scan() {
        for seed in 0..12 {
            let mut cfg = tiny_cfg(100 + seed);
            cfg.queries = 400;
            cfg.workload.files_per_node = 10;
            cfg.download_on_hit = true;
            cfg.churn = Some(ChurnConfig {
                mean_session: Duration::from_ticks(100_000),
                mean_downtime: Duration::from_ticks(50_000),
                pinned: vec![],
            });
            cfg.faults = Some(FaultPlan {
                crash: 0.3,
                ..Default::default()
            });
            if seed % 2 == 0 {
                cfg.rejoin_via_ping = Some(3);
            }
            let (result, _policy, graph) = Network::new(cfg, FloodPolicy).run_full();
            let m = &result.metrics;
            assert_eq!(m.queries, 400);
            assert!(graph.live_count() < 50, "seed {seed}: no node stayed down");
            assert!(
                m.answerable > 0 && m.answerable < m.queries,
                "seed {seed}: answerability never varied ({})",
                m.answerable
            );
        }
    }

    #[test]
    fn ping_based_rejoin_keeps_the_network_working() {
        let mut cfg = tiny_cfg(31);
        cfg.queries = 300;
        cfg.churn = Some(ChurnConfig {
            mean_session: Duration::from_ticks(100_000),
            mean_downtime: Duration::from_ticks(50_000),
            pinned: vec![],
        });
        cfg.rejoin_via_ping = Some(3);
        let pinged = Network::new(cfg.clone(), FloodPolicy).run().metrics;
        cfg.rejoin_via_ping = None;
        let uniform = Network::new(cfg, FloodPolicy).run().metrics;
        // Both rejoin modes must keep search functional; locality-biased
        // rewiring should not collapse success.
        assert!(pinged.success_rate > 0.5, "pinged {}", pinged.success_rate);
        assert!(uniform.success_rate > 0.5);
    }

    #[test]
    fn zero_fault_plan_is_byte_identical_to_no_plan() {
        let clean = Network::new(tiny_cfg(13), FloodPolicy).run();
        let mut cfg = tiny_cfg(13);
        cfg.faults = Some(FaultPlan::default());
        let noop = Network::new(cfg, FloodPolicy).run();
        assert_eq!(clean.metrics.query_messages, noop.metrics.query_messages);
        assert_eq!(clean.metrics.hit_messages, noop.metrics.hit_messages);
        assert_eq!(clean.metrics.bytes, noop.metrics.bytes);
        assert_eq!(clean.metrics.answered, noop.metrics.answered);
        assert_eq!(clean.metrics.answerable, noop.metrics.answerable);
        assert_eq!(clean.end_time, noop.end_time);
        assert_eq!(clean.total_attempts, noop.total_attempts);
        assert_eq!(noop.metrics.lost_messages, 0);
    }

    #[test]
    fn fault_loss_degrades_and_is_counted() {
        let with_loss = |loss: f64| {
            let mut cfg = tiny_cfg(23);
            cfg.faults = Some(FaultPlan {
                loss,
                ..Default::default()
            });
            Network::new(cfg, FloodPolicy).run().metrics
        };
        let clean = Network::new(tiny_cfg(23), FloodPolicy).run().metrics;
        let lossy = with_loss(0.30);
        assert!(lossy.lost_messages > 0, "loss plan dropped nothing");
        // Flooding is redundant, so moderate loss costs some but not all
        // success; it must never *help*.
        assert!(lossy.success_rate < clean.success_rate);
        assert!(
            lossy.success_rate > clean.success_rate * 0.3,
            "flooding redundancy should absorb moderate loss: {} vs {}",
            lossy.success_rate,
            clean.success_rate
        );
        // Heavy loss is devastating.
        assert!(with_loss(0.90).success_rate < lossy.success_rate);
    }

    #[test]
    fn crashed_nodes_never_rejoin() {
        let mut cfg = tiny_cfg(17);
        cfg.queries = 400;
        cfg.churn = Some(ChurnConfig {
            mean_session: Duration::from_ticks(100_000),
            mean_downtime: Duration::from_ticks(20_000),
            pinned: vec![],
        });
        cfg.faults = Some(FaultPlan {
            crash: 0.4,
            ..Default::default()
        });
        let (result, _policy, graph) = Network::new(cfg, FloodPolicy).run_full();
        // With short downtimes every churned node would be back quickly;
        // a large dead population at the end means crashes stuck.
        let dead = (0..50).filter(|&i| !graph.is_alive(NodeId(i))).count();
        assert!(dead >= 5, "only {dead} nodes dead after crash plan");
        assert_eq!(result.metrics.queries, 400);
    }

    #[test]
    fn silent_nodes_shrink_traffic_and_reach() {
        let clean = Network::new(tiny_cfg(29), FloodPolicy).run().metrics;
        let mut cfg = tiny_cfg(29);
        cfg.faults = Some(FaultPlan {
            silent: 0.5,
            ..Default::default()
        });
        let muted = Network::new(cfg, FloodPolicy).run().metrics;
        assert!(
            muted.messages_per_query < clean.messages_per_query,
            "free riders did not reduce forwarding: {} vs {}",
            muted.messages_per_query,
            clean.messages_per_query
        );
        assert!(muted.success_rate <= clean.success_rate + 1e-9);
    }

    #[test]
    fn jitter_changes_timing_but_not_reach() {
        let clean = Network::new(tiny_cfg(37), FloodPolicy).run();
        let mut cfg = tiny_cfg(37);
        cfg.faults = Some(FaultPlan {
            jitter: 500,
            ..Default::default()
        });
        let jittered = Network::new(cfg, FloodPolicy).run();
        // Jitter delays messages but drops none: same reachability.
        assert_eq!(jittered.metrics.lost_messages, 0);
        assert!(
            (jittered.metrics.success_rate - clean.metrics.success_rate).abs() < 0.05,
            "jitter alone changed success: {} vs {}",
            jittered.metrics.success_rate,
            clean.metrics.success_rate
        );
        assert!(jittered.end_time > clean.end_time);
    }

    #[test]
    fn retry_recovers_losses_within_attempt_budget() {
        let mut cfg = tiny_cfg(43);
        cfg.queries = 300;
        cfg.faults = Some(FaultPlan {
            loss: 0.30,
            ..Default::default()
        });
        let lossy = Network::new(cfg.clone(), FloodPolicy).run();
        cfg.retry = Some(RetryPolicy {
            deadline: Duration::from_ticks(2_000),
            max_attempts: 3,
            backoff: 2.0,
            ttl_step: 1,
            max_ttl: 7,
        });
        let retried = Network::new(cfg, FloodPolicy).run();
        assert!(retried.metrics.retried > 0, "no retries under 30% loss");
        assert!(
            retried.metrics.success_rate > lossy.metrics.success_rate,
            "retries did not recover losses: {} vs {}",
            retried.metrics.success_rate,
            lossy.metrics.success_rate
        );
        // Attempts bounded: initial + at most (max_attempts-1) retries.
        assert!(retried.total_attempts <= 300 * 3);
        assert!(retried.metrics.retried <= 300 * 2);
        // Proper GUID generators: every attempt drew a fresh GUID.
        let mut proper_cfg = tiny_cfg(43);
        proper_cfg.faulty_fraction = 0.0;
        proper_cfg.faults = Some(FaultPlan {
            loss: 0.30,
            ..Default::default()
        });
        proper_cfg.retry = Some(RetryPolicy::default_with(Duration::from_ticks(2_000), 7));
        let proper = Network::new(proper_cfg, FloodPolicy).run();
        assert_eq!(proper.distinct_query_guids as u64, proper.total_attempts);
    }

    /// Over random budgets, loss rates and deadlines, the retry lifecycle
    /// never exceeds its attempt budget, and with proper generators
    /// every attempt draws a fresh GUID.
    #[test]
    fn retry_bounds_attempts_and_redraws_guids() {
        let mut draw = Rng64::seed_from(23);
        let queries = 60u64;
        for seed in 0..24 {
            let max_attempts = 1 + draw.below(4) as u32;
            let mut cfg = SimConfig::default_with(30, queries as usize, seed);
            cfg.faulty_fraction = 0.0;
            cfg.catalog = CatalogConfig {
                topics: 4,
                files_per_topic: 30,
                ..Default::default()
            };
            cfg.faults = Some(FaultPlan {
                loss: draw.below(700) as f64 / 1000.0,
                ..Default::default()
            });
            cfg.retry = Some(RetryPolicy {
                deadline: Duration::from_ticks(500 + draw.below(4_500)),
                max_attempts,
                backoff: 2.0,
                ttl_step: 1,
                max_ttl: 8,
            });
            let r = Network::new(cfg, FloodPolicy).run();
            let budget = u64::from(max_attempts);
            assert!(r.total_attempts <= queries * budget, "seed {seed}");
            assert!(r.metrics.retried <= queries * (budget - 1), "seed {seed}");
            assert_eq!(
                r.distinct_query_guids as u64, r.total_attempts,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn exhausted_queries_are_marked_expired() {
        let mut cfg = tiny_cfg(47);
        cfg.queries = 200;
        cfg.faults = Some(FaultPlan {
            loss: 0.85,
            ..Default::default()
        });
        cfg.retry = Some(RetryPolicy {
            deadline: Duration::from_ticks(1_500),
            max_attempts: 2,
            backoff: 1.5,
            ttl_step: 0,
            max_ttl: 6,
        });
        let result = Network::new(cfg, FloodPolicy).run();
        assert!(
            result.metrics.expired > 0,
            "85% loss with 2 attempts must expire some queries"
        );
        assert!(result.metrics.expired <= result.metrics.queries);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let cfg = || {
            let mut c = tiny_cfg(51);
            c.faults = Some(FaultPlan {
                loss: 0.10,
                jitter: 100,
                crash: 0.05,
                silent: 0.05,
            });
            c.retry = Some(RetryPolicy::default_with(Duration::from_ticks(2_000), 7));
            c
        };
        let a = Network::new(cfg(), FloodPolicy).run();
        let b = Network::new(cfg(), FloodPolicy).run();
        assert_eq!(a.metrics.query_messages, b.metrics.query_messages);
        assert_eq!(a.metrics.lost_messages, b.metrics.lost_messages);
        assert_eq!(a.metrics.retried, b.metrics.retried);
        assert_eq!(a.metrics.expired, b.metrics.expired);
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn rejects_ring_plus_retry() {
        let mut cfg = tiny_cfg(1);
        cfg.ring = Some(RingSchedule {
            ttls: vec![2, 5],
            wait: Duration::from_ticks(1_000),
        });
        cfg.retry = Some(RetryPolicy::default_with(Duration::from_ticks(1_000), 7));
        Network::new(cfg, FloodPolicy);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn rejects_bad_fault_plan() {
        let mut cfg = tiny_cfg(1);
        cfg.faults = Some(FaultPlan {
            loss: 1.5,
            ..Default::default()
        });
        Network::new(cfg, FloodPolicy);
    }

    #[test]
    fn zero_capacity_link_plan_is_byte_identical_to_no_plan() {
        use arq_simkern::ToJson;
        let clean = Network::new(tiny_cfg(53), FloodPolicy).run();
        let mut cfg = tiny_cfg(53);
        cfg.links = Some(LinkPlan::default());
        let noop = Network::new(cfg, FloodPolicy).run();
        assert_eq!(
            clean.metrics.to_json().to_string(),
            noop.metrics.to_json().to_string(),
            "zero-capacity link config diverged from the pre-link baseline"
        );
        assert_eq!(clean.metrics.digest(), noop.metrics.digest());
        assert_eq!(clean.end_time, noop.end_time);
        assert_eq!(clean.total_attempts, noop.total_attempts);
        assert!(noop.link_bytes.is_none(), "noop plan built link state");
    }

    /// A small random world per seed: the shapes the property suite
    /// used to draw, from a seeded stream instead.
    fn random_cfg(seed: u64, shape: &mut Rng64) -> SimConfig {
        let mut cfg = SimConfig::default_with(10 + shape.index(40), 10 + shape.index(70), seed);
        cfg.catalog = CatalogConfig {
            topics: 4,
            files_per_topic: 30,
            ..Default::default()
        };
        cfg
    }

    /// An all-zero fault plan and an all-zero link plan are each
    /// behaviorally invisible, for any seed and shape: byte-identical
    /// to no plan at all, and neither builds link state.
    #[test]
    fn zero_plans_are_identity_across_seeds() {
        for seed in 0..12 {
            let cfg = random_cfg(seed, &mut Rng64::seed_from(seed));
            let clean = Network::new(cfg.clone(), FloodPolicy).run();
            let mut zero_faults = cfg.clone();
            zero_faults.faults = Some(FaultPlan::default());
            let mut zero_links = cfg;
            zero_links.links = Some(LinkPlan::default());
            for noop_cfg in [zero_faults, zero_links] {
                let noop = Network::new(noop_cfg, FloodPolicy).run();
                assert_eq!(clean.metrics.digest(), noop.metrics.digest(), "seed {seed}");
                assert_eq!(clean.end_time, noop.end_time, "seed {seed}");
                assert_eq!(clean.total_attempts, noop.total_attempts, "seed {seed}");
                assert!(noop.link_bytes.is_none(), "seed {seed}: built link state");
            }
        }
    }

    /// Byte conservation across random bandwidth, buffer, loss, jitter
    /// and free-rider settings, with the loss split at random between
    /// the two plans that can ask for it: every byte offered to the link
    /// layer is delivered, loss-dropped or buffer-dropped once the run
    /// drains.
    #[test]
    fn byte_ledger_conserves_across_seeds() {
        for seed in 0..12 {
            let mut shape = Rng64::seed_from(seed);
            let mut cfg = random_cfg(seed, &mut shape);
            let up = 4 + shape.below(60);
            let loss = shape.below(300) as f64 / 1000.0;
            let from_faults = shape.chance(0.5);
            cfg.links = Some(LinkPlan {
                up: up as f64,
                down: (up * (1 + shape.below(7))) as f64,
                up_buf: 256 + shape.below(3_840),
                down_buf: 1_024 + shape.below(15_360),
                loss: if from_faults { 0.0 } else { loss },
                jitter: shape.below(30),
                riders: shape.below(500) as f64 / 1000.0,
                rider_up: (up as f64 / 4.0).max(1.0),
            });
            if from_faults {
                cfg.faults = Some(FaultPlan {
                    loss,
                    ..Default::default()
                });
            }
            let r = Network::new(cfg, FloodPolicy).run();
            let (sent, delivered, lost, buffered) = r.link_bytes.expect("link ledger");
            assert_eq!(sent, delivered + lost + buffered, "seed {seed}: leak");
            assert_eq!(sent, r.metrics.bytes, "seed {seed}: ledger vs metrics");
            assert_eq!(r.metrics.buffer_dropped > 0, buffered > 0, "seed {seed}");
            assert_eq!(r.metrics.lost_messages > 0, lost > 0, "seed {seed}");
            if loss == 0.0 {
                assert_eq!(lost, 0, "seed {seed}");
            }
        }
    }

    /// Whole-simulation sanity across random small configurations under
    /// fault-plan loss: answered ≤ answerable ≤ queries, message counts
    /// are consistent, and everything is finite.
    #[test]
    fn simulation_invariants_hold_across_seeds() {
        for seed in 0..12 {
            let mut shape = Rng64::seed_from(seed);
            let mut cfg = random_cfg(seed, &mut shape);
            let (nodes, queries) = (cfg.nodes as u64, cfg.queries as u64);
            cfg.ttl = 2 + shape.below(5) as u32;
            cfg.topology = Topology::BarabasiAlbert { m: 2 };
            cfg.faults = Some(FaultPlan {
                loss: shape.below(400) as f64 / 1000.0,
                ..Default::default()
            });
            let ttl = cfg.ttl;
            let m = Network::new(cfg, FloodPolicy).run().metrics;
            assert_eq!(m.queries, queries, "seed {seed}");
            assert!(m.answered <= m.answerable, "seed {seed}");
            assert!(m.answerable <= m.queries, "seed {seed}");
            assert!((0.0..=1.0).contains(&m.success_rate), "seed {seed}");
            assert!(m.messages_per_query >= 0.0, "seed {seed}");
            // A TTL-limited flood sends at most degree^ttl-ish messages;
            // a generous global bound catches runaway relaying.
            assert!(
                m.query_messages < queries * nodes * 10,
                "seed {seed}: query messages exploded: {}",
                m.query_messages
            );
            if let Some(h) = &m.first_hit_hops {
                assert!(h.max <= f64::from(ttl), "seed {seed}");
            }
        }
    }

    #[test]
    fn bandwidth_queueing_delays_delivery_and_conserves_bytes() {
        let clean = Network::new(tiny_cfg(59), FloodPolicy).run();
        let mut cfg = tiny_cfg(59);
        cfg.links = Some(LinkPlan {
            up: 8.0,
            down: 32.0,
            up_buf: 1 << 16,
            down_buf: 1 << 18,
            ..Default::default()
        });
        let slow = Network::new(cfg, FloodPolicy).run();
        // Generous buffers: nothing dropped, but uploads serialize.
        assert_eq!(slow.metrics.lost_messages, 0);
        assert_eq!(slow.metrics.buffer_dropped, 0);
        assert!(
            slow.end_time > clean.end_time,
            "queueing did not stretch the run: {:?} vs {:?}",
            slow.end_time,
            clean.end_time
        );
        let (sent, delivered, lost, buffered) = slow.link_bytes.expect("link ledger");
        assert_eq!(sent, delivered + lost + buffered, "bytes leaked in flight");
        assert_eq!(sent, slow.metrics.bytes, "ledger disagrees with metrics");
    }

    #[test]
    fn full_buffers_drop_without_double_counting() {
        let mut cfg = tiny_cfg(61);
        cfg.links = Some(LinkPlan {
            up: 2.0,
            up_buf: 256,
            ..Default::default()
        });
        let m = Network::new(cfg, FloodPolicy).run().metrics;
        assert!(m.buffer_dropped > 0, "tight uplink buffers dropped nothing");
        // No loss process configured: every drop is a buffer drop, and
        // the two counters never double-count a message.
        assert_eq!(m.lost_messages, 0);
        assert!(m.success_rate < 1.0);
    }

    /// `faults(loss=,jitter=)` is sugar for `links(loss=,jitter=)`: one
    /// process, one stream, one draw order, rolled once at send — so
    /// the two spellings are the same run, and a fault plan beside a
    /// link plan composes as `1 − (1−a)(1−b)`.
    #[test]
    fn link_layer_subsumes_fault_loss_and_jitter() {
        let fingerprint = |r: &SimResult| (r.metrics.digest(), r.end_time, r.link_bytes);
        let faults = |loss, jitter| FaultPlan {
            loss,
            jitter,
            ..Default::default()
        };
        let links = |loss, jitter| LinkPlan {
            loss,
            jitter,
            ..Default::default()
        };
        let (a, b) = (0.2, 0.1);
        for seed in 1..=6 {
            let with = |faults: Option<FaultPlan>, links: Option<LinkPlan>| {
                let mut cfg = tiny_cfg(seed);
                cfg.faults = faults;
                cfg.links = links;
                Network::new(cfg, FloodPolicy).run()
            };
            let sugar = with(Some(faults(0.3, 100)), None);
            let plain = with(None, Some(links(0.3, 100)));
            assert_eq!(
                fingerprint(&sugar),
                fingerprint(&plain),
                "seed {seed}: faults(loss,jitter) is not links(loss,jitter)"
            );
            // The byte ledger covers a run whose only impairment came
            // from the fault plan.
            assert!(sugar.metrics.lost_messages > 0, "seed {seed}");
            let (sent, delivered, lost, buffered) =
                sugar.link_bytes.expect("a lossy run keeps the ledger");
            assert_eq!(sent, delivered + lost + buffered, "seed {seed}");
            assert_eq!(sent, sugar.metrics.bytes, "seed {seed}");
            assert!(lost > 0 && buffered == 0, "seed {seed}");

            let both = with(Some(faults(a, 0)), Some(links(b, 0)));
            let folded = with(None, Some(links(1.0 - (1.0 - a) * (1.0 - b), 0)));
            assert_eq!(
                fingerprint(&both),
                fingerprint(&folded),
                "seed {seed}: loss does not compose as 1-(1-a)(1-b)"
            );
        }
    }

    #[test]
    fn free_rider_links_throttle_upload() {
        let mut cfg = tiny_cfg(71);
        cfg.links = Some(LinkPlan {
            up: 50.0,
            up_buf: 1 << 14,
            riders: 0.4,
            rider_up: 1.0,
            ..Default::default()
        });
        let throttled = Network::new(cfg, FloodPolicy).run();
        let mut clean_cfg = tiny_cfg(71);
        clean_cfg.links = Some(LinkPlan {
            up: 50.0,
            up_buf: 1 << 14,
            ..Default::default()
        });
        let clean = Network::new(clean_cfg, FloodPolicy).run();
        assert!(
            throttled.end_time > clean.end_time,
            "rider uplinks did not slow the network"
        );
    }

    #[test]
    fn retry_deadline_starts_at_send_completion() {
        let mut cfg = tiny_cfg(73);
        cfg.queries = 150;
        cfg.retry = Some(RetryPolicy::default_with(Duration::from_ticks(2_000), 7));
        cfg.links = Some(LinkPlan {
            up: 2.0,
            up_buf: 1 << 15,
            ..Default::default()
        });
        let r = Network::new(cfg, FloodPolicy).run();
        // Slow uplinks push send completion past the offer time; a
        // deadline clocked from offer time would expire queries whose
        // sends were still queued. Clocked from send time, the
        // lifecycle stays bounded and consistent.
        assert!(r.total_attempts <= 150 * 3);
        assert!(r.metrics.expired <= r.metrics.queries);
        let (sent, delivered, lost, buffered) = r.link_bytes.expect("ledger");
        assert_eq!(sent, delivered + lost + buffered);
    }

    #[test]
    fn link_runs_are_deterministic() {
        let cfg = || {
            let mut c = tiny_cfg(79);
            c.links = Some(LinkPlan {
                up: 6.0,
                down: 24.0,
                up_buf: 2_048,
                down_buf: 8_192,
                loss: 0.05,
                jitter: 40,
                riders: 0.2,
                rider_up: 2.0,
            });
            c.retry = Some(RetryPolicy::default_with(Duration::from_ticks(4_000), 7));
            c
        };
        let a = Network::new(cfg(), FloodPolicy).run();
        let b = Network::new(cfg(), FloodPolicy).run();
        assert_eq!(a.metrics.digest(), b.metrics.digest());
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.link_bytes, b.link_bytes);
    }

    #[test]
    #[should_panic(expected = "invalid link plan")]
    fn rejects_bad_link_plan() {
        let mut cfg = tiny_cfg(1);
        cfg.links = Some(LinkPlan {
            up_buf: 100, // buffer without bandwidth
            ..Default::default()
        });
        Network::new(cfg, FloodPolicy);
    }

    #[test]
    #[should_panic(expected = "network too small")]
    fn rejects_tiny_networks() {
        let cfg = SimConfig::default_with(2, 10, 0);
        Network::new(cfg, FloodPolicy);
    }

    #[test]
    #[should_panic(expected = "invalid adapt plan")]
    fn rejects_bad_adapt_plan() {
        let mut cfg = tiny_cfg(1);
        cfg.adapt = Some(AdaptPlan {
            every: Duration::from_ticks(0),
            budget: 8,
            degree: 2,
        });
        Network::new(cfg, FloodPolicy);
    }

    #[test]
    fn adapt_plan_over_non_proposing_policy_is_byte_identical() {
        let clean = Network::new(tiny_cfg(83), FloodPolicy).run();
        let mut cfg = tiny_cfg(83);
        cfg.adapt = Some(AdaptPlan::default_with(Duration::from_ticks(10_000)));
        let adapted = Network::new(cfg, FloodPolicy).run();
        assert_eq!(clean.metrics.digest(), adapted.metrics.digest());
        assert_eq!(clean.end_time, adapted.end_time);
        assert_eq!(clean.total_attempts, adapted.total_attempts);
    }

    /// A stub that proposes a shortcut from node 0 to every live
    /// non-neighbor and always vouches for applied shortcuts — it
    /// isolates the simulator's propose/apply/retire machinery from any
    /// real learning.
    struct ProposeEverywhere;

    impl ForwardingPolicy for ProposeEverywhere {
        fn name(&self) -> &'static str {
            "propose-everywhere"
        }

        fn select(&mut self, ctx: &ForwardCtx<'_>, _rng: &mut Rng64) -> Vec<NodeId> {
            ctx.candidates.to_vec()
        }

        fn propose_shortcuts(&self, graph: &Graph) -> Vec<ShortcutProposal> {
            let asker = NodeId(0);
            if !graph.is_alive(asker) {
                return Vec::new();
            }
            graph
                .live_nodes()
                .filter(|&n| n != asker && !graph.has_edge(asker, n))
                .map(|target| ShortcutProposal {
                    asker,
                    target,
                    via: asker,
                })
                .collect()
        }

        fn shortcut_active(&self, _asker: NodeId, _target: NodeId, _via: NodeId) -> bool {
            true
        }
    }

    #[test]
    fn adaptation_applies_proposals_under_budget_and_rejects_crashed_endpoints() {
        use arq_obs::ObsConfig;
        let mut cfg = tiny_cfg(89);
        cfg.queries = 400;
        // Churn faster than the round interval: endpoints proposed at one
        // boundary are regularly gone by the next, exercising the
        // crash-between-phases rejection path.
        cfg.churn = Some(ChurnConfig {
            mean_session: Duration::from_ticks(30_000),
            mean_downtime: Duration::from_ticks(30_000),
            pinned: vec![NodeId(0)],
        });
        cfg.adapt = Some(AdaptPlan {
            every: Duration::from_ticks(20_000),
            budget: 1_000,
            degree: 3,
        });
        let net = Network::new(cfg, ProposeEverywhere).with_obs(Obs::enabled(ObsConfig {
            events: false,
            ..Default::default()
        }));
        let (result, _policy, graph) = net.run_full();
        let registry = &result.obs.expect("obs attached").registry;
        let added = registry.counter_value("shortcut_added").unwrap_or(0);
        let rejected = registry.counter_value("shortcut_rejected").unwrap_or(0);
        let retired = registry.counter_value("shortcut_retired").unwrap_or(0);
        assert!(added > 0, "no shortcuts applied");
        assert!(
            rejected > 0,
            "churn between boundaries produced no liveness rejections"
        );
        assert!(retired > 0, "departing endpoints retired no shortcuts");
        // The per-node ownership cap bounds node 0's shortcut fan-in: its
        // degree is base edges (BA seed m=3 side) plus at most 3 owned
        // shortcuts at any instant, and retirement keeps it from
        // ratcheting to the whole network.
        assert!(
            graph.degree(NodeId(0)) <= 50,
            "degree budget failed to bound shortcut ownership"
        );
        assert_eq!(result.metrics.queries, 400);
    }

    #[test]
    fn adaptation_runs_are_deterministic() {
        let cfg = || {
            let mut c = tiny_cfg(97);
            c.churn = Some(ChurnConfig {
                mean_session: Duration::from_ticks(50_000),
                mean_downtime: Duration::from_ticks(25_000),
                pinned: vec![NodeId(0)],
            });
            c.adapt = Some(AdaptPlan::default_with(Duration::from_ticks(15_000)));
            c
        };
        let a = Network::new(cfg(), ProposeEverywhere).run();
        let b = Network::new(cfg(), ProposeEverywhere).run();
        assert_eq!(a.metrics.digest(), b.metrics.digest());
        assert_eq!(a.end_time, b.end_time);
    }

    /// The node outside `ctx.candidates` that a [`Rogue`] policy adds.
    #[derive(Clone, Copy)]
    enum Stray {
        NonNeighbor,
        From,
        Departed,
    }

    /// Floods, and wherever it can also selects its stray node — a
    /// non-candidate the relay's check must reject. Its departed
    /// neighbor was a candidate at some earlier relay, so the check must
    /// tell this relay's candidates from earlier ones.
    struct Rogue {
        stray: Stray,
        first_neighbors: Vec<Vec<NodeId>>,
        alive: Vec<bool>,
        was_candidate: Vec<bool>,
    }

    impl ForwardingPolicy for Rogue {
        fn name(&self) -> &'static str {
            "rogue"
        }

        fn init(&mut self, graph: &Graph, _: &WorkloadGen, _: &Catalog) {
            self.first_neighbors = graph.nodes().map(|n| graph.neighbors(n).to_vec()).collect();
            self.alive = vec![true; graph.len()];
            self.was_candidate = vec![false; graph.len()];
        }

        fn on_topology_change(&mut self, graph: &Graph) {
            self.alive = graph.nodes().map(|n| graph.is_alive(n)).collect();
        }

        fn select(&mut self, ctx: &ForwardCtx<'_>, _rng: &mut Rng64) -> Vec<NodeId> {
            for c in ctx.candidates {
                self.was_candidate[c.index()] = true;
            }
            let stray = match self.stray {
                Stray::NonNeighbor => (0..self.alive.len() as u32).map(NodeId).find(|&n| {
                    n != ctx.node && Some(n) != ctx.from && !ctx.candidates.contains(&n)
                }),
                Stray::From => ctx.from,
                Stray::Departed => self.first_neighbors[ctx.node.index()]
                    .iter()
                    .copied()
                    .find(|n| !self.alive[n.index()] && self.was_candidate[n.index()]),
            };
            ctx.candidates.iter().copied().chain(stray).collect()
        }
    }

    fn run_rogue(stray: Stray) {
        let mut cfg = tiny_cfg(101);
        cfg.churn = Some(ChurnConfig {
            mean_session: Duration::from_ticks(20_000),
            mean_downtime: Duration::from_ticks(10_000),
            pinned: vec![],
        });
        let rogue = Rogue {
            stray,
            first_neighbors: Vec::new(),
            alive: Vec::new(),
            was_candidate: Vec::new(),
        };
        Network::new(cfg, rogue).run();
    }

    #[test]
    #[should_panic(expected = "selected non-candidate")]
    fn relay_rejects_a_selected_non_neighbor() {
        run_rogue(Stray::NonNeighbor);
    }

    #[test]
    #[should_panic(expected = "selected non-candidate")]
    fn relay_rejects_selecting_the_sender() {
        run_rogue(Stray::From);
    }

    #[test]
    #[should_panic(expected = "selected non-candidate")]
    fn relay_rejects_a_departed_neighbor() {
        run_rogue(Stray::Departed);
    }
}
