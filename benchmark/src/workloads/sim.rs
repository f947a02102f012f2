//! `sim-flood`, `sim-scale`, `sim-links` — the exact engine as `arq
//! simulate` drives it: registry policy + `Network::new` (set-up), then
//! `Network::run_full` (measured).

use super::Workload;
use crate::harness::{ns_per_call, unit_loop, Ctx, Layers, Loop, Unit};
use crate::metrics::Family;
use crate::span::{Batch, Tracer};
use crate::stats::median;
use arq::content::{Catalog, QueryKey, WorkloadGen};
use arq::core::engine::{make_link_plan, make_policy, make_retry_policy};
use arq::gnutella::node::Upstream;
use arq::gnutella::policy::ForwardCtx;
use arq::gnutella::sim::Topology;
use arq::gnutella::{
    ForwardingPolicy, GuidStore, LinkState, Network, RunMetrics, ShortcutProposal, SimConfig,
};
use arq::obs::{Obs, ObsConfig};
use arq::overlay::{generate, Graph, NodeId};
use arq::simkern::{EventQueue, Rng64, SimTime, StreamFactory};
use arq::trace::Guid;
use std::hint::black_box;
use std::time::Instant;

type BoxPolicy = Box<dyn ForwardingPolicy + Send>;

/// The link plan of `sim-links`, also the plan the `LinkState::transmit`
/// probe runs under on every sim workload.
const LINK_SPEC: &str =
    "links(up=8,down=32,upbuf=2048,downbuf=8192,loss=0.02,jitter=20,riders=0.2,riderup=2)";
const RETRY_SPEC: &str = "retry(deadline=2000,attempts=3,maxttl=8)";

/// Policy calls folded into one span of the traced run.
const BATCH_CALLS: u64 = 1_000;

pub struct Sim {
    name: &'static str,
    why: &'static str,
    nodes: usize,
    /// Queries per measured unit.
    queries: usize,
    policy: &'static str,
    impaired: bool,
    /// The operation `ops_per_s` counts: a message transmitted, or a
    /// query issued.
    op: Op,
}

#[derive(Clone, Copy)]
enum Op {
    Query,
    Message,
}

pub const FLOOD: Sim = Sim {
    name: "sim-flood",
    why: "20k nodes, flood TTL 5: ~14k messages per query, so simkern::queue and gnutella::store \
          do nearly all the work and the policy almost none; op = message transmitted",
    nodes: 20_000,
    queries: 250,
    policy: "flood",
    impaired: false,
    // A flood's cost follows where its issuer sits in the overlay, so
    // queries per second would mostly read the seed; messages per second
    // reads the engine.
    op: Op::Message,
};

pub const SCALE: Sim = Sim {
    name: "sim-scale",
    why: "100k nodes, k-walk(k=4): under 300 messages per query, so per-query fixed cost and \
          set-up at scale dominate and message-path gains should not move it; op = query issued",
    nodes: 100_000,
    queries: 300,
    policy: "k-walk(k=4)",
    impaired: false,
    op: Op::Query,
};

pub const LINKS: Sim = Sim {
    name: "sim-links",
    why:
        "2k nodes, assoc(k=2) under lossy bounded links with retries: core::policy, gnutella::net \
          and the retry lifecycle do the work; a relay-path gain that costs the link path shows \
          here; op = query issued",
    nodes: 2_000,
    queries: 2_000,
    policy: "assoc(k=2)",
    impaired: true,
    op: Op::Query,
};

// ---------------------------------------------------------------------------
// The Timed decorator
// ---------------------------------------------------------------------------

/// Call counts and summed nanoseconds of a [`Timed`] policy.
#[derive(Debug, Default, Clone)]
pub struct PolicyTimes {
    pub select_calls: u64,
    pub select_ns: u64,
    pub on_reply_calls: u64,
    pub on_reply_ns: u64,
    /// `init`, `on_topology_change` and `on_failure`.
    pub other_ns: u64,
    /// Every call above, in call order, [`BATCH_CALLS`] to a batch.
    pub batches: Vec<Batch>,
}

impl PolicyTimes {
    pub fn total_ns(&self) -> u64 {
        self.select_ns + self.on_reply_ns + self.other_ns
    }

    fn push(&mut self, start_ns: u64, ns: u64) {
        match self.batches.last_mut() {
            Some(open) if open.calls < BATCH_CALLS => {
                open.busy_ns += ns;
                open.calls += 1;
            }
            _ => self.batches.push(Batch {
                name: "policy",
                start_ns,
                busy_ns: ns,
                calls: 1,
            }),
        }
    }
}

/// Forwards every `ForwardingPolicy` method to `inner` and times the
/// ones the simulator calls while it runs. Lives in the harness: the
/// program is measured from outside.
pub struct Timed<P> {
    inner: P,
    epoch: Instant,
    pub times: PolicyTimes,
}

impl<P> Timed<P> {
    pub fn new(inner: P, epoch: Instant) -> Self {
        Timed {
            inner,
            epoch,
            times: PolicyTimes::default(),
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut P) -> T) -> (T, u64) {
        let start = Instant::now();
        let value = f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.times.push(start_ns, ns);
        (value, ns)
    }
}

impl<P: ForwardingPolicy> ForwardingPolicy for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, graph: &Graph, workload: &WorkloadGen, catalog: &Catalog) {
        let ((), ns) = self.timed(|p| p.init(graph, workload, catalog));
        self.times.other_ns += ns;
    }

    fn on_topology_change(&mut self, graph: &Graph) {
        let ((), ns) = self.timed(|p| p.on_topology_change(graph));
        self.times.other_ns += ns;
    }

    fn select(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64) -> Vec<NodeId> {
        let (picked, ns) = self.timed(|p| p.select(ctx, rng));
        self.times.select_calls += 1;
        self.times.select_ns += ns;
        picked
    }

    fn select_into(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64, out: &mut Vec<NodeId>) {
        let ((), ns) = self.timed(|p| p.select_into(ctx, rng, out));
        self.times.select_calls += 1;
        self.times.select_ns += ns;
    }

    fn on_reply(&mut self, node: NodeId, upstream: Option<NodeId>, via: NodeId, key: QueryKey) {
        let ((), ns) = self.timed(|p| p.on_reply(node, upstream, via, key));
        self.times.on_reply_calls += 1;
        self.times.on_reply_ns += ns;
    }

    fn on_failure(&mut self, node: NodeId, target: NodeId) {
        let ((), ns) = self.timed(|p| p.on_failure(node, target));
        self.times.other_ns += ns;
    }

    fn stats(&self) -> Vec<(String, f64)> {
        self.inner.stats()
    }

    fn propose_shortcuts(&self, graph: &Graph) -> Vec<ShortcutProposal> {
        self.inner.propose_shortcuts(graph)
    }

    fn shortcut_active(&self, asker: NodeId, target: NodeId, via: NodeId) -> bool {
        self.inner.shortcut_active(asker, target, via)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

/// A built network, its policy plain or decorated.
enum Net {
    Plain(Network<BoxPolicy>),
    Timed(Network<Timed<BoxPolicy>>),
}

/// What one measured unit returned.
struct SimOut {
    metrics: RunMetrics,
    times: Option<PolicyTimes>,
}

impl Sim {
    fn config(&self, ctx: &Ctx) -> SimConfig {
        let mut cfg =
            SimConfig::default_with(ctx.scale.n(self.nodes), ctx.scale.n(self.queries), ctx.seed);
        if self.impaired {
            cfg.links = Some(make_link_plan(LINK_SPEC).expect("a valid link spec"));
            cfg.retry = Some(make_retry_policy(RETRY_SPEC).expect("a valid retry spec"));
        }
        cfg
    }

    /// What `engine::run_live` does before `run_full`, with the policy
    /// decorated when `timed` is set and `obs` attached.
    fn build(&self, mut cfg: SimConfig, timed: Option<Instant>, obs: Obs) -> (Net, String) {
        let built = make_policy(self.policy).expect("a registered policy");
        built.apply_to(&mut cfg);
        let net = match timed {
            Some(epoch) => {
                Net::Timed(Network::new(cfg, Timed::new(built.policy, epoch)).with_obs(obs))
            }
            None => Net::Plain(Network::new(cfg, built.policy).with_obs(obs)),
        };
        (net, built.label)
    }

    /// The time-boxed loop and its last unit's output.
    fn run_inner(&self, ctx: &mut Ctx, seconds: f64, obs: Option<ObsConfig>) -> (Loop, SimOut) {
        let cfg = self.config(ctx);
        let queries = cfg.queries as u64;
        unit_loop(
            &mut ctx.tracer,
            seconds,
            |t: &mut Tracer| {
                let obs = obs.map_or_else(Obs::disabled, Obs::enabled);
                self.build(cfg.clone(), t.enabled().then(|| t.epoch()), obs)
            },
            |_, (net, label)| {
                let (mut metrics, times) = match net {
                    Net::Plain(n) => (n.run_full().0.metrics, None),
                    Net::Timed(n) => {
                        let (result, policy, _) = n.run_full();
                        (result.metrics, Some(policy.times))
                    }
                };
                metrics.policy = label;
                SimOut { metrics, times }
            },
            |t, out: &SimOut, _| {
                if let Some(times) = &out.times {
                    t.adopt(t.last("measure"), &times.batches);
                }
                let m = &out.metrics;
                let ops = match self.op {
                    Op::Query => m.queries,
                    Op::Message => m.query_messages + m.hit_messages,
                };
                Unit {
                    ops,
                    failed: if m.queries == queries { 0 } else { ops },
                    fingerprint: m.digest(),
                }
            },
        )
    }
}

impl Workload for Sim {
    fn name(&self) -> &'static str {
        self.name
    }

    fn family(&self) -> Family {
        Family::Sim
    }

    fn why(&self) -> &'static str {
        self.why
    }

    fn run(&self, ctx: &mut Ctx, seconds: f64) -> Loop {
        self.run_inner(ctx, seconds, None).0
    }

    fn layers(&self, ctx: &mut Ctx, seconds: f64) -> Layers {
        let mut layers = Layers::default();
        ctx.tracer.set_enabled(false);
        let (untraced, plain) = self.run_inner(ctx, seconds / 2.0, None);
        ctx.tracer.set_enabled(true);
        let (traced, timed) = self.run_inner(ctx, seconds / 2.0, None);
        layers.expect(
            "the digest is the same with the policy wrapped in Timed",
            untraced.fingerprint == traced.fingerprint,
        );

        // The run itself: host time per simulated message and query.
        let m = &plain.metrics;
        let wall_s = untraced.unit_median_s();
        let msgs = (m.query_messages + m.hit_messages) as f64;
        layers.set("gnutella.msgs_per_s", msgs / wall_s);
        layers.set("gnutella.ns_per_msg", wall_s * 1e9 / msgs);
        layers.set("gnutella.us_per_query", wall_s * 1e6 / m.queries as f64);
        layers.set("gnutella.success_rate", m.success_rate);
        layers.set("gnutella.msgs_per_query", m.messages_per_query);
        layers.set("gnutella.lost_messages", m.lost_messages as f64);
        layers.set("gnutella.buffer_dropped", m.buffer_dropped as f64);
        layers.note("gnutella.digest", format!("{:016x}", m.digest()));

        // The policy's share, from the decorated run's own wall time.
        let times = timed.times.expect("a traced unit decorates its policy");
        let per_call = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64;
        let share = times.total_ns() as f64 / (traced.unit_median_s() * 1e9);
        layers.set("policy.select_calls", times.select_calls as f64);
        layers.set(
            "policy.select_ns",
            per_call(times.select_ns, times.select_calls),
        );
        layers.set("policy.on_reply_calls", times.on_reply_calls as f64);
        layers.set(
            "policy.on_reply_ns",
            per_call(times.on_reply_ns, times.on_reply_calls),
        );
        layers.set("policy.share", share);
        layers.set("gnutella.self_share", 1.0 - share);

        // Observability on against off: the zero-cost-when-disabled rule.
        ctx.tracer.set_enabled(false);
        let obs_on = ObsConfig {
            events: false,
            series: true,
            fanout_buckets: 16,
        };
        let (observed, _) = self.run_inner(ctx, 0.0, Some(obs_on));
        layers.expect(
            "the digest is the same with obs enabled",
            observed.fingerprint == untraced.fingerprint,
        );
        layers.set("obs.on_overhead_ratio", observed.unit_median_s() / wall_s);
        ctx.tracer.set_enabled(true);

        // Set-up stages, each rebuilt on its own.
        let cfg = self.config(ctx);
        let streams = StreamFactory::new(cfg.seed);
        let t = &mut ctx.tracer;
        let Topology::BarabasiAlbert { m: edges } = cfg.topology else {
            unreachable!("the default topology is Barabasi-Albert");
        };
        let (graph, secs) = t.time("overlay.generate", |_| {
            generate::barabasi_albert(cfg.nodes, edges, &mut streams.stream("topology"))
        });
        black_box(graph);
        layers.set("overlay.generate_s", secs);
        let (catalog, secs) = t.time("content.build", |_| {
            let catalog = Catalog::generate(cfg.catalog.clone(), &mut streams.stream("catalog"));
            let workload = WorkloadGen::generate(
                cfg.nodes,
                &catalog,
                cfg.workload.clone(),
                &mut streams.stream("workload"),
            );
            black_box(workload);
            catalog
        });
        layers.set("content.build_s", secs);
        layers.set("gnutella.network_new_s", median(&untraced.setup_s));

        // Isolated probes at this workload's scale; each share is the
        // probe's cost times the run's own operation count over its wall.
        let wall_ns = wall_s * 1e9;
        let hop = (cfg.hop_latency.0 + cfg.hop_latency.1) / 2;
        let in_flight = m.messages_per_query * hop as f64 / cfg.mean_query_interval.ticks() as f64;
        let depth = (m.queries as f64 / 2.0 + in_flight) as usize;
        let (op_ns, _) = t.time("simkern.queue", |_| queue_op_ns(depth.max(1), hop));
        layers.set("simkern.queue.op_ns", op_ns);
        layers.set(
            "simkern.queue.share",
            op_ns * (msgs + m.queries as f64) / wall_ns,
        );
        layers.note("simkern.queue.depth", depth);
        let (record_ns, _) = t.time("gnutella.store", |_| {
            store_record_ns(cfg.nodes, cfg.guid_cache)
        });
        layers.set("gnutella.store.record_ns", record_ns);
        layers.set(
            "gnutella.store.share",
            record_ns * m.query_messages as f64 / wall_ns,
        );
        let (transmit_ns, _) = t.time("gnutella.net", |_| {
            transmit_ns(cfg.nodes, catalog.len(), hop, streams.stream("links"))
        });
        layers.set("gnutella.net.transmit_ns", transmit_ns);
        let transmits = if self.impaired { msgs } else { 0.0 };
        layers.set("gnutella.net.share", transmit_ns * transmits / wall_ns);

        layers.close(&untraced, &traced);
        layers
    }
}

// ---------------------------------------------------------------------------
// Isolated probes
// ---------------------------------------------------------------------------

const PROBE_ITERS: u64 = 1_000_000;

/// A cheap deterministic sequence for probe operands.
fn scramble(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23)
}

/// One `EventQueue` schedule + pop with `depth` events pending, each
/// rescheduled one hop latency (±50 %) after it fires.
fn queue_op_ns(depth: usize, hop: u64) -> f64 {
    let mut queue = EventQueue::with_capacity(depth);
    for i in 0..depth as u64 {
        queue.schedule(SimTime::from_ticks(scramble(i) % (2 * hop).max(1)), i);
    }
    ns_per_call(PROBE_ITERS, |i| {
        let (at, event) = queue.pop().expect("the queue stays at its depth");
        let delay = hop / 2 + scramble(i) % hop.max(1);
        queue.schedule(SimTime::from_ticks(at.ticks() + delay), black_box(event));
    })
}

/// One `GuidStore::has_seen` + `record` of a fresh GUID, spread over
/// `nodes` nodes.
fn store_record_ns(nodes: usize, cache: usize) -> f64 {
    let mut store = GuidStore::new(nodes, cache, None);
    ns_per_call(PROBE_ITERS, |i| {
        let node = NodeId((scramble(i) % nodes as u64) as u32);
        let guid = Guid(u128::from(scramble(i ^ 0xABCD)) << 32 | u128::from(i));
        if !store.has_seen(node, guid) {
            black_box(store.record(node, guid, Upstream::Origin, SimTime::from_ticks(i)));
        }
    })
}

/// One `LinkState::transmit` under the `sim-links` plan between random
/// node pairs, one message per tick.
fn transmit_ns(nodes: usize, files: usize, hop: u64, rng: Rng64) -> f64 {
    let plan = make_link_plan(LINK_SPEC).expect("a valid link spec");
    let sizes = vec![64u32; files];
    let mut links = LinkState::new(&plan, nodes, 0.0, 0, sizes.clone(), sizes, &[], rng);
    ns_per_call(PROBE_ITERS, |i| {
        let from = NodeId((scramble(i) % nodes as u64) as u32);
        let to = NodeId((scramble(i ^ 0x5555) % nodes as u64) as u32);
        black_box(links.transmit(i, from, to, 64, hop));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn timed_wrapper_leaves_the_digest_unchanged_on_a_200_node_run() {
        let sim = Sim {
            nodes: 200,
            queries: 300,
            ..LINKS
        };
        let mut ctx = Ctx {
            seed: 42,
            scale: Scale::FULL,
            tmp: std::env::temp_dir(),
            tracer: Tracer::new(),
        };
        let (plain_loop, plain) = sim.run_inner(&mut ctx, 0.0, None);
        ctx.tracer.set_enabled(true);
        let (timed_loop, timed) = sim.run_inner(&mut ctx, 0.0, None);
        assert_eq!(plain.metrics.digest(), timed.metrics.digest());
        assert_eq!(plain_loop.fingerprint, timed_loop.fingerprint);
        assert_eq!((plain_loop.failed, timed_loop.failed), (0, 0));

        // The decorator saw the run's calls and handed its batches over.
        assert!(plain.times.is_none());
        let times = timed.times.expect("the traced unit is decorated");
        assert!(times.select_calls > 0 && times.on_reply_calls > 0);
        let batched: u64 = times.batches.iter().map(|b| b.calls).sum();
        assert!(batched >= times.select_calls + times.on_reply_calls);
        let measure = ctx.tracer.last("measure").expect("a measure span");
        let adopted = ctx
            .tracer
            .spans()
            .iter()
            .filter(|s| s.parent == Some(measure) && s.name == "policy")
            .count();
        assert_eq!(adopted, times.batches.len());
    }
}
