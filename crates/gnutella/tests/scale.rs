//! Release-profile scale smoke tests: one 100k-node walk and one
//! 20k-node flood, both on the simulator's one engine.
//!
//! The 100k-node case runs k-walkers under loss, jitter, crashes,
//! silent free-riders, session churn and deadline-driven retries, and
//! checks that nothing on the event path allocates in proportion to the
//! network or to the traffic:
//!
//! 1. **bytes per query** — bytes allocated per issued query stay under
//!    a fixed budget (a live-node list per issue alone would be 400 KB);
//! 2. **allocation-free relay path** — doubling the query volume barely
//!    moves the allocation count: the marginal allocations per marginal
//!    message stay under 0.3, so the steady-state relay loop is
//!    not allocating per message (the absolute count is dominated by
//!    one-time O(nodes) set-up, which the marginal rate cancels out);
//! 3. **bounded peak heap** — peak heap growth is a fixed price per
//!    message, so doubling the queries does not double it.
//!
//! The 20k-node flood is the shape where the message path's two
//! structures (GUID store, event queue) are nearly all of the heap; it
//! bounds peak heap per message.
//!
//! Those two tests are `#[ignore]`d: they are capacity runs, meant for
//! `cargo test --release -p arq-gnutella --test scale -- --ignored`.
//! One more runs in every profile: building a network costs a handful
//! of allocations, not a few per node — its overlay, libraries,
//! interest profiles and GUID generators live in per-network arenas.

use arq_gnutella::policy::{ForwardCtx, ForwardingPolicy};
use arq_gnutella::sim::{Network, RetryPolicy, SimConfig, SimResult};
use arq_gnutella::{FaultPlan, FloodPolicy};
use arq_overlay::{ChurnConfig, NodeId};
use arq_simkern::time::Duration;
use arq_simkern::Rng64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counting wrapper around the system allocator: tracks total
/// allocation calls and bytes plus live and peak heap bytes.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let live =
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A k-walker policy with O(1) state and an allocation-free hot path:
/// the issuer launches `k` walkers, every relay forwards to one random
/// neighbor. Message count per query is bounded by `k × TTL` no matter
/// how large the network is.
struct WalkPolicy {
    k: usize,
}

impl ForwardingPolicy for WalkPolicy {
    fn name(&self) -> &'static str {
        "scale-walk"
    }

    fn select(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.select_into(ctx, rng, &mut out);
        out
    }

    fn select_into(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64, out: &mut Vec<NodeId>) {
        let want = if ctx.from.is_none() { self.k } else { 1 };
        let n = ctx.candidates.len();
        if n <= want {
            out.extend_from_slice(ctx.candidates);
            return;
        }
        // Draw distinct indices; `want` is tiny so linear probing from a
        // random start on collision keeps this exact and allocation-free.
        for _ in 0..want {
            let mut i = rng.index(n);
            while out.contains(&ctx.candidates[i]) {
                i = (i + 1) % n;
            }
            out.push(ctx.candidates[i]);
        }
    }
}

/// 100k nodes under every fault and churn mechanism at once. Query and
/// churn volume are sized so the run finishes in seconds in release
/// mode.
fn scale_cfg(nodes: usize, queries: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default_with(nodes, queries, seed);
    cfg.mean_query_interval = Duration::from_ticks(20);
    cfg.churn = Some(ChurnConfig {
        mean_session: Duration::from_ticks(2_000_000),
        mean_downtime: Duration::from_ticks(1_000_000),
        pinned: vec![],
    });
    cfg.faults = Some(FaultPlan {
        loss: 0.05,
        jitter: 40,
        crash: 0.01,
        silent: 0.05,
    });
    cfg.retry = Some(RetryPolicy::default_with(Duration::from_ticks(4_000), 12));
    cfg.guid_expiry = Some(Duration::from_ticks(500_000));
    cfg
}

/// The allocator counters are process-wide and the test harness runs
/// tests on parallel threads: each test holds this lock throughout.
static COUNTING: Mutex<()> = Mutex::new(());

/// What one run allocated, network construction excluded.
struct Counted {
    result: SimResult,
    /// Allocation calls.
    calls: u64,
    /// Bytes requested over all allocation calls.
    bytes: u64,
    /// Peak heap growth over the heap at the start of the run.
    peak_growth: u64,
}

/// Runs `network`, counting the allocations of the run itself.
fn run_counted<P: ForwardingPolicy>(network: Network<P>) -> Counted {
    let calls_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live_before, Ordering::Relaxed);
    let result = network.run();
    Counted {
        result,
        calls: ALLOC_CALLS.load(Ordering::Relaxed) - calls_before,
        bytes: ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before,
        peak_growth: PEAK_BYTES
            .load(Ordering::Relaxed)
            .saturating_sub(live_before),
    }
}

/// Allocation calls made by `Network::new` on the default config at
/// `nodes` nodes.
fn network_new_calls(nodes: usize) -> u64 {
    let cfg = SimConfig::default_with(nodes, 100, 7);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let network = Network::new(cfg, FloodPolicy);
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    drop(network);
    calls
}

/// Building a network allocates per network, not per node: doubling
/// the nodes from 4 000 to 8 000 adds under 0.05 allocation calls per
/// added node (measured: one extra call in all; with a `Vec` per node's neighbors,
/// library, profile and faulty GUID pool it was 6.4).
#[test]
fn network_new_allocates_per_network_not_per_node() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (network_new_calls(4_000), network_new_calls(8_000));
    let per_node = large.saturating_sub(small) as f64 / 4_000.0;
    assert!(
        per_node < 0.05,
        "Network::new made {small} allocation calls at 4 000 nodes and {large} at 8 000: \
         {per_node:.3} per added node"
    );
}

/// The 100k-node walk network.
fn walk_network(queries: usize) -> Network<WalkPolicy> {
    Network::new(scale_cfg(100_000, queries, 29), WalkPolicy { k: 3 })
}

fn messages(r: &SimResult) -> f64 {
    r.metrics.messages_per_query * r.metrics.queries as f64
}

#[test]
#[ignore = "capacity run: release profile, ~100k nodes"]
fn hundred_k_nodes_exact_engine_allocates_per_query_not_per_node() {
    const QUERIES: usize = 5_000;
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());

    let base = run_counted(walk_network(QUERIES));
    let double = run_counted(walk_network(2 * QUERIES));
    assert_eq!(base.result.metrics.queries, QUERIES as u64);
    assert_eq!(double.result.metrics.queries, 2 * QUERIES as u64);
    let base_msgs = messages(&base.result);
    let double_msgs = messages(&double.result);
    assert!(
        base_msgs > 50_000.0,
        "run too small to measure: {base_msgs}"
    );
    assert!(double_msgs > base_msgs, "doubling queries shrank traffic");

    // The run did real routing work under faults.
    let m = &base.result.metrics;
    assert!(m.success_rate > 0.0, "no query ever succeeded");
    assert!(m.lost_messages > 0, "loss injection inert");
    assert!(m.retried > 0, "retry lifecycle inert");

    // Everything a query, its retries and the churn beside it allocate:
    // query records, GUID map and event-queue growth, a rejoining node's
    // picks (measured: 1.9 KB). One live-node list per issue would alone
    // be 4 × NODES bytes.
    const BYTES_PER_QUERY_BUDGET: u64 = 8 * 1024;
    for run in [&base, &double] {
        let per_query = run.bytes / run.result.metrics.queries;
        assert!(
            per_query < BYTES_PER_QUERY_BUDGET,
            "{per_query} bytes allocated per issued query exceeds the \
             {BYTES_PER_QUERY_BUDGET} byte budget"
        );
    }

    // The relay path reuses pooled buffers: the extra messages of the
    // doubled run cost almost no extra allocations (measured: 0.19).
    let extra_calls = double.calls.saturating_sub(base.calls);
    let marginal = extra_calls as f64 / (double_msgs - base_msgs);
    assert!(
        marginal < 0.3,
        "{extra_calls} extra allocations over {:.0} extra messages ({marginal:.2}/msg): \
         relay path is allocating per message",
        double_msgs - base_msgs
    );

    // Peak heap is the GUID memory of the messages delivered so far
    // (nothing expires inside this horizon) plus the event queue: a
    // fixed price per message (measured: 50 bytes), so twice the
    // queries need less than twice the heap.
    const PEAK_BYTES_PER_MESSAGE_BUDGET: f64 = 100.0;
    for run in [&base, &double] {
        let per_message = run.peak_growth as f64 / messages(&run.result);
        assert!(
            per_message < PEAK_BYTES_PER_MESSAGE_BUDGET,
            "peak heap grew {per_message:.0} bytes per message"
        );
    }
    assert!(
        double.peak_growth < 2 * base.peak_growth,
        "peak heap growth went from {} to {} bytes when queries doubled",
        base.peak_growth,
        double.peak_growth
    );
}

/// The `sim-flood` shape: every query reaches most of the network, so
/// peak heap is what 20 000 nodes remember of 250 floods (a 16-byte
/// FIFO cell and a 4-byte dense-table entry per first sighting) plus
/// the events of the floods in flight — not a table sized for the whole network, nor a buffer
/// per calendar bucket sized for the busiest tick.
#[test]
#[ignore = "capacity run: release profile, 20k-node flood"]
fn twenty_k_node_flood_peak_heap_follows_what_nodes_remember() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SimConfig::default_with(20_000, 250, 7);
    let run = run_counted(Network::new(cfg, FloodPolicy));
    let msgs = messages(&run.result);
    assert!(msgs > 2_000_000.0, "run too small to measure: {msgs}");
    // Measured: 19 bytes per message (52 MB); with per-node rings and
    // hash tables per GUID: 26; with the network-wide `(node, guid)`
    // table and per-bucket buffers: 100.
    const PEAK_BYTES_PER_MESSAGE_BUDGET: f64 = 30.0;
    let per_message = run.peak_growth as f64 / msgs;
    assert!(
        per_message < PEAK_BYTES_PER_MESSAGE_BUDGET,
        "peak heap grew {per_message:.0} bytes per message ({} bytes)",
        run.peak_growth
    );
}
