//! Windowed, sharded execution of the live simulator.
//!
//! [`Network::run_full`] is exact: one global event queue, every delivery
//! processed in `(time, seq)` order. That engine is inherently serial —
//! every message delivery may touch policy state and RNG streams. This
//! module adds an **opt-in** second engine, [`Network::run_sharded`],
//! that trades a small, documented semantic relaxation for node-sharded
//! parallelism at 100k–1M nodes.
//!
//! # Execution model
//!
//! Time is cut into fixed windows of `W = hop_latency.lo` ticks. Every
//! transmission takes at least `W` ticks, so a message sent inside window
//! `k` is always delivered in window `k+1` or later: when a window opens,
//! its complete delivery set is already known. Each window runs three
//! phases:
//!
//! 1. **Control (serial):** churn up to the window start, then all
//!    control events (query issues, retry deadlines, ring timeouts,
//!    crashes) inside the window, in `(time, seq)` order. Sends from
//!    this phase land in strictly later windows.
//! 2. **Delivery verdicts (parallel):** the window's deliveries, sorted
//!    by `(send time, send seq)`, are partitioned by destination node
//!    across shards. Each shard walks the full window in order but
//!    touches only its own nodes, computing per-delivery *verdicts*
//!    (dead/duplicate/accepted, local-match hit route, relay candidate
//!    list) against its own [`GuidStore`] range and the frozen graph,
//!    library, and silent-node sets. No RNG is consumed here: every
//!    draw-consuming action is deferred.
//! 3. **Replay (serial):** the same global `(time, seq)` order replays
//!    the verdicts, performing everything order-sensitive: policy
//!    `select`/`on_reply`, metrics, hit delivery, and all RNG draws
//!    (loss, latency, jitter) for the resulting sends.
//!
//! # Determinism
//!
//! Verdicts depend only on per-node state, and every node lives in
//! exactly one shard processing its deliveries in global order, so the
//! verdict of each delivery is independent of the shard decomposition.
//! All RNG draws happen in the serial phases in `(time, seq)` order.
//! Results are therefore **byte-identical for any thread count**,
//! including 1 — which is what lets CI diff digests across
//! `ARQ_THREADS` settings.
//!
//! # Documented deltas vs the exact engine
//!
//! Runs are deterministic and plausible but **not** byte-comparable to
//! [`Network::run_full`]:
//!
//! * churn, crashes, and control events apply at window granularity:
//!   deadlines see hits delivered up to the previous window boundary,
//!   and a node crashing mid-window is dead for that whole window;
//! * GUID age expiry may observe send times up to one window out of
//!   order (bounded by `W` ticks).
//!
//! # Link layer
//!
//! Every message leaves its node through `send_windowed`, as it does
//! through `send` in the exact engine: every link-layer interaction —
//! channel clocks, byte buffers, loss and jitter draws — happens at
//! *send* time in the serial phases, in global `(time, seq)` order, so
//! impaired runs keep the any-thread-count byte-identity guarantee.
//! The delivery ring is sized from
//! [`crate::net::LinkState::max_delay`]; because the ring has no
//! overflow path, rate-limited channels must be buffered and the
//! horizon must fit `MAX_RING_CELLS` windows (the engine rejects other
//! plans up front).
//!
//! Trace collectors are not supported here; instrument runs use the
//! exact engine.

use super::{Event, Network, SimResult};
use crate::faults::FaultState;
use crate::message::{HitMsg, QueryMsg};
use crate::metrics::MetricsBuilder;
use crate::net::{LinkState, Transmission};
use crate::node::Upstream;
use crate::policy::{ForwardCtx, ForwardingPolicy};
use crate::store::GuidStore;
use arq_content::WorkloadGen;
use arq_obs::{DropKind, Event as ObsEvent};
use arq_overlay::churn::ChurnKind;
use arq_overlay::{Graph, NodeId};
use arq_simkern::SimTime;
use std::collections::VecDeque;

/// Below this many deliveries a window is processed inline: thread
/// handoff would cost more than the work. Purely a performance knob —
/// the inline path runs the identical per-shard code in shard order, so
/// results never depend on it.
const PARALLEL_THRESHOLD: usize = 512;

/// Most windows the delivery ring may span: 2^20 empty cells are about
/// 24 MiB, and no plan with a meaningful delay comes near it (the
/// congested E17 profile needs under a hundred).
const MAX_RING_CELLS: u64 = 1 << 20;

/// Cells the delivery ring needs to cover `max_delay` ticks in windows
/// of `w` ticks.
///
/// # Panics
///
/// When the horizon — which a spec's `jitter` or buffer sizes set —
/// needs more than [`MAX_RING_CELLS`] windows.
fn ring_cells(max_delay: u64, w: u64) -> usize {
    let cells = (max_delay / w).saturating_add(2);
    assert!(
        cells <= MAX_RING_CELLS,
        "sharded engine needs a shorter link delay: a horizon of {max_delay} ticks in windows \
         of {w} needs {cells} ring cells (at most {MAX_RING_CELLS}); lower jitter or the buffers"
    );
    cells as usize
}

/// One in-flight message, parked in the delivery ring until its window
/// opens. `seq` is the global send order, the tie-breaker that keeps
/// replay deterministic for same-tick deliveries.
#[derive(Clone, Copy)]
struct Envelope {
    at: u64,
    seq: u64,
    to: NodeId,
    from: NodeId,
    qidx: u32,
    payload: Payload,
}

#[derive(Clone, Copy)]
enum Payload {
    /// A query as delivered (TTL/hops already reflect the hop).
    Query(QueryMsg),
    Hit(HitMsg),
}

/// Where a locally-matched hit goes, resolved in the parallel phase.
#[derive(Clone, Copy)]
enum HitRoute {
    /// Responder is the issuer itself (degenerate GUID reuse).
    Origin,
    /// Reverse-path neighbor, alive at window start.
    Up(NodeId),
    /// Reverse path broken; the hit dies here.
    Lost,
}

/// Outcome of one delivery, computed shard-locally, consumed by replay.
enum Verdict {
    /// Nothing to replay: dead destination, duplicate GUID, or a hit
    /// with no route memory.
    Void,
    /// A fresh query was accepted.
    Query {
        /// Local library match to answer, if any.
        hit: Option<HitRoute>,
        /// Relay candidates parked in the shard arena (`len == 0` when
        /// the node is silent, the TTL is spent, or it has no one to
        /// forward to).
        cand_start: u32,
        cand_len: u32,
    },
    /// A hit was accepted at a node with route memory (`None` = this
    /// node issued the query).
    Hit { upstream: Option<NodeId> },
}

/// Per-worker state: one contiguous node range's GUID memory, plus the
/// window-scoped candidate arena and verdict stream.
struct Shard {
    store: GuidStore,
    arena: Vec<NodeId>,
    verdicts: VecDeque<Verdict>,
}

/// Read-only world the parallel phase sees; frozen for the window.
#[derive(Clone, Copy)]
struct WorldView<'a> {
    graph: &'a Graph,
    workload: &'a WorkloadGen,
    faults: Option<&'a FaultState>,
}

/// Calendar of future delivery windows. Cell `k % cells` holds window
/// `k`'s envelopes; `cells` covers the maximum transmission delay so
/// two pending windows never share a cell.
struct DeliveryRing {
    cells: Vec<Vec<Envelope>>,
    /// Window width in ticks (`hop_latency.lo`).
    w: u64,
    /// Window currently executing; pushes must land strictly later.
    cur: u64,
    /// Next send sequence number.
    seq: u64,
    /// Total parked envelopes.
    pending: usize,
}

impl DeliveryRing {
    fn push(&mut self, at: SimTime, to: NodeId, from: NodeId, qidx: usize, payload: Payload) {
        let window = at.ticks() / self.w;
        debug_assert!(
            window > self.cur && (window - self.cur) < self.cells.len() as u64,
            "delivery window {window} outside ring (cur {})",
            self.cur
        );
        let cell = (window % self.cells.len() as u64) as usize;
        self.cells[cell].push(Envelope {
            at: at.ticks(),
            seq: self.seq,
            to,
            from,
            qidx: qidx as u32,
            payload,
        });
        self.seq += 1;
        self.pending += 1;
    }

    /// Earliest pending delivery window, if any. Every nonempty cell
    /// holds exactly one window's envelopes, so the first entry names it.
    fn earliest_window(&self) -> Option<u64> {
        self.cells
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| c[0].at / self.w)
            .min()
    }
}

/// Computes every verdict for `me`'s nodes, walking the whole window in
/// global order (preserving per-node delivery order). Runs on worker
/// threads; everything it touches is either shard-owned or frozen.
fn shard_verdicts(
    me: usize,
    chunk: usize,
    shard: &mut Shard,
    evs: &[Envelope],
    world: WorldView<'_>,
) {
    shard.arena.clear();
    shard.verdicts.clear();
    for e in evs {
        if e.to.index() / chunk != me {
            continue;
        }
        let v = match e.payload {
            Payload::Query(msg) => {
                if !world.graph.is_alive(e.to)
                    || !shard.store.record(
                        e.to,
                        msg.guid,
                        Upstream::Neighbor(e.from),
                        SimTime::from_ticks(e.at),
                    )
                {
                    Verdict::Void // dead receiver, or a duplicate
                } else {
                    let hit = if world.workload.library(e.to.index()).matches(msg.key) {
                        Some(match shard.store.upstream(e.to, msg.guid) {
                            Some(Upstream::Origin) => HitRoute::Origin,
                            Some(Upstream::Neighbor(up)) if world.graph.is_alive(up) => {
                                HitRoute::Up(up)
                            }
                            _ => HitRoute::Lost,
                        })
                    } else {
                        None
                    };
                    let silent = world.faults.is_some_and(|f| f.is_silent(e.to));
                    let (cand_start, cand_len) = if !silent && msg.hop().is_some() {
                        let start = shard.arena.len() as u32;
                        shard
                            .arena
                            .extend(world.graph.live_neighbors(e.to).filter(|&n| n != e.from));
                        (start, shard.arena.len() as u32 - start)
                    } else {
                        (0, 0)
                    };
                    Verdict::Query {
                        hit,
                        cand_start,
                        cand_len,
                    }
                }
            }
            Payload::Hit(msg) => {
                if !world.graph.is_alive(e.to) {
                    Verdict::Void
                } else {
                    match shard.store.upstream(e.to, msg.guid) {
                        None => Verdict::Void, // no route memory; drop
                        Some(Upstream::Origin) => Verdict::Hit { upstream: None },
                        Some(Upstream::Neighbor(n)) => Verdict::Hit { upstream: Some(n) },
                    }
                }
            }
        };
        shard.verdicts.push_back(v);
    }
}

impl<P: ForwardingPolicy> Network<P> {
    /// Runs the windowed sharded engine to completion. See the
    /// [module docs](self) for the execution model and how its results
    /// relate to [`Network::run`].
    ///
    /// Results are byte-identical for every `threads >= 1`.
    ///
    /// # Panics
    ///
    /// When a trace collector is configured, or `hop_latency.0 == 0`
    /// (the window construction needs a minimum transmission delay).
    pub fn run_sharded(self, threads: usize) -> SimResult {
        self.run_sharded_full(threads).0
    }

    /// Like [`Network::run_sharded`], also returning the policy and the
    /// final overlay graph.
    pub fn run_sharded_full(mut self, threads: usize) -> (SimResult, P, Graph) {
        assert!(threads >= 1, "need at least one worker");
        assert!(
            self.collector.is_none(),
            "trace collectors require the exact engine (Network::run)"
        );
        let w = self.cfg.hop_latency.0;
        assert!(w >= 1, "sharded engine needs hop_latency.0 >= 1");

        // The delivery horizon is the link model's worst case (upload
        // queueing + transmit + propagation + jitter + download
        // queueing), or one hop without a link layer. The ring has no
        // overflow path, so rate-limited-but-unbuffered plans — whose
        // queueing delay is unbounded — are rejected here, and so is a
        // horizon that would need more than `MAX_RING_CELLS` windows.
        let max_delay = match &self.links {
            Some(l) => l.max_delay(self.cfg.hop_latency.1).expect(
                "sharded engine needs a bounded link delay: give rate-limited channels a buffer",
            ),
            None => self.cfg.hop_latency.1,
        };
        let cells = ring_cells(max_delay, w);
        let nshards = threads.min(self.cfg.nodes).max(1);
        let chunk = self.cfg.nodes.div_ceil(nshards);
        let mut shards: Vec<Shard> = (0..nshards)
            .map(|s| {
                let base = s * chunk;
                let count = chunk.min(self.cfg.nodes.saturating_sub(base));
                Shard {
                    store: GuidStore::with_range(
                        base as u32,
                        count,
                        self.cfg.guid_cache,
                        self.cfg.guid_expiry,
                    ),
                    arena: Vec::new(),
                    verdicts: VecDeque::new(),
                }
            })
            .collect();
        let mut dring = DeliveryRing {
            cells: vec![Vec::new(); cells],
            w,
            cur: 0,
            seq: 0,
            pending: 0,
        };
        let first_ttl = self
            .cfg
            .ring
            .as_ref()
            .map(|r| *r.ttls.first().expect("empty ring schedule"))
            .unwrap_or(self.cfg.ttl);
        let mut end = SimTime::ZERO;
        let mut evs: Vec<Envelope> = Vec::new();

        loop {
            let next_ctrl = self.queue.peek_time().map(|t| t.ticks() / w);
            let next_deliv = dring.earliest_window();
            let window = match (next_ctrl, next_deliv) {
                (None, None) => break,
                (Some(c), None) => c,
                (None, Some(d)) => d,
                (Some(c), Some(d)) => c.min(d),
            };
            dring.cur = window;
            let wstart = SimTime::from_ticks(window * w);
            let wend = SimTime::from_ticks(window * w + w);

            // Phase 1: control. Churn first, then adaptation rounds due
            // by the window start, then every control event in the
            // window; all may mutate the graph and shard stores, so the
            // parallel phase below sees a frozen world.
            self.apply_churn_windowed(wstart, &mut shards, chunk);
            self.apply_adaptation_until(wstart);
            while self.queue.peek_time().is_some_and(|t| t < wend) {
                let (now, event) = self.queue.pop().expect("peeked event vanished");
                end = end.max(now);
                match event {
                    Event::Issue { qidx } => {
                        self.handle_issue_windowed(
                            qidx,
                            first_ttl,
                            now,
                            &mut shards,
                            chunk,
                            &mut dring,
                        );
                    }
                    Event::QueryDeadline { qidx, attempt } => {
                        self.handle_deadline_windowed(
                            qidx,
                            attempt,
                            now,
                            &mut shards,
                            chunk,
                            &mut dring,
                        );
                    }
                    Event::RingTimeout { qidx, stage } => {
                        let ring = self
                            .cfg
                            .ring
                            .clone()
                            .expect("ring timeout without schedule");
                        if self.queries[qidx].outcome.hits_delivered == 0 {
                            self.issue_attempt_windowed(
                                qidx,
                                ring.ttls[stage],
                                now,
                                &mut shards,
                                chunk,
                                &mut dring,
                            );
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
                    Event::Crash { node } => {
                        if self.graph.is_alive(node) {
                            self.depart(node);
                            shards[node.index() / chunk].store.reset(node);
                            self.policy.on_topology_change(&self.graph);
                        }
                        self.crashed[node.index()] = true;
                    }
                    Event::Query { .. } | Event::Hit { .. } => {
                        unreachable!("sharded engine delivers through the window ring")
                    }
                }
            }

            // Phase 2: this window's deliveries, verdicts in parallel.
            let cell = (window % cells as u64) as usize;
            evs.clear();
            std::mem::swap(&mut evs, &mut dring.cells[cell]);
            if evs.is_empty() {
                continue;
            }
            dring.pending -= evs.len();
            evs.sort_unstable_by_key(|e| (e.at, e.seq));
            end = end.max(SimTime::from_ticks(evs[evs.len() - 1].at));
            let world = WorldView {
                graph: &self.graph,
                workload: &self.workload,
                faults: self.faults.as_ref(),
            };
            if nshards == 1 || evs.len() < PARALLEL_THRESHOLD {
                for (s, shard) in shards.iter_mut().enumerate() {
                    shard_verdicts(s, chunk, shard, &evs, world);
                }
            } else {
                let evs_ref: &[Envelope] = &evs;
                std::thread::scope(|scope| {
                    let mut iter = shards.iter_mut().enumerate();
                    let (s0, first) = iter.next().expect("at least one shard");
                    for (s, shard) in iter {
                        scope.spawn(move || shard_verdicts(s, chunk, shard, evs_ref, world));
                    }
                    // The spawning thread is worker 0.
                    shard_verdicts(s0, chunk, first, evs_ref, world);
                });
            }

            // Phase 3: serial replay in global (time, seq) order.
            for e in &evs {
                // Every parked envelope survived the link layer; close its
                // byte-ledger entry at the destination (the exact engine
                // does this at the top of handle_query/handle_hit).
                if let Some(l) = self.links.as_mut() {
                    let bytes = match e.payload {
                        Payload::Query(m) => l.query_size(m.key.file),
                        Payload::Hit(m) => l.hit_size(m.key.file),
                    };
                    l.on_delivered(e.to, bytes);
                }
                let s = e.to.index() / chunk;
                let v = shards[s]
                    .verdicts
                    .pop_front()
                    .expect("verdict stream out of sync");
                let now = SimTime::from_ticks(e.at);
                match (v, e.payload) {
                    (Verdict::Void, _) => {}
                    (
                        Verdict::Query {
                            hit,
                            cand_start,
                            cand_len,
                        },
                        Payload::Query(msg),
                    ) => {
                        if let Some(route) = hit {
                            let hitmsg = HitMsg {
                                guid: msg.guid,
                                responder: e.to,
                                key: msg.key,
                                query_hops: msg.hops,
                            };
                            match route {
                                HitRoute::Origin => {
                                    self.deliver_hit(e.to, hitmsg, e.qidx as usize, now)
                                }
                                HitRoute::Up(up) => self.send_hit_windowed(
                                    up,
                                    e.to,
                                    hitmsg,
                                    e.qidx as usize,
                                    now,
                                    &mut dring,
                                ),
                                HitRoute::Lost => {}
                            }
                        }
                        if cand_len > 0 {
                            let range = cand_start as usize..(cand_start + cand_len) as usize;
                            let cands = &shards[s].arena[range];
                            self.relay_windowed(
                                e.to,
                                Some(e.from),
                                msg,
                                e.qidx as usize,
                                now,
                                cands,
                                &mut dring,
                            );
                        }
                    }
                    (Verdict::Hit { upstream }, Payload::Hit(msg)) => {
                        self.policy.on_reply(e.to, upstream, e.from, msg.key);
                        match upstream {
                            None => self.deliver_hit(e.to, msg, e.qidx as usize, now),
                            Some(up) => {
                                if self.graph.is_alive(up) {
                                    self.send_hit_windowed(
                                        up,
                                        e.to,
                                        msg,
                                        e.qidx as usize,
                                        now,
                                        &mut dring,
                                    );
                                }
                            }
                        }
                    }
                    _ => unreachable!("verdict does not match its envelope"),
                }
            }
        }

        #[cfg(test)]
        self.assert_live_holders_match_rebuild();
        let mut builder = MetricsBuilder::new();
        let mut total_attempts = 0u64;
        for q in &self.queries {
            builder.record(&q.outcome);
            total_attempts += u64::from(q.outcome.attempts);
        }
        let mut metrics = builder.finish(self.policy.name());
        metrics.lost_messages = self.links.as_ref().map_or(0, LinkState::lost);
        metrics.buffer_dropped = self.links.as_ref().map_or(0, LinkState::buffer_dropped);
        if let Some(l) = &self.links {
            let ups = l.node_up_bytes().to_vec();
            let downs = l.node_down_bytes().to_vec();
            for (up, down) in ups.into_iter().zip(downs) {
                self.obs.observe_node_bytes(up, down);
            }
        }
        let result = SimResult {
            metrics,
            trace: None,
            end_time: end,
            distinct_query_guids: self.guid_to_query.len(),
            total_attempts,
            link_bytes: self.links.as_ref().map(LinkState::byte_ledger),
            obs: self.obs.report(),
        };
        (result, self.policy, self.graph)
    }

    /// Window-granular churn: like `apply_churn_until`, but GUID memory
    /// resets go to the owning shard.
    fn apply_churn_windowed(&mut self, horizon: SimTime, shards: &mut [Shard], chunk: usize) {
        let mut changed = false;
        while let Some(ev) = self.churn.as_mut().and_then(|c| c.next_before(horizon)) {
            if self.crashed[ev.node.index()] {
                continue; // crashed nodes neither leave nor rejoin
            }
            match ev.kind {
                ChurnKind::Leave | ChurnKind::Crash => {
                    self.depart(ev.node);
                    shards[ev.node.index() / chunk].store.reset(ev.node);
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

    /// Issue-event handler.
    fn handle_issue_windowed(
        &mut self,
        qidx: usize,
        first_ttl: u32,
        now: SimTime,
        shards: &mut [Shard],
        chunk: usize,
        dring: &mut DeliveryRing,
    ) {
        debug_assert_eq!(qidx, self.queries.len());
        let node = self.pick_issuer();
        self.open_query(node, now);
        if self.graph.is_alive(node) {
            self.issue_attempt_windowed(qidx, first_ttl, now, shards, chunk, dring);
            // The deadline clock starts when the attempt's last byte
            // leaves the upload buffer, not at issue time — under real
            // queueing the two can differ by many ticks.
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

    /// Windowed counterpart of `issue_attempt`: GUID memory goes to the
    /// issuer's shard and the first hop transmits through the ring.
    fn issue_attempt_windowed(
        &mut self,
        qidx: usize,
        ttl: u32,
        now: SimTime,
        shards: &mut [Shard],
        chunk: usize,
        dring: &mut DeliveryRing,
    ) -> bool {
        let node = self.queries[qidx].node;
        if !self.graph.is_alive(node) {
            return false; // issuer offline at reissue time
        }
        let key = self.queries[qidx].key;
        let guid = self.guid_gens[node.index()].next(&mut self.net_rng);
        let owner = *self.guid_to_query.entry(guid).or_insert(qidx);
        self.queries[qidx].outcome.attempts += 1;
        let msg = QueryMsg {
            guid,
            key,
            ttl,
            hops: 0,
        };
        if let Some(l) = self.links.as_mut() {
            l.begin_attempt(now.ticks());
        }
        shards[node.index() / chunk]
            .store
            .record(node, guid, Upstream::Origin, now);
        let mut candidates = std::mem::take(&mut self.candidate_scratch);
        candidates.clear();
        candidates.extend(self.graph.live_neighbors(node));
        self.relay_windowed(node, None, msg, owner, now, &candidates, dring);
        self.candidate_scratch = candidates;
        let mut first_hop = std::mem::take(&mut self.queries[qidx].first_hop);
        first_hop.clear();
        first_hop.extend_from_slice(&self.selected_scratch);
        self.queries[qidx].first_hop = first_hop;
        true
    }

    /// Windowed counterpart of `relay`: candidates are supplied by the
    /// caller (arena slice at replay, fresh gather at issue). Leaves
    /// the selection in `selected_scratch`.
    #[allow(clippy::too_many_arguments)]
    fn relay_windowed(
        &mut self,
        node: NodeId,
        from: Option<NodeId>,
        msg: QueryMsg,
        qidx: usize,
        now: SimTime,
        candidates: &[NodeId],
        dring: &mut DeliveryRing,
    ) {
        let mut selected = std::mem::take(&mut self.selected_scratch);
        selected.clear();
        let Some(next) = msg.hop() else {
            self.selected_scratch = selected;
            return;
        };
        if candidates.is_empty() {
            self.selected_scratch = selected;
            return;
        }
        let ctx = ForwardCtx {
            node,
            from,
            query: &next,
            candidates,
        };
        self.policy
            .select_into(&ctx, &mut self.policy_rng, &mut selected);
        self.obs.record(|| ObsEvent::Forward {
            at: now,
            node: node.0,
            candidates: candidates.len(),
            selected: selected.len(),
        });
        for &target in &selected {
            assert!(
                candidates.contains(&target),
                "policy {} selected non-candidate {target} at {node}",
                self.policy.name()
            );
        }
        for &target in &selected {
            let bytes = self
                .links
                .as_ref()
                .map_or(next.wire_size(), |l| l.query_size(next.key.file));
            let outcome = &mut self.queries[qidx].outcome;
            outcome.query_messages += 1;
            outcome.bytes += bytes;
            self.send_windowed(
                now,
                node,
                target,
                bytes,
                qidx,
                Payload::Query(next),
                DropKind::Query,
                dring,
            );
        }
        self.selected_scratch = selected;
    }

    /// Windowed counterpart of `send_hit`.
    fn send_hit_windowed(
        &mut self,
        to: NodeId,
        from: NodeId,
        msg: HitMsg,
        qidx: usize,
        now: SimTime,
        dring: &mut DeliveryRing,
    ) {
        let bytes = self
            .links
            .as_ref()
            .map_or(msg.wire_size(), |l| l.hit_size(msg.key.file));
        let outcome = &mut self.queries[qidx].outcome;
        outcome.hit_messages += 1;
        outcome.bytes += bytes;
        self.send_windowed(
            now,
            from,
            to,
            bytes,
            qidx,
            Payload::Hit(msg),
            DropKind::Hit,
            dring,
        );
    }

    /// Windowed counterpart of the exact engine's `send`, the one place
    /// a message leaves a node: draws the hop latency, then offers the
    /// message to the link layer — parking survivors in the delivery
    /// ring at their computed delivery tick — or, with no link layer,
    /// parks it one hop later.
    #[allow(clippy::too_many_arguments)]
    fn send_windowed(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        qidx: usize,
        payload: Payload,
        kind: DropKind,
        dring: &mut DeliveryRing,
    ) {
        let prop = self.hop_latency();
        let Some(links) = self.links.as_mut() else {
            dring.push(now.saturating_add(prop), to, from, qidx, payload);
            return;
        };
        match links.transmit(now.ticks(), from, to, bytes, prop.ticks()) {
            Transmission::Delivered { at } => {
                dring.push(SimTime::from_ticks(at), to, from, qidx, payload);
            }
            Transmission::Lost => {
                self.obs.record(|| ObsEvent::FaultDrop { at: now, kind });
            }
            Transmission::BufferDropped => {
                self.obs.record(|| ObsEvent::BufferDrop { at: now, kind });
            }
        }
    }

    /// Windowed counterpart of `handle_deadline`.
    fn handle_deadline_windowed(
        &mut self,
        qidx: usize,
        attempt: u32,
        now: SimTime,
        shards: &mut [Shard],
        chunk: usize,
        dring: &mut DeliveryRing,
    ) {
        let rp = self
            .cfg
            .retry
            .clone()
            .expect("deadline without retry policy");
        if self.queries[qidx].outcome.hits_delivered > 0 {
            return; // answered in time (as of the last window boundary)
        }
        let issuer = self.queries[qidx].node;
        let targets = std::mem::take(&mut self.queries[qidx].first_hop);
        for target in targets {
            self.policy.on_failure(issuer, target);
        }
        let backoff = arq_simkern::Backoff::new(rp.deadline, rp.backoff, rp.max_attempts);
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
        if self.issue_attempt_windowed(qidx, ttl, now, shards, chunk, dring) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::policy::FloodPolicy;
    use crate::sim::{Network, RetryPolicy, SimConfig};
    use arq_content::CatalogConfig;
    use arq_overlay::ChurnConfig;
    use arq_simkern::time::Duration;

    fn small_cfg(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::default_with(60, 150, seed);
        cfg.catalog = CatalogConfig {
            topics: 5,
            files_per_topic: 40,
            ..Default::default()
        };
        cfg.workload.files_per_node = 30;
        cfg
    }

    /// Every windowed code path at once: loss, jitter, crashes, silent
    /// free-riders, session churn, and deadline-driven retries.
    fn harsh_cfg(seed: u64) -> SimConfig {
        let mut cfg = small_cfg(seed);
        cfg.churn = Some(ChurnConfig {
            mean_session: Duration::from_ticks(80_000),
            mean_downtime: Duration::from_ticks(40_000),
            pinned: vec![],
        });
        cfg.faults = Some(FaultPlan {
            loss: 0.1,
            jitter: 40,
            crash: 0.05,
            silent: 0.1,
        });
        cfg.retry = Some(RetryPolicy::default_with(Duration::from_ticks(4_000), 12));
        cfg.guid_expiry = Some(Duration::from_ticks(500_000));
        cfg
    }

    /// Full byte-resolution fingerprint of a run.
    fn fingerprint(r: &SimResult) -> String {
        format!(
            "{:?}|{:?}|{}|{}",
            r.metrics, r.end_time, r.distinct_query_guids, r.total_attempts
        )
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let base = fingerprint(&Network::new(harsh_cfg(19), FloodPolicy).run_sharded(1));
        for threads in [2, 4, 7] {
            let other = fingerprint(&Network::new(harsh_cfg(19), FloodPolicy).run_sharded(threads));
            assert_eq!(base, other, "diverged at {threads} threads");
        }
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let a = fingerprint(&Network::new(small_cfg(3), FloodPolicy).run_sharded(2));
        let b = fingerprint(&Network::new(small_cfg(3), FloodPolicy).run_sharded(2));
        assert_eq!(a, b);
        let c = fingerprint(&Network::new(small_cfg(4), FloodPolicy).run_sharded(2));
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn sharded_tracks_exact_engine_closely() {
        let exact = Network::new(small_cfg(7), FloodPolicy).run();
        let windowed = Network::new(small_cfg(7), FloodPolicy).run_sharded(3);
        assert_eq!(exact.metrics.queries, windowed.metrics.queries);
        // Same topology/workload streams: reach must be near-identical
        // (the engines differ only in loss timing and window rounding,
        // and this config has neither loss nor churn).
        assert!(
            (exact.metrics.success_rate - windowed.metrics.success_rate).abs() < 0.05,
            "exact {} vs windowed {}",
            exact.metrics.success_rate,
            windowed.metrics.success_rate
        );
        assert!(
            (exact.metrics.messages_per_query - windowed.metrics.messages_per_query).abs()
                < exact.metrics.messages_per_query * 0.05,
            "exact {} vs windowed {}",
            exact.metrics.messages_per_query,
            windowed.metrics.messages_per_query
        );
    }

    #[test]
    fn faults_churn_and_retries_survive_sharding() {
        let r = Network::new(harsh_cfg(23), FloodPolicy).run_sharded(4);
        assert_eq!(r.metrics.queries, 150);
        assert!(r.metrics.lost_messages > 0, "fault loss never fired");
        assert!(r.metrics.success_rate > 0.2, "search collapsed entirely");
        assert!(r.total_attempts > 150, "no retries happened");
    }

    #[test]
    fn download_on_hit_updates_answerability_index() {
        let mut cfg = small_cfg(31);
        cfg.queries = 800;
        cfg.workload.files_per_node = 10;
        let without = Network::new(cfg.clone(), FloodPolicy)
            .run_sharded(2)
            .metrics;
        cfg.download_on_hit = true;
        let with = Network::new(cfg, FloodPolicy).run_sharded(2).metrics;
        assert!(
            with.answerable > without.answerable,
            "replication did not raise answerability: {} vs {}",
            with.answerable,
            without.answerable
        );
    }

    /// Both engines share `open_query`, whose test build checks every
    /// answerability verdict against the library scan; this drives the
    /// windowed liveness paths (churn, crashes, downloads) through it.
    #[test]
    fn live_holder_counts_agree_with_the_library_scan_windowed() {
        for seed in 0..8 {
            let mut cfg = harsh_cfg(200 + seed);
            cfg.queries = 300;
            cfg.workload.files_per_node = 10;
            cfg.download_on_hit = true;
            if seed % 2 == 0 {
                cfg.rejoin_via_ping = Some(3);
            }
            let (result, _policy, graph) =
                Network::new(cfg, FloodPolicy).run_sharded_full(1 + seed as usize % 3);
            let m = &result.metrics;
            assert_eq!(m.queries, 300);
            assert!(graph.live_count() < 60, "seed {seed}: no node stayed down");
            assert!(
                m.answerable > 0 && m.answerable < m.queries,
                "seed {seed}: answerability never varied ({})",
                m.answerable
            );
        }
    }

    #[test]
    fn expanding_ring_works_windowed() {
        let mut cfg = small_cfg(11);
        let flood = Network::new(cfg.clone(), FloodPolicy).run_sharded(2);
        cfg.ring = Some(crate::sim::RingSchedule {
            ttls: vec![2, 5],
            wait: Duration::from_ticks(1_000),
        });
        let ring = Network::new(cfg, FloodPolicy).run_sharded(2);
        assert!(
            ring.metrics.messages_per_query < flood.metrics.messages_per_query,
            "ring {} >= flood {}",
            ring.metrics.messages_per_query,
            flood.metrics.messages_per_query
        );
    }

    #[test]
    #[should_panic(expected = "exact engine")]
    fn collector_is_rejected() {
        let mut cfg = small_cfg(1);
        cfg.collector = Some(NodeId(0));
        let _ = Network::new(cfg, FloodPolicy).run_sharded(2);
    }

    /// The E17-style congested profile: tight asymmetric bandwidth,
    /// bounded buffers, loss, jitter, and free-riders all at once.
    fn congested_links() -> crate::net::LinkPlan {
        crate::net::LinkPlan {
            up: 8.0,
            down: 32.0,
            up_buf: 2_048,
            down_buf: 8_192,
            loss: 0.02,
            jitter: 20,
            riders: 0.2,
            rider_up: 2.0,
        }
    }

    #[test]
    fn link_runs_survive_any_thread_count() {
        let mut cfg = harsh_cfg(29);
        cfg.links = Some(congested_links());
        let base = fingerprint(&Network::new(cfg.clone(), FloodPolicy).run_sharded(1));
        for threads in [2, 4, 7] {
            let other = fingerprint(&Network::new(cfg.clone(), FloodPolicy).run_sharded(threads));
            assert_eq!(base, other, "diverged at {threads} threads");
        }
    }

    #[test]
    fn zero_capacity_links_are_byte_identical_windowed() {
        let mut cfg = small_cfg(13);
        let base = fingerprint(&Network::new(cfg.clone(), FloodPolicy).run_sharded(3));
        cfg.links = Some(crate::net::LinkPlan::default());
        let with = fingerprint(&Network::new(cfg, FloodPolicy).run_sharded(3));
        assert_eq!(base, with, "noop link plan changed a windowed run");
    }

    #[test]
    #[should_panic(expected = "bounded link delay")]
    fn unbuffered_rate_limited_links_are_rejected() {
        let mut cfg = small_cfg(1);
        cfg.links = Some(crate::net::LinkPlan {
            up: 4.0,
            ..Default::default()
        });
        let _ = Network::new(cfg, FloodPolicy).run_sharded(2);
    }

    /// A spec value sets the ring's horizon, so it is bounded before it
    /// is allocated: the congested plan (also `sim-links`' plan) sits far
    /// inside the bound, a runaway jitter is refused by name.
    #[test]
    #[should_panic(expected = "horizon of 1000000000081 ticks in windows of 20")]
    fn oversized_ring_horizon_is_rejected() {
        let mut cfg = small_cfg(1);
        cfg.links = Some(congested_links());
        let net = Network::new(cfg.clone(), FloodPolicy);
        let horizon = net.links.as_ref().and_then(|l| l.max_delay(80));
        let cells = ring_cells(horizon.expect("buffered plan"), 20);
        assert!((50..200).contains(&cells), "congested plan needs {cells}");
        cfg.links = None;
        cfg.faults = Some(FaultPlan {
            jitter: 1_000_000_000_000,
            ..Default::default()
        });
        let _ = Network::new(cfg, FloodPolicy).run_sharded(2);
    }

    /// Stub mirroring the exact engine's adaptation tests: node 0
    /// proposes a shortcut to every live non-neighbor and vouches for
    /// everything applied.
    struct ProposeEverywhere;

    impl ForwardingPolicy for ProposeEverywhere {
        fn name(&self) -> &'static str {
            "propose-everywhere"
        }

        fn select(&mut self, ctx: &ForwardCtx<'_>, _rng: &mut arq_simkern::Rng64) -> Vec<NodeId> {
            ctx.candidates.to_vec()
        }

        fn propose_shortcuts(&self, graph: &Graph) -> Vec<crate::policy::ShortcutProposal> {
            let asker = NodeId(0);
            if !graph.is_alive(asker) {
                return Vec::new();
            }
            graph
                .live_nodes()
                .filter(|&n| n != asker && !graph.has_edge(asker, n))
                .map(|target| crate::policy::ShortcutProposal {
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

    fn adapt_cfg(seed: u64) -> SimConfig {
        let mut cfg = harsh_cfg(seed);
        cfg.adapt = Some(crate::sim::AdaptPlan {
            every: Duration::from_ticks(20_000),
            budget: 16,
            degree: 3,
        });
        cfg
    }

    #[test]
    fn adaptation_survives_any_thread_count() {
        let base = fingerprint(&Network::new(adapt_cfg(41), ProposeEverywhere).run_sharded(1));
        for threads in [2, 4, 7] {
            let other =
                fingerprint(&Network::new(adapt_cfg(41), ProposeEverywhere).run_sharded(threads));
            assert_eq!(base, other, "adaptation diverged at {threads} threads");
        }
    }

    #[test]
    fn adapt_plan_over_non_proposing_policy_is_byte_identical_windowed() {
        let mut cfg = harsh_cfg(43);
        let clean = fingerprint(&Network::new(cfg.clone(), FloodPolicy).run_sharded(3));
        cfg.adapt = Some(crate::sim::AdaptPlan::default_with(Duration::from_ticks(
            10_000,
        )));
        let adapted = fingerprint(&Network::new(cfg, FloodPolicy).run_sharded(3));
        assert_eq!(clean, adapted, "noop adapt plan changed a windowed run");
    }

    #[test]
    fn link_byte_ledger_conserves_windowed() {
        let mut cfg = harsh_cfg(37);
        cfg.links = Some(congested_links());
        let r = Network::new(cfg, FloodPolicy).run_sharded(4);
        let (sent, delivered, lost, buffered) = r.link_bytes.expect("links active");
        assert!(sent > 0);
        assert_eq!(sent, delivered + lost + buffered, "bytes leaked");
        assert_eq!(r.metrics.buffer_dropped > 0, buffered > 0);
        assert!(r.metrics.lost_messages > 0, "folded loss never fired");
    }
}
