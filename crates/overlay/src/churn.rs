//! Session-based churn.
//!
//! Peers in unstructured P2P networks alternate between online *sessions*
//! and offline periods. [`ChurnProcess`] models each node as an
//! independent alternating renewal process with exponentially distributed
//! session and downtime lengths, and yields a merged, time-ordered stream
//! of [`ChurnEvent`]s for the simulator to apply.
//!
//! Churn is the force that ages association rule sets in the paper: when a
//! neighbor departs, rules with that neighbor as antecedent stop matching
//! (coverage decays), and when a serving node departs, rules pointing
//! toward it go stale (success decays).

use crate::graph::{Graph, NodeId};
use arq_simkern::time::{Duration, SimTime};
use arq_simkern::{EventQueue, Rng64};

/// What happened to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// The node went offline.
    Leave,
    /// The node came (back) online.
    Join,
    /// The node failed permanently: it departs and never rejoins. Session
    /// churn never produces this kind — fault injection does — but it
    /// lives here so every consumer of churn events handles the full
    /// lifecycle of a peer.
    Crash,
}

/// A single churn transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// Which node.
    pub node: NodeId,
    /// Leave or join.
    pub kind: ChurnKind,
}

/// Churn parameters.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Mean online-session length, in simulation ticks.
    pub mean_session: Duration,
    /// Mean offline period, in simulation ticks.
    pub mean_downtime: Duration,
    /// Nodes exempt from churn (e.g. the trace-collector node, which must
    /// stay up for the whole measurement like the paper's modified client).
    pub pinned: Vec<NodeId>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            mean_session: Duration::from_ticks(600_000_000), // 10 min in µs
            mean_downtime: Duration::from_ticks(300_000_000),
            pinned: Vec::new(),
        }
    }
}

/// A [`ChurnConfig`] that would break the exponential session sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnConfigError {
    /// `mean_session` is zero: every session would collapse to the
    /// sampler's 1-tick floor, which is never what a caller meant.
    ZeroMeanSession,
    /// `mean_downtime` is zero: nodes would rejoin instantly forever.
    ZeroMeanDowntime,
}

impl std::fmt::Display for ChurnConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnConfigError::ZeroMeanSession => {
                write!(f, "churn mean_session must be positive (got 0 ticks)")
            }
            ChurnConfigError::ZeroMeanDowntime => {
                write!(f, "churn mean_downtime must be positive (got 0 ticks)")
            }
        }
    }
}

impl std::error::Error for ChurnConfigError {}

impl ChurnConfig {
    /// Checks that both mean durations are usable by the exponential
    /// sampler. (Durations are unsigned, so "negative" inputs from user
    /// flags surface here as zero after parsing.)
    pub fn validate(&self) -> Result<(), ChurnConfigError> {
        if self.mean_session.ticks() == 0 {
            return Err(ChurnConfigError::ZeroMeanSession);
        }
        if self.mean_downtime.ticks() == 0 {
            return Err(ChurnConfigError::ZeroMeanDowntime);
        }
        Ok(())
    }
}

/// Generator of a merged, time-ordered churn-event stream for all nodes.
pub struct ChurnProcess {
    queue: EventQueue<(NodeId, ChurnKind)>,
    cfg: ChurnConfig,
    rng: Rng64,
}

impl ChurnProcess {
    /// Creates a process for `n` nodes, all initially online, scheduling
    /// each unpinned node's first departure.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ChurnConfig::validate`]; use
    /// [`ChurnProcess::try_new`] to surface the typed error instead.
    pub fn new(n: usize, cfg: ChurnConfig, rng: Rng64) -> Self {
        match Self::try_new(n, cfg, rng) {
            Ok(p) => p,
            Err(e) => panic!("invalid churn config: {e}"),
        }
    }

    /// Like [`ChurnProcess::new`], rejecting degenerate configurations
    /// with a [`ChurnConfigError`] instead of letting the exponential
    /// sampler silently degrade to 1-tick sessions.
    pub fn try_new(n: usize, cfg: ChurnConfig, mut rng: Rng64) -> Result<Self, ChurnConfigError> {
        cfg.validate()?;
        let mut queue = EventQueue::with_capacity(n);
        for i in 0..n {
            let node = NodeId(i as u32);
            if cfg.pinned.contains(&node) {
                continue;
            }
            let dt = rng.exp(cfg.mean_session.ticks() as f64).max(1.0) as u64;
            queue.schedule(SimTime::from_ticks(dt), (node, ChurnKind::Leave));
        }
        Ok(ChurnProcess { queue, cfg, rng })
    }

    /// Returns the next churn event at or before `horizon`, if any,
    /// scheduling the node's following transition.
    pub fn next_before(&mut self, horizon: SimTime) -> Option<ChurnEvent> {
        let at = self.queue.peek_time()?;
        if at > horizon {
            return None;
        }
        let (at, (node, kind)) = self.queue.pop().expect("peeked entry vanished");
        let (mean, next_kind) = match kind {
            ChurnKind::Leave => (self.cfg.mean_downtime, ChurnKind::Join),
            ChurnKind::Join => (self.cfg.mean_session, ChurnKind::Leave),
            // The session process never schedules crashes; a crashed node
            // simply has no follow-up transition.
            ChurnKind::Crash => return Some(ChurnEvent { at, node, kind }),
        };
        let dt = self.rng.exp(mean.ticks() as f64).max(1.0) as u64;
        self.queue.schedule(
            at.saturating_add(Duration::from_ticks(dt)),
            (node, next_kind),
        );
        Some(ChurnEvent { at, node, kind })
    }

    /// Time of the next pending transition.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }
}

/// Wires a (re)joining node to `target_degree` uniformly random live
/// peers. Returns the chosen peers. The uniform choice — rather than
/// reconnecting to former neighbors — is what makes post-rejoin routing
/// state stale, matching observed Gnutella behaviour.
pub fn rewire_join(
    g: &mut Graph,
    node: NodeId,
    target_degree: usize,
    rng: &mut Rng64,
) -> Vec<NodeId> {
    // Candidates are the live nodes other than `node`, in id order; a
    // pick is an index into that order, resolved by rank-select.
    let candidates = g.live_count() - usize::from(g.is_alive(node));
    let k = target_degree.min(candidates);
    let picks = rng.sample_indices(candidates, k);
    let mut chosen = Vec::with_capacity(k);
    for idx in picks {
        let peer = g
            .select_live_except(node, idx)
            .expect("pick is below the candidate count");
        if g.add_edge(node, peer) {
            chosen.push(peer);
        }
    }
    chosen
}

/// Fraction of time a node is expected to be online under the config:
/// `session / (session + downtime)`.
pub fn expected_availability(cfg: &ChurnConfig) -> f64 {
    let s = cfg.mean_session.ticks() as f64;
    let d = cfg.mean_downtime.ticks() as f64;
    s / (s + d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(session: u64, down: u64) -> ChurnConfig {
        ChurnConfig {
            mean_session: Duration::from_ticks(session),
            mean_downtime: Duration::from_ticks(down),
            pinned: Vec::new(),
        }
    }

    #[test]
    fn events_are_time_ordered_and_alternate() {
        let mut p = ChurnProcess::new(20, cfg(1000, 500), Rng64::seed_from(1));
        let mut last = SimTime::ZERO;
        let mut state = [true; 20]; // all start online
        for _ in 0..500 {
            let ev = p.next_before(SimTime::MAX).unwrap();
            assert!(ev.at >= last, "events out of order");
            last = ev.at;
            let up = &mut state[ev.node.index()];
            match ev.kind {
                ChurnKind::Leave => {
                    assert!(*up, "leave while already offline");
                    *up = false;
                }
                ChurnKind::Join => {
                    assert!(!*up, "join while already online");
                    *up = true;
                }
                ChurnKind::Crash => panic!("alternating process never crashes"),
            }
        }
    }

    #[test]
    fn horizon_bounds_delivery() {
        let mut p = ChurnProcess::new(5, cfg(100, 100), Rng64::seed_from(2));
        let horizon = SimTime::from_ticks(10);
        while let Some(ev) = p.next_before(horizon) {
            assert!(ev.at <= horizon);
        }
        // Future events still pending.
        assert!(p.peek_time().unwrap() > horizon);
    }

    #[test]
    fn pinned_nodes_never_churn() {
        let mut c = cfg(10, 10);
        c.pinned = vec![NodeId(0)];
        let mut p = ChurnProcess::new(3, c, Rng64::seed_from(3));
        for _ in 0..200 {
            let ev = p.next_before(SimTime::MAX).unwrap();
            assert_ne!(ev.node, NodeId(0), "pinned node churned");
        }
    }

    #[test]
    fn zero_means_are_rejected_with_typed_errors() {
        assert_eq!(
            cfg(0, 100).validate(),
            Err(ChurnConfigError::ZeroMeanSession)
        );
        assert_eq!(
            cfg(100, 0).validate(),
            Err(ChurnConfigError::ZeroMeanDowntime)
        );
        assert_eq!(cfg(100, 100).validate(), Ok(()));
        assert!(ChurnProcess::try_new(5, cfg(0, 100), Rng64::seed_from(1)).is_err());
        let msg = ChurnConfigError::ZeroMeanDowntime.to_string();
        assert!(msg.contains("mean_downtime"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "invalid churn config")]
    fn new_panics_on_degenerate_config() {
        ChurnProcess::new(5, cfg(100, 0), Rng64::seed_from(1));
    }

    #[test]
    fn availability_formula() {
        assert!((expected_availability(&cfg(600, 300)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((expected_availability(&cfg(100, 100)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn long_run_availability_matches_expectation() {
        // Simulate a long horizon and measure the fraction of time node 0
        // spends online; it should approach session/(session+down).
        let mut p = ChurnProcess::new(1, cfg(1000, 500), Rng64::seed_from(7));
        let horizon = SimTime::from_ticks(3_000_000);
        let mut online_since = Some(SimTime::ZERO);
        let mut online_total = 0u64;
        while let Some(ev) = p.next_before(horizon) {
            match ev.kind {
                ChurnKind::Leave => {
                    online_total += ev.at.ticks() - online_since.take().unwrap().ticks();
                }
                ChurnKind::Join => {
                    online_since = Some(ev.at);
                }
                ChurnKind::Crash => panic!("alternating process never crashes"),
            }
        }
        if let Some(s) = online_since {
            online_total += horizon.ticks() - s.ticks();
        }
        let frac = online_total as f64 / horizon.ticks() as f64;
        assert!((frac - 2.0 / 3.0).abs() < 0.05, "availability {frac}");
    }

    #[test]
    fn rewire_join_attaches_to_live_peers() {
        let mut g = Graph::new(10);
        for i in 1..10 {
            g.add_edge(NodeId(0), NodeId(i));
        }
        g.depart(NodeId(5));
        g.depart(NodeId(9));
        let mut rng = Rng64::seed_from(4);
        g.rejoin(NodeId(9));
        let peers = rewire_join(&mut g, NodeId(9), 3, &mut rng);
        assert_eq!(peers.len(), 3);
        assert!(peers.iter().all(|&p| g.is_alive(p) && p != NodeId(9)));
        assert!(!peers.contains(&NodeId(5)), "attached to departed node");
        g.check_invariants().unwrap();
    }

    #[test]
    fn rewire_join_with_no_candidates() {
        let mut g = Graph::new(1);
        let mut rng = Rng64::seed_from(5);
        assert!(rewire_join(&mut g, NodeId(0), 3, &mut rng).is_empty());
    }
}
