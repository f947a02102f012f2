//! Deterministic node-level fault injection for the live simulator.
//!
//! The paper's premise is that rule sets age as the network changes, but
//! clean session churn is only one aging force. Real overlays also lose
//! peers permanently (crash without rejoin) and carry free-riders that
//! accept traffic without relaying it. [`FaultPlan`] describes those two
//! failure modes declaratively; [`FaultState`] is their seeded
//! materialization — a silent set and a crash schedule, both drawn up
//! front — which the simulator consults on every delivery.
//!
//! What happens to a *message* in flight is not decided here. The
//! plan's `loss` and `jitter` are spec sugar for the link plan's:
//! `Network::build` lowers them into the one per-message impairment
//! process, [`crate::net::LinkState`], and this module never sees them
//! again.
//!
//! Determinism: all fault randomness flows from one labelled
//! [`arq_simkern::StreamFactory`] stream (`"faults"`), independent of the
//! simulator's other streams, and is spent before the run starts. A plan
//! with every rate at zero draws nothing and perturbs nothing — a zero
//! plan is byte-identical to no plan at all, which the simulator's
//! seeded-loop tests assert.

use arq_overlay::NodeId;
use arq_simkern::{Rng64, SimTime};

/// Declarative description of the faults injected into one run.
///
/// All rates default to zero (a no-op plan); construct via
/// [`FaultPlan::default`] and set fields, or parse a registry spec string
/// like `faults(loss=0.05,crash=0.01,silent=0.02,jitter=40)` through the
/// engine registry.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-link message loss probability: each transmission (query or
    /// hit, per hop) is independently dropped with this probability.
    /// Sugar for [`crate::net::LinkPlan::loss`]; the two compose as
    /// `1 − (1−a)(1−b)`.
    pub loss: f64,
    /// Extra per-hop latency jitter: each delivery is delayed by a
    /// uniform draw from `[0, jitter)` ticks on top of the configured hop
    /// latency. Zero disables. Sugar for
    /// [`crate::net::LinkPlan::jitter`]; the two add.
    pub jitter: u64,
    /// Fraction of nodes that crash permanently (depart without ever
    /// rejoining) at a uniformly random instant inside the run horizon.
    pub crash: f64,
    /// Fraction of nodes that are silent free-riders: they receive
    /// queries (and may answer from their own library) but never forward
    /// them onward.
    pub silent: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            loss: 0.0,
            jitter: 0,
            crash: 0.0,
            silent: 0.0,
        }
    }
}

/// A [`FaultPlan`] with an out-of-range rate.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A probability field is outside `[0, 1)`.
    RateOutOfRange {
        /// Which field (`loss`, `crash`, or `silent`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::RateOutOfRange { field, value } => {
                write!(f, "fault rate `{field}` must be in [0, 1), got {value}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// Checks every rate is a probability in `[0, 1)`.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (field, value) in [
            ("loss", self.loss),
            ("crash", self.crash),
            ("silent", self.silent),
        ] {
            if !(0.0..1.0).contains(&value) {
                return Err(FaultPlanError::RateOutOfRange { field, value });
            }
        }
        Ok(())
    }

    /// Whether the plan injects nothing — the simulator skips the fault
    /// layer entirely for no-op plans, which is what makes a zero plan
    /// byte-identical to running without one.
    pub fn is_noop(&self) -> bool {
        self.loss == 0.0 && self.jitter == 0 && self.crash == 0.0 && self.silent == 0.0
    }

    /// Canonical spec-style description (used in config digests and
    /// labels): `faults(loss=0.05,jitter=40,crash=0.01,silent=0.02)`.
    pub fn describe(&self) -> String {
        format!(
            "faults(loss={},jitter={},crash={},silent={})",
            self.loss, self.jitter, self.crash, self.silent
        )
    }
}

/// One run's node-level faults, drawn up front from the plan: who is
/// silent and who crashes when.
#[derive(Debug)]
pub struct FaultState {
    silent: Vec<bool>,
    crashes: Vec<(SimTime, NodeId)>,
}

impl FaultState {
    /// Materializes a plan for `n` nodes.
    ///
    /// Crash instants are drawn uniformly over `[0, horizon)`; `exempt`
    /// nodes (e.g. a trace collector that must stay online) neither crash
    /// nor fall silent. All draws come from `rng`, and zero-rate modes
    /// draw nothing at all. The plan's `loss` and `jitter` are not read
    /// here.
    pub fn new(
        plan: FaultPlan,
        n: usize,
        horizon: SimTime,
        exempt: &[NodeId],
        mut rng: Rng64,
    ) -> Self {
        plan.validate().expect("invalid fault plan");
        let mut silent = vec![false; n];
        if plan.silent > 0.0 {
            for (i, s) in silent.iter_mut().enumerate() {
                if !exempt.contains(&NodeId(i as u32)) && rng.chance(plan.silent) {
                    *s = true;
                }
            }
        }
        let mut crashes = Vec::new();
        if plan.crash > 0.0 {
            let span = horizon.ticks().max(1);
            for i in 0..n {
                let node = NodeId(i as u32);
                if !exempt.contains(&node) && rng.chance(plan.crash) {
                    crashes.push((SimTime::from_ticks(rng.below(span)), node));
                }
            }
            // Time-ordered (ties by node id) so the simulator can schedule
            // them in one deterministic pass.
            crashes.sort_by_key(|&(at, node)| (at, node.0));
        }
        FaultState { silent, crashes }
    }

    /// Whether `node` is a silent free-rider.
    pub fn is_silent(&self, node: NodeId) -> bool {
        self.silent.get(node.index()).copied().unwrap_or(false)
    }

    /// Number of silent nodes in this run.
    pub fn silent_count(&self) -> usize {
        self.silent.iter().filter(|&&s| s).count()
    }

    /// The crash schedule, time-ordered.
    pub fn crash_schedule(&self) -> &[(SimTime, NodeId)] {
        &self.crashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_bounds_rates() {
        let mut plan = FaultPlan::default();
        assert!(plan.validate().is_ok());
        assert!(plan.is_noop());
        plan.loss = 1.0;
        let e = plan.validate().unwrap_err();
        assert!(e.to_string().contains("loss"), "{e}");
        plan.loss = 0.2;
        plan.crash = -0.1;
        assert!(plan.validate().is_err());
        plan.crash = 0.0;
        assert!(plan.validate().is_ok());
        assert!(!plan.is_noop());
    }

    #[test]
    fn zero_plan_draws_nothing() {
        // Message-level sugar is not a node-level fault: a plan with only
        // `loss`/`jitter` materializes to the same empty state as none.
        let sugar = FaultPlan {
            loss: 0.5,
            jitter: 40,
            ..Default::default()
        };
        for plan in [FaultPlan::default(), sugar] {
            let state = FaultState::new(
                plan,
                50,
                SimTime::from_ticks(1_000),
                &[],
                Rng64::seed_from(7),
            );
            assert_eq!(state.silent_count(), 0);
            assert!(state.crash_schedule().is_empty());
        }
    }

    #[test]
    fn crash_schedule_is_time_ordered_and_exempts() {
        let plan = FaultPlan {
            crash: 0.5,
            ..Default::default()
        };
        let state = FaultState::new(
            plan,
            100,
            SimTime::from_ticks(10_000),
            &[NodeId(3)],
            Rng64::seed_from(11),
        );
        let crashes = state.crash_schedule();
        assert!(!crashes.is_empty());
        assert!(crashes.windows(2).all(|w| w[0].0 <= w[1].0), "unsorted");
        assert!(crashes
            .iter()
            .all(|&(at, n)| { n != NodeId(3) && at < SimTime::from_ticks(10_000) }));
    }

    #[test]
    fn silent_selection_respects_rate_and_exemptions() {
        let plan = FaultPlan {
            silent: 0.3,
            ..Default::default()
        };
        let state = FaultState::new(
            plan,
            1_000,
            SimTime::from_ticks(1),
            &[NodeId(0)],
            Rng64::seed_from(5),
        );
        assert!(!state.is_silent(NodeId(0)), "exempt node fell silent");
        let frac = state.silent_count() as f64 / 1_000.0;
        assert!((frac - 0.3).abs() < 0.08, "silent fraction {frac}");
    }

    #[test]
    fn describe_is_canonical() {
        let plan = FaultPlan {
            loss: 0.05,
            jitter: 40,
            crash: 0.01,
            silent: 0.02,
        };
        assert_eq!(
            plan.describe(),
            "faults(loss=0.05,jitter=40,crash=0.01,silent=0.02)"
        );
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn state_rejects_invalid_plans() {
        let plan = FaultPlan {
            loss: 2.0,
            ..Default::default()
        };
        FaultState::new(plan, 10, SimTime::from_ticks(1), &[], Rng64::seed_from(1));
    }
}
