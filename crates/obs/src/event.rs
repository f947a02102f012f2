//! The typed event taxonomy.
//!
//! Every instrumentation point in the workspace emits one of these
//! variants. Events carry **simulated** coordinates only — a block index
//! in the trace-evaluation world, a [`SimTime`] in the live-simulation
//! world — never a wall clock, so an event stream is a pure function of
//! the run configuration and byte-identical across replays and worker
//! counts.

use arq_simkern::{Json, SimTime, ToJson};

/// Which message class the link layer dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// A query in flight.
    Query,
    /// A hit travelling the reverse path.
    Hit,
}

impl DropKind {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            DropKind::Query => "query",
            DropKind::Hit => "hit",
        }
    }
}

/// One structured observation from a run.
///
/// The trace-evaluation world emits [`Event::BlockStart`],
/// [`Event::RuleTally`], and [`Event::ReMine`]; the live simulator emits
/// [`Event::Forward`], [`Event::Retry`], [`Event::Expire`], and
/// [`Event::FaultDrop`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A test block is about to be evaluated (block 0 is the warm-up and
    /// emits nothing — trials start at block 1).
    BlockStart {
        /// Block index within the trace.
        block: usize,
        /// Pairs in the block (the block's traffic).
        pairs: usize,
    },
    /// The block's RULESET-TEST tallies: of `total` unique responded
    /// queries, `covered` matched a rule antecedent (the hits; the other
    /// `total - covered` are the misses) and `successes` of the covered
    /// ones were answered via a rule consequent.
    RuleTally {
        /// Block index.
        block: usize,
        /// `N` — unique responded queries.
        total: u64,
        /// `n` — queries covered by an antecedent.
        covered: u64,
        /// `s` — covered queries answered via a consequent.
        successes: u64,
    },
    /// The strategy rebuilt its rule set after testing `block`.
    ReMine {
        /// Block index that triggered the regeneration.
        block: usize,
        /// Rules held while testing the block.
        rules_before: usize,
        /// Rules held after the rebuild.
        rules_after: usize,
    },
    /// A relay decision: the policy at `node` picked `selected` of
    /// `candidates` live neighbors (the forward fan-out).
    Forward {
        /// Simulated time of the decision.
        at: SimTime,
        /// Deciding node id.
        node: u32,
        /// Legal forwarding targets offered.
        candidates: usize,
        /// Targets actually selected.
        selected: usize,
    },
    /// A query deadline fired and the query was reissued.
    Retry {
        /// Simulated time of the deadline.
        at: SimTime,
        /// Query index within the run.
        query: usize,
        /// The attempt that just timed out (1-based).
        attempt: u32,
        /// TTL of the reissued attempt.
        ttl: u32,
    },
    /// A query exhausted its retry budget without a hit.
    Expire {
        /// Simulated time of the final deadline.
        at: SimTime,
        /// Query index within the run.
        query: usize,
        /// Attempts spent in total.
        attempts: u32,
    },
    /// The link layer's seeded loss process dropped a message in flight
    /// (whether a `links(loss=)` or a `faults(loss=)` spec asked for it).
    FaultDrop {
        /// Simulated send time of the lost message.
        at: SimTime,
        /// What was lost.
        kind: DropKind,
    },
    /// A full link-layer byte buffer rejected a message (congestive
    /// drop — distinct from the random in-flight loss of
    /// [`Event::FaultDrop`]).
    BufferDrop {
        /// Simulated time the message hit the full buffer.
        at: SimTime,
        /// What was dropped.
        kind: DropKind,
    },
    /// Topology adaptation applied a shortcut edge `asker — target`.
    ShortcutAdded {
        /// Boundary time of the adaptation round.
        at: SimTime,
        /// The node that gains the shortcut.
        asker: u32,
        /// Its new neighbor.
        target: u32,
    },
    /// An applied shortcut was retired: its source rule decayed out of
    /// the policy's consequents, or an endpoint left the overlay.
    ShortcutRetired {
        /// Boundary time of the adaptation round.
        at: SimTime,
        /// The shortcut's owner.
        asker: u32,
        /// The retired neighbor.
        target: u32,
    },
    /// A proposed shortcut was rejected at application time because an
    /// endpoint crashed between the propose and apply boundaries.
    ShortcutRejected {
        /// Boundary time of the adaptation round.
        at: SimTime,
        /// The proposal's owner.
        asker: u32,
        /// The dead (or departed) endpoint's proposed neighbor.
        target: u32,
    },
}

impl Event {
    /// Stable kind label — the `ev` field on the wire and the per-kind
    /// counter name in the registry.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::BlockStart { .. } => "block",
            Event::RuleTally { .. } => "rule_tally",
            Event::ReMine { .. } => "remine",
            Event::Forward { .. } => "forward",
            Event::Retry { .. } => "retry",
            Event::Expire { .. } => "expire",
            Event::FaultDrop { .. } => "fault_drop",
            Event::BufferDrop { .. } => "buffer_drop",
            Event::ShortcutAdded { .. } => "shortcut_added",
            Event::ShortcutRetired { .. } => "shortcut_retired",
            Event::ShortcutRejected { .. } => "shortcut_rejected",
        }
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![("ev".into(), Json::from(self.kind()))];
        let mut push = |k: &str, v: Json| fields.push((k.to_string(), v));
        match self {
            Event::BlockStart { block, pairs } => {
                push("block", Json::from(*block));
                push("pairs", Json::from(*pairs));
            }
            Event::RuleTally {
                block,
                total,
                covered,
                successes,
            } => {
                push("block", Json::from(*block));
                push("total", Json::from(*total));
                push("covered", Json::from(*covered));
                push("successes", Json::from(*successes));
            }
            Event::ReMine {
                block,
                rules_before,
                rules_after,
            } => {
                push("block", Json::from(*block));
                push("rules_before", Json::from(*rules_before));
                push("rules_after", Json::from(*rules_after));
            }
            Event::Forward {
                at,
                node,
                candidates,
                selected,
            } => {
                push("at", Json::from(at.ticks()));
                push("node", Json::from(*node));
                push("candidates", Json::from(*candidates));
                push("selected", Json::from(*selected));
            }
            Event::Retry {
                at,
                query,
                attempt,
                ttl,
            } => {
                push("at", Json::from(at.ticks()));
                push("query", Json::from(*query));
                push("attempt", Json::from(*attempt));
                push("ttl", Json::from(*ttl));
            }
            Event::Expire {
                at,
                query,
                attempts,
            } => {
                push("at", Json::from(at.ticks()));
                push("query", Json::from(*query));
                push("attempts", Json::from(*attempts));
            }
            Event::FaultDrop { at, kind } | Event::BufferDrop { at, kind } => {
                push("at", Json::from(at.ticks()));
                push("kind", Json::from(kind.label()));
            }
            Event::ShortcutAdded { at, asker, target }
            | Event::ShortcutRetired { at, asker, target }
            | Event::ShortcutRejected { at, asker, target } => {
                push("at", Json::from(at.ticks()));
                push("asker", Json::from(*asker));
                push("target", Json::from(*target));
            }
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_compactly_with_kind_first() {
        let ev = Event::RuleTally {
            block: 3,
            total: 100,
            covered: 80,
            successes: 60,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"ev":"rule_tally","block":3,"total":100,"covered":80,"successes":60}"#
        );
        let ev = Event::FaultDrop {
            at: SimTime::from_ticks(42),
            kind: DropKind::Hit,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"ev":"fault_drop","at":42,"kind":"hit"}"#
        );
        let ev = Event::BufferDrop {
            at: SimTime::from_ticks(7),
            kind: DropKind::Query,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"ev":"buffer_drop","at":7,"kind":"query"}"#
        );
        let ev = Event::ShortcutAdded {
            at: SimTime::from_ticks(9),
            asker: 3,
            target: 11,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"ev":"shortcut_added","at":9,"asker":3,"target":11}"#
        );
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            Event::BlockStart { block: 0, pairs: 0 }.kind(),
            Event::RuleTally {
                block: 0,
                total: 0,
                covered: 0,
                successes: 0,
            }
            .kind(),
            Event::ReMine {
                block: 0,
                rules_before: 0,
                rules_after: 0,
            }
            .kind(),
            Event::Forward {
                at: SimTime::ZERO,
                node: 0,
                candidates: 0,
                selected: 0,
            }
            .kind(),
            Event::Retry {
                at: SimTime::ZERO,
                query: 0,
                attempt: 0,
                ttl: 0,
            }
            .kind(),
            Event::Expire {
                at: SimTime::ZERO,
                query: 0,
                attempts: 0,
            }
            .kind(),
            Event::FaultDrop {
                at: SimTime::ZERO,
                kind: DropKind::Query,
            }
            .kind(),
            Event::BufferDrop {
                at: SimTime::ZERO,
                kind: DropKind::Query,
            }
            .kind(),
            Event::ShortcutAdded {
                at: SimTime::ZERO,
                asker: 0,
                target: 0,
            }
            .kind(),
            Event::ShortcutRetired {
                at: SimTime::ZERO,
                asker: 0,
                target: 0,
            }
            .kind(),
            Event::ShortcutRejected {
                at: SimTime::ZERO,
                asker: 0,
                target: 0,
            }
            .kind(),
        ];
        let mut unique: Vec<&str> = kinds.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), kinds.len());
    }
}
