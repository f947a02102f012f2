//! The trace schema.
//!
//! Field-for-field, this follows §IV-A of the paper:
//!
//! > "For queries, the query string, the time of the query, the IP address
//! > of the node that forwarded the query, and a globally-unique
//! > identifier (GUID) assigned to the query by the issuing node were
//! > recorded. For replies, the time the reply was received, the GUID of
//! > the query, the neighbor from which the reply was sent, the host of
//! > the matching file, and the name of the file matching the query were
//! > recorded."
//!
//! Hosts are interned as [`HostId`] (the analogue of an IP address) and
//! query strings as [`QueryId`]; both stay stable across the life of a
//! trace so joins and rule antecedents remain meaningful.

use arq_simkern::SimTime;
use std::fmt;

/// A host identity as seen by the collecting node (the paper's IP
/// address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// An interned query string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

/// A query's globally-unique identifier — *assigned by the issuing node*,
/// and therefore not actually guaranteed unique: faulty clients reuse
/// them, which is why [`crate::db::TraceDb::clean`] exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Guid(pub u128);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl fmt::Display for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// One query message observed at the collecting node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRecord {
    /// When the query arrived.
    pub time: SimTime,
    /// The query's GUID as stamped by its issuer.
    pub guid: Guid,
    /// The neighbor that forwarded the query to us.
    pub from: HostId,
    /// The (interned) query string.
    pub query: QueryId,
}

/// One reply message observed at the collecting node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyRecord {
    /// When the reply arrived.
    pub time: SimTime,
    /// GUID of the query being answered.
    pub guid: Guid,
    /// The neighbor that delivered the reply — the *next hop on the path
    /// that led to a hit*, i.e. the rule consequent.
    pub via: HostId,
    /// The remote host actually sharing the matching file.
    pub responder: HostId,
    /// The (interned) name of the matching file.
    pub file: QueryId,
}

/// A joined query–reply pair: the unit the rule miner and all four
/// strategies consume. `src → via` is the candidate association rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRecord {
    /// Reply arrival time (pairs are ordered by it).
    pub time: SimTime,
    /// GUID shared by query and reply.
    pub guid: Guid,
    /// The neighbor the query came from (rule antecedent).
    pub src: HostId,
    /// The neighbor the reply came back through (rule consequent).
    pub via: HostId,
    /// The host sharing the file.
    pub responder: HostId,
    /// The query string id.
    pub query: QueryId,
}

/// Seeded random records for the property loops beside the code: up to
/// `max` of each, over small GUID and host ranges so that duplicates,
/// orphans and shared sources occur.
#[cfg(test)]
pub(crate) mod random {
    use super::*;
    use arq_simkern::Rng64;

    pub fn queries(rng: &mut Rng64, max: usize) -> Vec<QueryRecord> {
        (0..rng.index(max + 1))
            .map(|_| QueryRecord {
                time: SimTime::from_ticks(rng.below(10_000)),
                guid: Guid(rng.below(64).into()),
                from: HostId(rng.below(32) as u32),
                query: QueryId(rng.below(100) as u32),
            })
            .collect()
    }

    pub fn replies(rng: &mut Rng64, max: usize) -> Vec<ReplyRecord> {
        (0..rng.index(max + 1))
            .map(|_| ReplyRecord {
                time: SimTime::from_ticks(rng.below(10_000)),
                guid: Guid(rng.below(64).into()),
                via: HostId(rng.below(32) as u32),
                responder: HostId(rng.below(500) as u32),
                file: QueryId(0),
            })
            .collect()
    }

    /// Time-sorted pairs (each pair's time is its GUID).
    pub fn pairs(rng: &mut Rng64, max: usize) -> Vec<PairRecord> {
        let mut pairs: Vec<PairRecord> = (0..rng.index(max + 1))
            .map(|_| {
                let g = rng.below(1_000_000);
                PairRecord {
                    time: SimTime::from_ticks(g),
                    guid: Guid(g.into()),
                    src: HostId(rng.below(64) as u32),
                    via: HostId(rng.below(64) as u32),
                    responder: HostId(rng.below(64) as u32),
                    query: QueryId(rng.below(512) as u32),
                }
            })
            .collect();
        pairs.sort_by_key(|p| p.time);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(HostId(7).to_string(), "h7");
        assert_eq!(QueryId(3).to_string(), "q3");
        assert_eq!(Guid(0xAB).to_string().len(), 32);
    }

    #[test]
    fn records_are_copy_and_comparable() {
        let q = QueryRecord {
            time: SimTime::from_ticks(1),
            guid: Guid(9),
            from: HostId(2),
            query: QueryId(4),
        };
        let q2 = q; // Copy
        assert_eq!(q, q2);
    }
}
