//! The in-memory trace database.
//!
//! Replaces the paper's MySQL instance. The lifecycle is:
//!
//! 1. **ingest** raw [`QueryRecord`]s and [`ReplyRecord`]s (from the live
//!    simulator's collector node, a CSV import, or the synthetic
//!    generator);
//! 2. **clean** — the paper found GUIDs reused by faulty clients and kept
//!    only "the record corresponding to the first use of that GUID";
//! 3. **join** — inner-join queries with replies on GUID, producing the
//!    time-ordered [`PairRecord`] stream ("the join of these data produced
//!    3,254,274 query-reply pairs").

use crate::record::{Guid, PairRecord, QueryRecord, ReplyRecord};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Counters describing a [`TraceDb::clean`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanReport {
    /// Query records dropped because their GUID was already used.
    pub duplicate_queries: u64,
    /// Reply records dropped because they answer a dropped duplicate or
    /// carry a GUID with no surviving query at all.
    pub orphan_replies: u64,
}

/// In-memory store of one trace.
#[derive(Debug, Default, Clone)]
pub struct TraceDb {
    queries: Vec<QueryRecord>,
    replies: Vec<ReplyRecord>,
    cleaned: bool,
}

impl TraceDb {
    /// An empty database.
    pub fn new() -> Self {
        TraceDb::default()
    }

    /// Ingests one query record.
    pub fn push_query(&mut self, q: QueryRecord) {
        self.cleaned = false;
        self.queries.push(q);
    }

    /// Ingests one reply record.
    pub fn push_reply(&mut self, r: ReplyRecord) {
        self.cleaned = false;
        self.replies.push(r);
    }

    /// Bulk ingest.
    pub fn extend(
        &mut self,
        queries: impl IntoIterator<Item = QueryRecord>,
        replies: impl IntoIterator<Item = ReplyRecord>,
    ) {
        self.cleaned = false;
        self.queries.extend(queries);
        self.replies.extend(replies);
    }

    /// Number of stored query records.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Number of stored reply records.
    pub fn reply_count(&self) -> usize {
        self.replies.len()
    }

    /// The stored query records.
    pub fn queries(&self) -> &[QueryRecord] {
        &self.queries
    }

    /// The stored reply records.
    pub fn replies(&self) -> &[ReplyRecord] {
        &self.replies
    }

    /// Removes duplicate-GUID queries (keeping the chronologically first
    /// use) and replies that no longer join to any surviving query.
    ///
    /// Idempotent: running `clean` twice reports zero work the second
    /// time.
    pub fn clean(&mut self) -> CleanReport {
        let mut report = CleanReport::default();

        // Sort queries by time so "first use" is well defined even when
        // ingestion interleaved sources.
        self.queries.sort_by_key(|q| (q.time, q.guid));
        let mut first_query: HashMap<Guid, QueryRecord> =
            HashMap::with_capacity(self.queries.len());
        let mut kept_queries = Vec::with_capacity(self.queries.len());
        for q in self.queries.drain(..) {
            match first_query.entry(q.guid) {
                Entry::Vacant(v) => {
                    v.insert(q);
                    kept_queries.push(q);
                }
                Entry::Occupied(_) => {
                    report.duplicate_queries += 1;
                }
            }
        }
        self.queries = kept_queries;

        // A reply survives only if a surviving query carries its GUID and
        // precedes it in time (a reply cannot legitimately arrive before
        // its query was seen).
        self.replies.sort_by_key(|r| (r.time, r.guid));
        let mut kept_replies = Vec::with_capacity(self.replies.len());
        for r in self.replies.drain(..) {
            match first_query.get(&r.guid) {
                Some(q) if q.time <= r.time => kept_replies.push(r),
                _ => report.orphan_replies += 1,
            }
        }
        self.replies = kept_replies;
        self.cleaned = true;
        report
    }

    /// Inner-joins queries and replies on GUID, producing the pair stream
    /// ordered by reply time. Every surviving reply yields exactly one
    /// pair, matching the paper's join cardinality.
    ///
    /// # Panics
    ///
    /// Panics if called before [`TraceDb::clean`] — joining dirty data
    /// silently reproduces the GUID-collision bug the paper had to clean
    /// up, so we make the ordering explicit.
    pub fn join(&self) -> Vec<PairRecord> {
        assert!(self.cleaned, "TraceDb::join called before clean()");
        let by_guid: HashMap<Guid, &QueryRecord> =
            self.queries.iter().map(|q| (q.guid, q)).collect();
        let mut pairs: Vec<PairRecord> = self
            .replies
            .iter()
            .filter_map(|r| {
                by_guid.get(&r.guid).map(|q| PairRecord {
                    time: r.time,
                    guid: r.guid,
                    src: q.from,
                    via: r.via,
                    responder: r.responder,
                    query: q.query,
                })
            })
            .collect();
        pairs.sort_by_key(|p| (p.time, p.guid));
        pairs
    }

    /// Convenience: clean then join.
    pub fn clean_and_join(&mut self) -> (CleanReport, Vec<PairRecord>) {
        let report = self.clean();
        let pairs = self.join();
        (report, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{HostId, QueryId};
    use arq_simkern::SimTime;

    fn q(t: u64, guid: u128, from: u32, query: u32) -> QueryRecord {
        QueryRecord {
            time: SimTime::from_ticks(t),
            guid: Guid(guid),
            from: HostId(from),
            query: QueryId(query),
        }
    }

    fn r(t: u64, guid: u128, via: u32, responder: u32) -> ReplyRecord {
        ReplyRecord {
            time: SimTime::from_ticks(t),
            guid: Guid(guid),
            via: HostId(via),
            responder: HostId(responder),
            file: QueryId(0),
        }
    }

    #[test]
    fn clean_keeps_first_guid_use() {
        let mut db = TraceDb::new();
        db.push_query(q(10, 1, 100, 0)); // duplicate, later
        db.push_query(q(5, 1, 200, 0)); // first use
        db.push_query(q(7, 2, 300, 0));
        let report = db.clean();
        assert_eq!(report.duplicate_queries, 1);
        assert_eq!(db.query_count(), 2);
        // The survivor for GUID 1 is the t=5 record from host 200.
        let survivor = db.queries().iter().find(|x| x.guid == Guid(1)).unwrap();
        assert_eq!(survivor.from, HostId(200));
    }

    #[test]
    fn clean_drops_orphan_and_premature_replies() {
        let mut db = TraceDb::new();
        db.push_query(q(10, 1, 100, 0));
        db.push_reply(r(20, 1, 101, 500)); // fine
        db.push_reply(r(5, 1, 102, 501)); // before query: dropped
        db.push_reply(r(30, 99, 103, 502)); // no such query: dropped
        let report = db.clean();
        assert_eq!(report.orphan_replies, 2);
        assert_eq!(db.reply_count(), 1);
    }

    #[test]
    fn clean_is_idempotent() {
        let mut db = TraceDb::new();
        db.push_query(q(1, 1, 1, 0));
        db.push_query(q(2, 1, 2, 0));
        db.push_reply(r(3, 1, 3, 4));
        let first = db.clean();
        assert_eq!(first.duplicate_queries, 1);
        let second = db.clean();
        assert_eq!(second, CleanReport::default());
    }

    #[test]
    fn join_produces_one_pair_per_surviving_reply() {
        let mut db = TraceDb::new();
        db.push_query(q(1, 10, 7, 42));
        db.push_query(q(2, 11, 8, 43));
        db.push_reply(r(5, 10, 9, 100));
        db.push_reply(r(6, 10, 9, 101)); // second reply to same query
        db.push_reply(r(7, 11, 12, 102));
        let (_, pairs) = db.clean_and_join();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].src, HostId(7));
        assert_eq!(pairs[0].via, HostId(9));
        assert_eq!(pairs[0].query, QueryId(42));
        // Ordered by reply time.
        assert!(pairs.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    #[should_panic(expected = "before clean")]
    fn join_requires_clean() {
        let mut db = TraceDb::new();
        db.push_query(q(1, 1, 1, 1));
        db.join();
    }

    #[test]
    fn duplicate_guid_replies_join_to_first_query_only() {
        // The paper: "instances of different queries having the same GUID
        // were found … only the record corresponding to the first use of
        // that GUID was kept."
        let mut db = TraceDb::new();
        db.push_query(q(1, 5, 10, 1)); // first use, from host 10
        db.push_query(q(4, 5, 20, 2)); // faulty client reuses GUID 5
        db.push_reply(r(8, 5, 30, 99));
        let (report, pairs) = db.clean_and_join();
        assert_eq!(report.duplicate_queries, 1);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].src, HostId(10), "pair joined to the wrong query");
    }

    #[test]
    fn empty_db_cleans_and_joins() {
        let mut db = TraceDb::new();
        let (report, pairs) = db.clean_and_join();
        assert_eq!(report, CleanReport::default());
        assert!(pairs.is_empty());
    }

    /// Cleaning leaves one query per GUID, keeps its earliest use, and is
    /// idempotent; join then yields one time-ordered pair per surviving
    /// reply, each carrying its query's fields.
    #[test]
    fn clean_dedups_and_join_pairs_replies_on_random_traces() {
        use crate::record::random;
        let mut rng = arq_simkern::Rng64::seed_from(0xC1EA);
        for case in 0..100 {
            let queries = random::queries(&mut rng, 200);
            let mut db = TraceDb::new();
            db.extend(queries.clone(), random::replies(&mut rng, 200));
            let report = db.clean();
            let mut guids = std::collections::HashSet::new();
            for q in db.queries() {
                assert!(guids.insert(q.guid), "case {case}: duplicate GUID");
                let earliest = queries.iter().filter(|x| x.guid == q.guid);
                assert_eq!(Some(q.time), earliest.map(|x| x.time).min());
            }
            assert_eq!(
                report.duplicate_queries as usize,
                queries.len() - db.query_count()
            );
            let again = db.clean();
            assert_eq!((again.duplicate_queries, again.orphan_replies), (0, 0));

            let pairs = db.join();
            assert_eq!(pairs.len(), db.reply_count(), "case {case}");
            let by_guid: std::collections::HashMap<_, _> =
                db.queries().iter().map(|q| (q.guid, q)).collect();
            for p in &pairs {
                let q = by_guid[&p.guid];
                assert_eq!((p.src, p.query), (q.from, q.query));
                assert!(p.time >= q.time);
            }
            assert!(pairs.windows(2).all(|w| w[0].time <= w[1].time));
        }
    }
}
