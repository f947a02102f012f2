//! Traffic and search-quality metrics.
//!
//! The motivating claim of the paper is that rule-based forwarding
//! "results in considerably less network traffic" while "maintaining the
//! ability to successfully locate content". These metrics quantify both
//! halves for any policy: messages per query (query relays + hit relays),
//! hit rate, and hops/latency to the first hit.

use arq_simkern::time::Duration;
use arq_simkern::{Summary, Welford};

/// Per-query bookkeeping while a query is live.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// Query-descriptor transmissions caused by this query.
    pub query_messages: u64,
    /// Hit transmissions caused by this query.
    pub hit_messages: u64,
    /// Total bytes transmitted on this query's behalf (queries + hits).
    pub bytes: u64,
    /// Hits delivered to the issuer.
    pub hits_delivered: u64,
    /// Hops of the first hit's query path, if any hit arrived.
    pub first_hit_hops: Option<u32>,
    /// Latency to the first delivered hit.
    pub first_hit_latency: Option<Duration>,
    /// Whether any node holding the file was actually online and
    /// reachable when the query was issued (ground truth; a query with no
    /// available holder cannot be "missed" by a policy).
    pub answerable: bool,
    /// Flood attempts (expanding-ring reissues and retries count extra).
    pub attempts: u32,
    /// Timeout-driven retries of this query (attempts beyond the first).
    pub retries: u32,
    /// Whether the query exhausted its retry budget without a hit.
    pub expired: bool,
    /// Hits from responders that had already answered this query —
    /// suppressed rather than delivered (retries can re-discover the
    /// same holder).
    pub duplicate_hits: u64,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Policy label.
    pub policy: String,
    /// Queries issued.
    pub queries: u64,
    /// Queries with at least one available holder at issue time.
    pub answerable: u64,
    /// Queries that delivered at least one hit to the issuer.
    pub answered: u64,
    /// Total query-descriptor transmissions.
    pub query_messages: u64,
    /// Total hit transmissions.
    pub hit_messages: u64,
    /// Total bytes transmitted.
    pub bytes: u64,
    /// Mean messages (query + hit) per issued query.
    pub messages_per_query: f64,
    /// Mean bytes per issued query.
    pub bytes_per_query: f64,
    /// Hit rate over answerable queries.
    pub success_rate: f64,
    /// Total timeout-driven retries across all queries.
    pub retried: u64,
    /// Queries that exhausted their retry budget without a hit.
    pub expired: u64,
    /// Suppressed duplicate hit deliveries.
    pub duplicate_hits: u64,
    /// Messages dropped in flight by the link layer's seeded loss process.
    pub lost_messages: u64,
    /// Messages dropped by a full link-layer byte buffer. Disjoint from
    /// `lost_messages` by construction: a message meets at most one of
    /// the two fates, so the counters never double-count.
    pub buffer_dropped: u64,
    /// Summary of first-hit hop counts (answered queries only).
    pub first_hit_hops: Option<Summary>,
    /// Summary of first-hit latencies in ticks (answered queries only).
    pub first_hit_latency: Option<Summary>,
}

impl RunMetrics {
    /// FNV-1a digest over the canonical JSON serialization — a stable
    /// fingerprint of every measured value, including the retry/fault
    /// lifecycle counters (`retried`, `expired`, `duplicate_hits`,
    /// `lost_messages`). Report tooling surfaces this next to the config
    /// digest so two runs can be compared at a glance.
    pub fn digest(&self) -> u64 {
        use arq_simkern::ToJson;
        arq_simkern::rng::fnv1a(self.to_json().to_string().as_bytes())
    }
}

impl arq_simkern::ToJson for RunMetrics {
    fn to_json(&self) -> arq_simkern::Json {
        use arq_simkern::Json;
        let mut fields = vec![
            ("policy", Json::from(&self.policy)),
            ("queries", Json::from(self.queries)),
            ("answerable", Json::from(self.answerable)),
            ("answered", Json::from(self.answered)),
            ("query_messages", Json::from(self.query_messages)),
            ("hit_messages", Json::from(self.hit_messages)),
            ("bytes", Json::from(self.bytes)),
            ("messages_per_query", Json::from(self.messages_per_query)),
            ("bytes_per_query", Json::from(self.bytes_per_query)),
            ("success_rate", Json::from(self.success_rate)),
            ("retried", Json::from(self.retried)),
            ("expired", Json::from(self.expired)),
            ("duplicate_hits", Json::from(self.duplicate_hits)),
            ("lost_messages", Json::from(self.lost_messages)),
        ];
        // Only link-enabled runs can buffer-drop; omitting the zero
        // keeps every pre-link serialization (and digest) unchanged.
        if self.buffer_dropped > 0 {
            fields.push(("buffer_dropped", Json::from(self.buffer_dropped)));
        }
        fields.push(("first_hit_hops", self.first_hit_hops.to_json()));
        fields.push(("first_hit_latency", self.first_hit_latency.to_json()));
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// Accumulates per-query outcomes into [`RunMetrics`].
#[derive(Debug, Default)]
pub struct MetricsBuilder {
    queries: u64,
    answerable: u64,
    answered: u64,
    query_messages: u64,
    hit_messages: u64,
    bytes: u64,
    retried: u64,
    expired: u64,
    duplicate_hits: u64,
    hops: Vec<f64>,
    latency: Vec<f64>,
    msg_stats: Welford,
}

impl MetricsBuilder {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        MetricsBuilder::default()
    }

    /// Folds in one finished query.
    pub fn record(&mut self, outcome: &QueryOutcome) {
        self.queries += 1;
        if outcome.answerable {
            self.answerable += 1;
        }
        if outcome.hits_delivered > 0 {
            self.answered += 1;
        }
        self.query_messages += outcome.query_messages;
        self.hit_messages += outcome.hit_messages;
        self.bytes += outcome.bytes;
        self.retried += u64::from(outcome.retries);
        if outcome.expired {
            self.expired += 1;
        }
        self.duplicate_hits += outcome.duplicate_hits;
        self.msg_stats
            .push((outcome.query_messages + outcome.hit_messages) as f64);
        if let Some(h) = outcome.first_hit_hops {
            self.hops.push(f64::from(h));
        }
        if let Some(l) = outcome.first_hit_latency {
            self.latency.push(l.ticks() as f64);
        }
    }

    /// Number of queries folded so far.
    pub fn count(&self) -> u64 {
        self.queries
    }

    /// Finalizes into [`RunMetrics`].
    pub fn finish(self, policy: &str) -> RunMetrics {
        RunMetrics {
            policy: policy.to_string(),
            queries: self.queries,
            answerable: self.answerable,
            answered: self.answered,
            query_messages: self.query_messages,
            hit_messages: self.hit_messages,
            bytes: self.bytes,
            messages_per_query: self.msg_stats.mean(),
            bytes_per_query: if self.queries == 0 {
                0.0
            } else {
                self.bytes as f64 / self.queries as f64
            },
            success_rate: if self.answerable == 0 {
                0.0
            } else {
                self.answered as f64 / self.answerable as f64
            },
            retried: self.retried,
            expired: self.expired,
            duplicate_hits: self.duplicate_hits,
            lost_messages: 0,
            buffer_dropped: 0,
            first_hit_hops: Summary::of(&self.hops),
            first_hit_latency: Summary::of(&self.latency),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(qm: u64, hm: u64, hits: u64, answerable: bool) -> QueryOutcome {
        QueryOutcome {
            query_messages: qm,
            hit_messages: hm,
            bytes: qm * 45 + hm * 79,
            hits_delivered: hits,
            first_hit_hops: (hits > 0).then_some(3),
            first_hit_latency: (hits > 0).then(|| Duration::from_ticks(50)),
            answerable,
            attempts: 1,
            retries: 0,
            expired: false,
            duplicate_hits: 0,
        }
    }

    #[test]
    fn aggregation() {
        let mut b = MetricsBuilder::new();
        b.record(&outcome(100, 10, 2, true));
        b.record(&outcome(50, 0, 0, true));
        b.record(&outcome(30, 0, 0, false)); // unanswerable
        let m = b.finish("flood");
        assert_eq!(m.queries, 3);
        assert_eq!(m.answerable, 2);
        assert_eq!(m.answered, 1);
        assert_eq!(m.query_messages, 180);
        assert_eq!(m.hit_messages, 10);
        assert_eq!(m.bytes, 180 * 45 + 10 * 79);
        assert!((m.bytes_per_query - m.bytes as f64 / 3.0).abs() < 1e-9);
        assert!((m.messages_per_query - (110.0 + 50.0 + 30.0) / 3.0).abs() < 1e-12);
        assert!((m.success_rate - 0.5).abs() < 1e-12);
        let hops = m.first_hit_hops.unwrap();
        assert_eq!(hops.count, 1);
        assert_eq!(hops.mean, 3.0);
    }

    #[test]
    fn failure_counters_aggregate() {
        let mut b = MetricsBuilder::new();
        let mut retried = outcome(40, 2, 1, true);
        retried.retries = 2;
        retried.duplicate_hits = 1;
        b.record(&retried);
        let mut dead = outcome(20, 0, 0, true);
        dead.retries = 3;
        dead.expired = true;
        b.record(&dead);
        let m = b.finish("assoc");
        assert_eq!(m.retried, 5);
        assert_eq!(m.expired, 1);
        assert_eq!(m.duplicate_hits, 1);
        assert_eq!(m.lost_messages, 0); // filled in by the simulator
    }

    #[test]
    fn buffer_dropped_serializes_only_when_nonzero() {
        use arq_simkern::ToJson;
        let mut m = MetricsBuilder::new().finish("flood");
        let clean = m.to_json().to_string();
        assert!(!clean.contains("buffer_dropped"), "{clean}");
        let clean_digest = m.digest();
        m.buffer_dropped = 3;
        let congested = m.to_json().to_string();
        assert!(congested.contains("\"buffer_dropped\":3"), "{congested}");
        assert_ne!(m.digest(), clean_digest);
    }

    #[test]
    fn empty_run() {
        let m = MetricsBuilder::new().finish("none");
        assert_eq!(m.queries, 0);
        assert_eq!(m.success_rate, 0.0);
        assert!(m.first_hit_hops.is_none());
    }
}
