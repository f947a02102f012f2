//! The names this harness prints: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit and direction. `BENCHMARK.json`
//! at the repository root lists the same names (a test and `check.sh`
//! hold the two together) and adds the regression bounds.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Which user's workloads a metric belongs to. A traced run of a
/// workload measures its own family's metrics at the workload's scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The trace / sweep researcher: `trace-sweep`.
    Trace,
    /// The simulator user: `sim-flood`, `sim-scale`, `sim-links`.
    Sim,
    /// The `arq serve` operator: `serve-ingest`, `serve-route`.
    Serve,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `None`: every workload measures it itself.
    pub family: Option<Family>,
}

const fn def(name: &'static str, unit: &'static str, better: Better, family: Family) -> Def {
    Def {
        name,
        unit,
        better,
        family: Some(family),
    }
}

use Better::{Higher, Lower};
use Family::{Serve, Sim, Trace};

/// What a user of the system sees. `ops_per_s` counts each workload's
/// own operation: pairs evaluated (`trace-sweep`), queries issued
/// (`sim-*`), frames consumed (`serve-*`).
pub const END_TO_END: &[Def] = &[
    Def {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        family: None,
    },
    Def {
        name: "setup_s",
        unit: "s",
        better: Lower,
        family: None,
    },
    Def {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        family: None,
    },
];

pub const PER_LAYER: &[Def] = &[
    Def {
        name: "trace.overhead_ratio",
        unit: "ratio",
        better: Lower,
        family: None,
    },
    Def {
        name: "fail_share",
        unit: "ratio",
        better: Lower,
        family: None,
    },
    // trace / assoc / core — the trace-sweep family.
    def("trace.synth_pairs_per_s", "1/s", Higher, Trace),
    def("trace.columns_pairs_per_s", "1/s", Higher, Trace),
    def("assoc.mine_pairs_per_s", "1/s", Higher, Trace),
    def("assoc.incremental_observe_per_s", "1/s", Higher, Trace),
    def("core.evaluate_pairs_per_s.static", "1/s", Higher, Trace),
    def("core.evaluate_pairs_per_s.sliding", "1/s", Higher, Trace),
    def("core.evaluate_pairs_per_s.lazy", "1/s", Higher, Trace),
    def("core.evaluate_pairs_per_s.adaptive", "1/s", Higher, Trace),
    def(
        "core.evaluate_pairs_per_s.incremental",
        "1/s",
        Higher,
        Trace,
    ),
    def("core.evaluate_pairs_per_s.lossy", "1/s", Higher, Trace),
    def("core.sweep.overhead_ratio", "ratio", Lower, Trace),
    def("core.sweep.journal_ms_per_job", "ms", Lower, Trace),
    def("core.executor.speedup_2t", "ratio", Higher, Trace),
    // overlay / content / gnutella / simkern / policy / obs — the sim family.
    def("overlay.generate_s", "s", Lower, Sim),
    def("content.build_s", "s", Lower, Sim),
    def("gnutella.network_new_s", "s", Lower, Sim),
    def("gnutella.msgs_per_s", "1/s", Higher, Sim),
    def("gnutella.ns_per_msg", "ns", Lower, Sim),
    def("gnutella.us_per_query", "us", Lower, Sim),
    def("gnutella.self_share", "ratio", Lower, Sim),
    def("policy.select_calls", "count", Lower, Sim),
    def("policy.select_ns", "ns", Lower, Sim),
    def("policy.on_reply_calls", "count", Lower, Sim),
    def("policy.on_reply_ns", "ns", Lower, Sim),
    def("policy.share", "ratio", Lower, Sim),
    def("simkern.queue.op_ns", "ns", Lower, Sim),
    def("simkern.queue.share", "ratio", Lower, Sim),
    def("gnutella.store.record_ns", "ns", Lower, Sim),
    def("gnutella.store.share", "ratio", Lower, Sim),
    def("gnutella.net.transmit_ns", "ns", Lower, Sim),
    def("gnutella.net.share", "ratio", Lower, Sim),
    def("gnutella.success_rate", "ratio", Higher, Sim),
    def("gnutella.msgs_per_query", "count", Lower, Sim),
    def("gnutella.lost_messages", "count", Lower, Sim),
    def("gnutella.buffer_dropped", "count", Lower, Sim),
    def("obs.on_overhead_ratio", "ratio", Lower, Sim),
    // arq::serve and what it stands on — the serve family.
    def("arq.serve.frame_decode_per_s", "1/s", Higher, Serve),
    def("arq.serve.parse_event_per_s", "1/s", Higher, Serve),
    def("simkern.json.parse_mb_per_s", "MB/s", Higher, Serve),
    def("arq.serve.observe_per_s", "1/s", Higher, Serve),
    def("arq.serve.refresh_ms", "ms", Lower, Serve),
    def("arq.serve.route_lookup_ns", "ns", Lower, Serve),
    def("arq.serve.reply_bytes_per_route", "bytes", Lower, Serve),
    def("arq.serve.checkpoint_encode_ms", "ms", Lower, Serve),
    def("arq.serve.checkpoint_decode_ms", "ms", Lower, Serve),
    def("arq.serve.checkpoint_bytes", "bytes", Lower, Serve),
    def("arq.serve.rules", "count", Higher, Serve),
    def("arq.serve.route_rtt_p50_us", "us", Lower, Serve),
    def("arq.serve.route_rtt_p99_us", "us", Lower, Serve),
    def("arq.serve.route_over_1ms_share", "ratio", Lower, Serve),
    def("arq.serve.gen_late_p99_us", "us", Lower, Serve),
];

pub fn per_layer(name: &str) -> Option<&'static Def> {
    PER_LAYER.iter().find(|d| d.name == name)
}
