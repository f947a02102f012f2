//! In-memory spans around every call the harness makes into a layer.
//!
//! The harness measures the program from outside, so a span covers one
//! call into `arq` (a set-up stage, the measured call, a probe) or, for
//! the `Timed` policy decorator, a batch of calls. Spans stay in memory
//! and are written when the run ends. End-to-end numbers never come
//! from a run with the tracer enabled.

use arq::simkern::Json;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's
/// epoch; `run` is shared by every span of one measured unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
    /// Calls folded into this span (1 unless it is an aggregate).
    pub calls: u64,
}

/// A batch of decorator calls folded into one span: `start_ns` is the
/// first call's start and `busy_ns` the summed duration of all of them,
/// so a parent's child coverage stays exact while memory stays bounded.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub name: &'static str,
    pub start_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times count from (decorators share it).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Starts a new run id: call once per measured unit.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. `None` when disabled.
    pub fn begin(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
            calls: 1,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span [`Tracer::begin`] returned.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let open = self.stack.pop();
        assert_eq!(open, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result with the wall
    /// seconds it took. The wall time is measured whether or not the
    /// tracer is enabled.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.begin(name);
        let t0 = Instant::now();
        let value = f(self);
        let secs = t0.elapsed().as_secs_f64();
        self.end(id);
        (value, secs)
    }

    /// The most recently opened span called `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Attaches a decorator's batches as children of span `parent`.
    pub fn adopt(&mut self, parent: Option<usize>, batches: &[Batch]) {
        let Some(parent) = parent else { return };
        let run = self.spans[parent].run;
        self.spans.extend(batches.iter().map(|b| Span {
            name: b.name.to_string(),
            start_ns: b.start_ns,
            end_ns: b.start_ns + b.busy_ns,
            parent: Some(parent),
            run,
            calls: b.calls,
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover (children are clipped to the
    /// parent and overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let lo = span.start_ns.max(parent.start_ns);
                let hi = span.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(lo, hi) in kids.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// The spans as a JSON array, self time included.
    pub fn to_json(&self) -> Json {
        let selfs = self.self_times_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::from(s.name.as_str())),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("self_ns", Json::from(self_ns)),
                        ("parent", Json::from(s.parent)),
                        ("run", Json::from(u64::from(s.run))),
                        ("calls", Json::from(s.calls)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".to_string(),
            start_ns,
            end_ns,
            parent,
            run: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut t = Tracer::new();
        t.spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child: 10..50 once
            span(90, 120, Some(0)), // runs past the parent: clipped to 90..100
            span(12, 18, Some(1)),  // grandchild counts against span 1 only
        ];
        assert_eq!(t.self_times_ns(), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn adopted_batches_cover_their_busy_time() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let id = t.begin("run");
        t.end(id);
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 1_000;
        let batch = |start_ns, busy_ns| Batch {
            name: "policy.select",
            start_ns,
            busy_ns,
            calls: 1_000,
        };
        t.adopt(id, &[batch(100, 200), batch(600, 50)]);
        assert_eq!(t.self_times_ns()[0], 750);
        assert_eq!(t.spans()[1].calls, 1_000);
    }

    #[test]
    fn a_disabled_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new();
        let (v, secs) = t.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
