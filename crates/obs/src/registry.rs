//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Instruments live in insertion order and snapshot to JSON in that
//! order, so a registry filled by a deterministic run serializes to
//! byte-identical text. Handles ([`CounterId`], [`GaugeId`],
//! [`HistogramId`]) are plain indices — registration is done once at
//! enable time and the hot path is a vector indexing, no hashing.

use arq_simkern::{Histogram, Json, ToJson};

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A deterministic, insertion-ordered collection of instruments.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or re-finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Adds `by` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Registers (or re-finds) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Registers (or re-finds) a histogram by name, covering `[lo, hi)`
    /// with `n` equal buckets.
    pub fn histogram(&mut self, name: &str, lo: f64, hi: f64, n: usize) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(nm, _)| nm == name) {
            return HistogramId(i);
        }
        self.histograms
            .push((name.to_string(), Histogram::new(lo, hi, n)));
        HistogramId(self.histograms.len() - 1)
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, x: f64) {
        self.histograms[id.0].1.record(x);
    }

    /// Reads a counter back by name (reporting/tests).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Reads a gauge back by name.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Reads a histogram back by name (reporting: quantiles and budgets
    /// are computed from the bucket counts, not from raw samples).
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Inserts (or replaces) a pre-filled histogram under `name`. This
    /// is how a service snapshots hot-path instruments kept outside the
    /// registry (behind their own locks) into a scrapeable view.
    pub fn adopt_histogram(&mut self, name: &str, h: Histogram) {
        if let Some(slot) = self.histograms.iter_mut().find(|(n, _)| n == name) {
            slot.1 = h;
        } else {
            self.histograms.push((name.to_string(), h));
        }
    }

    /// Counters in registration order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// Gauges in registration order.
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// Histograms in registration order.
    pub fn histograms(&self) -> &[(String, Histogram)] {
        &self.histograms
    }
}

impl ToJson for Registry {
    fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::from(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(n, v)| (n.clone(), Json::Float(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.to_json()))
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_ordered() {
        let mut r = Registry::new();
        let a = r.counter("alpha");
        let b = r.counter("beta");
        assert_eq!(r.counter("alpha"), a);
        r.inc(a, 2);
        r.inc(b, 1);
        r.inc(a, 3);
        assert_eq!(r.counter_value("alpha"), Some(5));
        assert_eq!(r.counter_value("beta"), Some(1));
        assert_eq!(r.counter_value("gamma"), None);
        let names: Vec<&str> = r.counters().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
    }

    #[test]
    fn adopt_histogram_inserts_and_replaces() {
        let mut r = Registry::new();
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(1.0);
        r.adopt_histogram("lat", h.clone());
        assert_eq!(r.histogram_value("lat").unwrap().count(), 1);
        h.record(2.0);
        r.adopt_histogram("lat", h);
        assert_eq!(r.histogram_value("lat").unwrap().count(), 2);
        assert_eq!(r.histograms().len(), 1);
    }

    #[test]
    fn snapshot_is_insertion_ordered_json() {
        let mut r = Registry::new();
        let c = r.counter("z_first");
        r.counter("a_second");
        r.inc(c, 7);
        let g = r.gauge("level");
        r.set(g, 0.5);
        let h = r.histogram("fanout", 0.0, 8.0, 4);
        r.observe(h, 1.0);
        r.observe(h, 9.0);
        assert_eq!(
            r.to_json().to_string(),
            r#"{"counters":{"z_first":7,"a_second":0},"gauges":{"level":0.5},"histograms":{"fanout":{"lo":0.0,"hi":8.0,"buckets":[1,0,0,0],"underflow":0,"overflow":1,"count":2}}}"#
        );
        assert_eq!(r.histogram_value("fanout").unwrap().count(), 2);
        assert!(r.histogram_value("missing").is_none());
    }
}
