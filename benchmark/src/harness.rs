//! What every workload shares: the run context, the time-boxed unit
//! loop behind the end-to-end metrics, and the per-layer value table.

use crate::span::Tracer;
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Divides every workload count: 1 for a real run, 20 under `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub u64);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const SMOKE: Scale = Scale(20);

    pub fn n(self, count: usize) -> usize {
        (count as u64 / self.0).max(1) as usize
    }

    pub fn secs(self, seconds: f64) -> f64 {
        seconds / self.0 as f64
    }
}

/// One run's inputs and instruments.
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    /// Scratch directory for this process, removed when the run ends.
    pub tmp: PathBuf,
    pub tracer: Tracer,
}

/// A scratch directory beside the executable — inside the build
/// directory, hence inside the checkout — removed on drop. The path is
/// kept relative to the working directory when it can be, so a Unix
/// socket under it stays within the 108-byte address limit.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create() -> std::io::Result<TempDir> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let base = match std::env::current_dir() {
            Ok(cwd) => base.strip_prefix(&cwd).unwrap_or(base),
            Err(_) => base,
        };
        let dir = base
            .join("arq-benchmark-tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What checking one measured unit's outputs found.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Operations the unit attempted, in the workload's own operation.
    pub ops: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Digest of the unit's outputs. Every unit of a run gets the same
    /// inputs, so a differing fingerprint fails the whole unit.
    pub fingerprint: u64,
}

/// The result of one time-boxed loop of set-up → measured call → check.
#[derive(Debug, Clone, Default)]
pub struct Loop {
    pub setup_s: Vec<f64>,
    pub unit_s: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    /// The first unit's output fingerprint, which the others matched
    /// or were failed for.
    pub fingerprint: Option<u64>,
}

impl Loop {
    pub fn measured_s(&self) -> f64 {
        self.unit_s.iter().sum()
    }

    pub fn unit_median_s(&self) -> f64 {
        median(&self.unit_s)
    }

    /// The end-to-end metrics, in `metrics::END_TO_END` order. Every
    /// unit does the same work, so throughput is read off the median
    /// unit: one unit stalled by a noisy neighbour does not move it.
    pub fn end_to_end(&self) -> [f64; 3] {
        let ops_per_unit = self.ops as f64 / self.unit_s.len() as f64;
        [
            ops_per_unit / self.unit_median_s(),
            median(&self.setup_s),
            peak_rss_mb(),
        ]
    }
}

/// Repeats set-up → measured call → check, at least once, until the
/// measured calls alone have taken `seconds`, and returns the last
/// unit's output beside the loop (every unit gets the same inputs, so
/// any stands for the run). Only the measured call counts toward the
/// time box; set-up is timed beside it and the check is not timed.
/// `check` learns whether the unit is the loop's first, where the
/// expensive reference comparison belongs: later units are held to the
/// first one's fingerprint.
pub fn unit_loop<I, O>(
    tracer: &mut Tracer,
    seconds: f64,
    mut setup: impl FnMut(&mut Tracer) -> I,
    mut measure: impl FnMut(&mut Tracer, I) -> O,
    mut check: impl FnMut(&mut Tracer, &O, bool) -> Unit,
) -> (Loop, O) {
    let mut out = Loop::default();
    loop {
        tracer.next_run();
        let (input, setup_s) = tracer.time("setup", &mut setup);
        let id = tracer.begin("measure");
        let t0 = Instant::now();
        let output = measure(tracer, input);
        let unit_s = t0.elapsed().as_secs_f64();
        tracer.end(id);
        let unit = check(tracer, &output, out.fingerprint.is_none());
        let first = *out.fingerprint.get_or_insert(unit.fingerprint);
        out.setup_s.push(setup_s);
        out.unit_s.push(unit_s);
        out.ops += unit.ops;
        out.failed += if unit.fingerprint == first {
            unit.failed
        } else {
            unit.ops
        };
        if out.measured_s() >= seconds {
            return (out, output);
        }
    }
}

/// Per-layer values by metric name, plus free-form facts (digests,
/// sample counts) that are not numbers.
#[derive(Debug, Default)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    pub info: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::metrics::per_layer(name).is_some(),
            "`{name}` is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Counts a probe's own output check.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note("failed_check", what);
        }
    }

    /// Folds in a loop's operations and the two metrics every workload
    /// measures itself.
    pub fn close(&mut self, untraced: &Loop, traced: &Loop) {
        self.attempted += untraced.ops + traced.ops;
        self.failed += untraced.failed + traced.failed;
        self.set(
            "trace.overhead_ratio",
            traced.unit_median_s() / untraced.unit_median_s(),
        );
        self.set("fail_share", self.failed as f64 / self.attempted as f64);
    }
}

/// Times `f` over `iters` calls and returns nanoseconds per call.
pub fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_runs_to_its_time_box_and_holds_units_to_the_first_fingerprint() {
        let mut tracer = Tracer::new();
        let mut n = 0u64;
        let (out, last) = unit_loop(
            &mut tracer,
            0.01,
            |_| (),
            |_, ()| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                n += 1;
                n
            },
            |_, &n, first| {
                assert_eq!(first, n == 1);
                Unit {
                    ops: 10,
                    failed: 0,
                    // From the third unit on the output differs from the first's.
                    fingerprint: u64::from(n >= 3),
                }
            },
        );
        let units = out.unit_s.len() as u64;
        assert!((3..=5).contains(&units), "{units} units of 2 ms in 10 ms");
        assert_eq!(last, units);
        assert_eq!(out.setup_s.len() as u64, units);
        assert!(out.measured_s() >= 0.01);
        assert_eq!((out.ops, out.failed), (10 * units, 10 * (units - 2)));

        // A zero time box still measures one unit.
        let (once, ()) = unit_loop(
            &mut tracer,
            0.0,
            |_| (),
            |_, ()| (),
            |_, (), _| Unit {
                ops: 1,
                failed: 0,
                fingerprint: 0,
            },
        );
        assert_eq!(once.unit_s.len(), 1);
    }

    #[test]
    fn smoke_scale_divides_counts_by_twenty() {
        assert_eq!(Scale::SMOKE.n(100_000), 5_000);
        assert_eq!(Scale::SMOKE.n(9), 1);
        assert_eq!(Scale::FULL.n(250), 250);
    }
}
