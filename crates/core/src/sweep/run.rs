//! Journaled sweep execution: fan jobs over the deterministic executor,
//! journal each completion durably, assemble the report from the
//! journal.
//!
//! The resumability contract hinges on one decision: the `SweepReport`
//! is *always* assembled by re-reading `journal.jsonl`, never from
//! in-memory results. An uninterrupted sweep and a `kill -9`'d-then-
//! resumed sweep therefore go through the identical code path — parse
//! the journaled rows, order them by job index, emit — and converge to
//! byte-identical `report.json` and `runbook.json`. (The `json` module's
//! exact float round-tripping is what makes parse→re-emit lossless.)
//!
//! The journal itself is an [`arq_simkern::Journal`]: one fsync'd line
//! per completed job, torn tails dropped on read. A job is re-run on
//! resume if and only if its line is absent — there is no third state.

use super::expand::SweepJob;
use super::plan::SweepPlan;
use crate::engine::registry::RegistryError;
use crate::engine::spec::RunArtifact;
use crate::engine::{executor, run_one};
use arq_simkern::json::{self, Json};
use arq_simkern::rng::fnv1a;
use arq_simkern::{write_atomic_str, Journal, ToJson};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// What can go wrong while running a sweep.
#[derive(Debug)]
pub enum SweepError {
    /// A job's spec failed registry construction.
    Registry(RegistryError),
    /// Filesystem trouble (journal, report, or runbook).
    Io(io::Error),
    /// The journal exists but cannot drive this plan — wrong plan hash,
    /// wrong job count, or rows that no longer match the expansion.
    Journal(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Registry(e) => write!(f, "{e}"),
            SweepError::Io(e) => write!(f, "sweep i/o: {e}"),
            SweepError::Journal(m) => write!(f, "sweep journal: {m}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<RegistryError> for SweepError {
    fn from(e: RegistryError) -> Self {
        SweepError::Registry(e)
    }
}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// What [`run_sweep`] leaves behind.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The report document (also written to `report_path`).
    pub report: Json,
    /// The runbook document (also written to `runbook_path`).
    pub runbook: Json,
    /// `<out>/report.json`.
    pub report_path: PathBuf,
    /// `<out>/runbook.json`.
    pub runbook_path: PathBuf,
    /// `<out>/journal.jsonl`.
    pub journal_path: PathBuf,
    /// Total jobs in the plan.
    pub jobs_total: usize,
    /// Jobs executed by this invocation.
    pub jobs_run: usize,
    /// Jobs skipped because the journal already had them.
    pub jobs_skipped: usize,
    /// Sweep-level counters (`sweep_jobs_total/run/skipped`).
    pub registry: arq_obs::Registry,
}

/// FNV-1a digest of an artifact's JSON with the positional `index` field
/// removed — the *content* fingerprint of a run. Two artifacts of the
/// same run reached via different job orderings (a legacy hand-coded
/// experiment vs. a sweep plan) digest equal; any change to the
/// measurements or provenance changes the digest.
pub fn artifact_content_digest(artifact: &RunArtifact) -> u64 {
    let Json::Obj(fields) = artifact.to_json() else {
        unreachable!("RunArtifact serializes as an object");
    };
    let content: Vec<(String, Json)> = fields.into_iter().filter(|(k, _)| k != "index").collect();
    fnv1a(Json::Obj(content).to_string().as_bytes())
}

/// One report row, built from a finished job.
fn report_row(job: &SweepJob, artifact: &RunArtifact) -> Json {
    let params = Json::Obj(
        job.params
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect(),
    );
    let metrics = match (&artifact.eval_run(), &artifact.metrics()) {
        (Some(run), _) => Json::obj([
            ("kind", Json::from("trace-eval")),
            ("avg_coverage", Json::Float(run.avg_coverage)),
            ("avg_success", Json::Float(run.avg_success)),
            ("regenerations", Json::from(run.regenerations)),
            ("trials", Json::from(run.trials)),
        ]),
        (_, Some(m)) => Json::obj([
            ("kind", Json::from("live-sim")),
            ("messages_per_query", Json::Float(m.messages_per_query)),
            ("bytes_per_query", Json::Float(m.bytes_per_query)),
            ("success_rate", Json::Float(m.success_rate)),
            ("answered", Json::from(m.answered)),
            ("queries", Json::from(m.queries)),
            ("retried", Json::from(m.retried)),
            ("expired", Json::from(m.expired)),
            ("lost_messages", Json::from(m.lost_messages)),
            ("buffer_dropped", Json::from(m.buffer_dropped)),
        ]),
        _ => unreachable!("an artifact is either a trace run or a live run"),
    };
    Json::obj([
        ("index", Json::from(job.index)),
        ("params", params),
        ("seed", Json::from(artifact.seed)),
        ("label", Json::from(&artifact.label)),
        ("spec", Json::from(&artifact.spec)),
        (
            "spec_digest",
            Json::from(format!("{:016x}", artifact.digest)),
        ),
        (
            "artifact_digest",
            Json::from(format!("{:016x}", artifact_content_digest(artifact))),
        ),
        ("metrics", metrics),
    ])
}

fn journal_header(plan: &SweepPlan, jobs: usize) -> String {
    Json::obj([
        ("kind", Json::from("arq-sweep-journal")),
        ("plan", Json::from(&plan.name)),
        ("plan_hash", Json::from(format!("{:016x}", plan.hash()))),
        ("jobs", Json::from(jobs)),
    ])
    .to_string()
}

/// Reads the journal at `path` and returns the already-completed rows,
/// indexed by job, after checking the header against this plan and each
/// row's spec digest against this expansion.
fn read_completed(
    path: &Path,
    plan: &SweepPlan,
    jobs: &[SweepJob],
) -> Result<Vec<Option<Json>>, SweepError> {
    let mut completed: Vec<Option<Json>> = vec![None; jobs.len()];
    let lines = Journal::read_lines(path)?;
    let Some((header, rows)) = lines.split_first() else {
        return Ok(completed);
    };
    let bad = |m: String| SweepError::Journal(format!("{}: {m}", path.display()));
    let header = json::parse(header).map_err(|e| bad(format!("unreadable header: {e}")))?;
    if header.get("kind").and_then(Json::as_str) != Some("arq-sweep-journal") {
        return Err(bad("not a sweep journal (missing kind header)".into()));
    }
    let want_hash = format!("{:016x}", plan.hash());
    let got_hash = header.get("plan_hash").and_then(Json::as_str).unwrap_or("");
    if got_hash != want_hash {
        return Err(bad(format!(
            "written by a different plan (journal plan_hash {got_hash}, this plan {want_hash}) \
             — delete the output directory to start over"
        )));
    }
    let got_jobs = header.get("jobs").and_then(Json::as_f64).unwrap_or(-1.0);
    if got_jobs != jobs.len() as f64 {
        return Err(bad(format!(
            "job count mismatch (journal has {got_jobs}, this expansion has {})",
            jobs.len()
        )));
    }
    for (n, line) in rows.iter().enumerate() {
        let record = json::parse(line).map_err(|e| bad(format!("unreadable record {n}: {e}")))?;
        let index = record
            .get("job")
            .and_then(Json::as_f64)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .map(|v| v as usize)
            .ok_or_else(|| bad(format!("record {n} has no job index")))?;
        if index >= jobs.len() {
            return Err(bad(format!(
                "record {n} claims job #{index} but the plan has {} jobs",
                jobs.len()
            )));
        }
        let digest = record
            .get("spec_digest")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let want = format!("{:016x}", jobs[index].spec.digest());
        if digest != want {
            return Err(bad(format!(
                "job #{index} was journaled for spec digest {digest} but this expansion \
                 has {want} — the plan changed since the journal was written"
            )));
        }
        let row = record
            .get("row")
            .cloned()
            .ok_or_else(|| bad(format!("record {n} has no row payload")))?;
        completed[index] = Some(row);
    }
    Ok(completed)
}

/// Runs (or resumes) a sweep: executes every job not yet journaled,
/// journaling each completion durably, then assembles `report.json` and
/// `runbook.json` from the journal and writes both atomically.
///
/// With `resume = false` any existing journal in `out_dir` is truncated
/// and every job runs. With `resume = true` the journal is read first
/// and exactly the journaled jobs are skipped; a missing journal is an
/// empty one. `spin_ms` sleeps each worker after each job — a test hook
/// (mirroring `arq serve --spin`) that holds the sweep open long enough
/// to `kill -9` it mid-run. `min(threads, pending jobs)` workers run
/// jobs side by side, as in [`crate::engine::execute_with_threads`].
pub fn run_sweep(
    plan: &SweepPlan,
    jobs: &[SweepJob],
    out_dir: &Path,
    resume: bool,
    spin_ms: u64,
    threads: usize,
) -> Result<SweepOutcome, SweepError> {
    std::fs::create_dir_all(out_dir)?;
    let journal_path = out_dir.join("journal.jsonl");
    let report_path = out_dir.join("report.json");
    let runbook_path = out_dir.join("runbook.json");

    let completed = if resume && journal_path.exists() {
        read_completed(&journal_path, plan, jobs)?
    } else {
        vec![None; jobs.len()]
    };
    let journal = if resume && journal_path.exists() {
        Journal::open_append(&journal_path)?
    } else {
        let mut j = Journal::create(&journal_path)?;
        j.append(&journal_header(plan, jobs.len()))?;
        j
    };

    let pending: Vec<&SweepJob> = jobs
        .iter()
        .filter(|j| completed[j.index].is_none())
        .collect();
    for job in &pending {
        executor::validate(&job.spec)?;
    }

    let workers = threads.clamp(1, pending.len().max(1));
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let journal = Mutex::new(journal);
    let first_error: Mutex<Option<SweepError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let slot = next.fetch_add(1, Ordering::Relaxed);
                if slot >= pending.len() {
                    break;
                }
                let job = pending[slot];
                let fail = |e: SweepError| {
                    let mut guard = first_error.lock().expect("error slot poisoned");
                    guard.get_or_insert(e);
                    abort.store(true, Ordering::Relaxed);
                };
                match run_one(job.index, &job.spec) {
                    Ok(artifact) => {
                        let record = Json::obj([
                            ("job", Json::from(job.index)),
                            (
                                "spec_digest",
                                Json::from(format!("{:016x}", job.spec.digest())),
                            ),
                            ("row", report_row(job, &artifact)),
                        ])
                        .to_string();
                        let mut guard = journal.lock().expect("journal poisoned");
                        if let Err(e) = guard.append(&record) {
                            fail(SweepError::Io(e));
                        }
                    }
                    Err(e) => fail(SweepError::Registry(e)),
                }
                if spin_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(spin_ms));
                }
            });
        }
    });
    if let Some(e) = first_error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }

    // Assemble the outputs from the journal — the single code path that
    // makes resumed and uninterrupted sweeps byte-identical.
    let rows_by_job = read_completed(&journal_path, plan, jobs)?;
    let mut rows = Vec::with_capacity(jobs.len());
    for (index, row) in rows_by_job.into_iter().enumerate() {
        rows.push(row.ok_or_else(|| {
            SweepError::Journal(format!(
                "{}: job #{index} missing after the run",
                journal_path.display()
            ))
        })?);
    }

    let version = env!("CARGO_PKG_VERSION");
    let plan_hash = format!("{:016x}", plan.hash());
    let report = Json::obj([
        ("plan", Json::from(&plan.name)),
        ("plan_hash", Json::from(plan_hash.as_str())),
        ("version", Json::from(version)),
        ("seed", Json::from(plan.seed)),
        ("sampler", Json::from(plan.sampler.describe())),
        ("jobs", Json::from(jobs.len())),
        ("rows", Json::Arr(rows.clone())),
    ]);
    let runbook_jobs: Vec<Json> = rows
        .iter()
        .map(|row| {
            Json::obj([
                ("index", row.get("index").cloned().unwrap_or(Json::Null)),
                ("seed", row.get("seed").cloned().unwrap_or(Json::Null)),
                ("params", row.get("params").cloned().unwrap_or(Json::Null)),
                (
                    "spec_digest",
                    row.get("spec_digest").cloned().unwrap_or(Json::Null),
                ),
                (
                    "artifact_digest",
                    row.get("artifact_digest").cloned().unwrap_or(Json::Null),
                ),
            ])
        })
        .collect();
    let runbook = Json::obj([
        ("plan", Json::from(&plan.name)),
        ("plan_hash", Json::from(plan_hash.as_str())),
        ("version", Json::from(version)),
        ("seed", Json::from(plan.seed)),
        ("sampler", Json::from(plan.sampler.describe())),
        ("describe", Json::from(plan.describe())),
        ("jobs", Json::Arr(runbook_jobs)),
    ]);
    let mut pretty = report.to_string_pretty();
    pretty.push('\n');
    write_atomic_str(&report_path, &pretty)?;
    let mut pretty = runbook.to_string_pretty();
    pretty.push('\n');
    write_atomic_str(&runbook_path, &pretty)?;

    let mut registry = arq_obs::Registry::new();
    let total = registry.counter("sweep_jobs_total");
    registry.inc(total, jobs.len() as u64);
    let run = registry.counter("sweep_jobs_run");
    registry.inc(run, pending.len() as u64);
    let skipped = registry.counter("sweep_jobs_skipped");
    registry.inc(skipped, (jobs.len() - pending.len()) as u64);

    Ok(SweepOutcome {
        report,
        runbook,
        report_path,
        runbook_path,
        journal_path,
        jobs_total: jobs.len(),
        jobs_run: pending.len(),
        jobs_skipped: jobs.len() - pending.len(),
        registry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::expand;

    fn tmp_out(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arq-sweep-run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_plan() -> SweepPlan {
        SweepPlan::parse(
            "name = \"tiny\"\nkind = \"trace-eval\"\nseed = 7\n\n[base]\npairs = 6_000\n\
             block = 1000\nstrategy = \"sliding(s=10)\"\n\n[[axis]]\nkey = \"strategy.s\"\n\
             values = [5, 10, 20]\n",
            "plans/tiny.toml",
        )
        .unwrap()
    }

    #[test]
    fn a_fresh_sweep_writes_report_runbook_and_journal() {
        let plan = tiny_plan();
        let jobs = expand(&plan).unwrap();
        let out = tmp_out("fresh");
        let outcome = run_sweep(&plan, &jobs, &out, false, 0, 2).unwrap();
        assert_eq!(outcome.jobs_total, 3);
        assert_eq!(outcome.jobs_run, 3);
        assert_eq!(outcome.jobs_skipped, 0);
        assert_eq!(outcome.registry.counter_value("sweep_jobs_run"), Some(3));
        let report = std::fs::read_to_string(&outcome.report_path).unwrap();
        let parsed = json::parse(&report).unwrap();
        let rows = parsed.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0].get("spec").and_then(Json::as_str).unwrap(),
            "trace-eval|trace=paper-default(pairs=6000,seed=7)|strategy=sliding(s=5)|block=1000"
        );
        // Journal: header + one record per job.
        assert_eq!(Journal::read_lines(&outcome.journal_path).unwrap().len(), 4);
        let runbook =
            json::parse(&std::fs::read_to_string(&outcome.runbook_path).unwrap()).unwrap();
        assert_eq!(
            runbook.get("plan_hash").and_then(Json::as_str).unwrap(),
            format!("{:016x}", plan.hash())
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn resume_skips_journaled_jobs_and_reproduces_bytes() {
        let plan = tiny_plan();
        let jobs = expand(&plan).unwrap();
        let reference = tmp_out("ref");
        let straight = run_sweep(&plan, &jobs, &reference, false, 0, 1).unwrap();
        let want = std::fs::read_to_string(&straight.report_path).unwrap();

        // Run only job 0, then resume: jobs 1–2 run, 0 is skipped, and
        // the report is byte-identical to the uninterrupted one.
        let out = tmp_out("resume");
        let partial = run_sweep(&plan, &jobs[..1], &out, false, 0, 1);
        // jobs[..1] has a different job count → its journal header says 1.
        // Rewrite the header to the full count so resume accepts it, the
        // same shape a killed full run leaves behind.
        drop(partial);
        let lines = Journal::read_lines(out.join("journal.jsonl")).unwrap();
        let mut j = Journal::create(out.join("journal.jsonl")).unwrap();
        j.append(&journal_header(&plan, jobs.len())).unwrap();
        for line in &lines[1..] {
            j.append(line).unwrap();
        }
        drop(j);
        let resumed = run_sweep(&plan, &jobs, &out, true, 0, 4).unwrap();
        assert_eq!(resumed.jobs_skipped, 1);
        assert_eq!(resumed.jobs_run, 2);
        let got = std::fs::read_to_string(&resumed.report_path).unwrap();
        assert_eq!(got, want, "resumed report differs from uninterrupted");
        assert_eq!(
            std::fs::read_to_string(&resumed.runbook_path).unwrap(),
            std::fs::read_to_string(&straight.runbook_path).unwrap()
        );
        let _ = std::fs::remove_dir_all(&reference);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let plan = tiny_plan();
        let jobs = expand(&plan).unwrap();
        let out = tmp_out("foreign");
        std::fs::create_dir_all(&out).unwrap();
        let mut j = Journal::create(out.join("journal.jsonl")).unwrap();
        j.append(
            "{\"kind\":\"arq-sweep-journal\",\"plan\":\"tiny\",\
             \"plan_hash\":\"0000000000000000\",\"jobs\":3}",
        )
        .unwrap();
        drop(j);
        let err = run_sweep(&plan, &jobs, &out, true, 0, 1).unwrap_err();
        assert!(
            err.to_string().contains("different plan"),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn content_digest_ignores_job_position() {
        let plan = tiny_plan();
        let jobs = expand(&plan).unwrap();
        let a = run_one(0, &jobs[1].spec).unwrap();
        let b = run_one(5, &jobs[1].spec).unwrap();
        assert_ne!(a.index, b.index);
        assert_eq!(artifact_content_digest(&a), artifact_content_digest(&b));
        let c = run_one(0, &jobs[2].spec).unwrap();
        assert_ne!(artifact_content_digest(&a), artifact_content_digest(&c));
    }
}
