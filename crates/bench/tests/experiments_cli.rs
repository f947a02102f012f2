//! The `experiments` binary's output paths: a report path in a
//! directory that does not exist yet is created, and a path that cannot
//! be written exits 1 with the I/O error instead of panicking.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arq-experiments-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `experiments` on no experiment (`--exp none` selects none), so
/// only the report header and the output paths are exercised.
fn experiments(out: &PathBuf, json: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--exp", "none", "--out"])
        .arg(out)
        .arg("--json")
        .arg(json)
        .output()
        .expect("spawning experiments")
}

#[test]
fn out_in_a_directory_that_does_not_exist_yet_is_created() {
    let dir = scratch("fresh");
    let out = dir.join("nested/report/EXPERIMENTS.md");
    let run = experiments(&out, &dir.join("json"));
    assert!(
        run.status.success(),
        "exit {:?}: {}",
        run.status.code(),
        String::from_utf8_lossy(&run.stderr)
    );
    let md = std::fs::read_to_string(&out).expect("the report was written");
    assert!(md.starts_with("# EXPERIMENTS"), "{md}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unwritable_out_exits_1_with_the_io_error() {
    let dir = scratch("blocked");
    // A regular file where the report's directory should be.
    let blocker = dir.join("file");
    std::fs::write(&blocker, "not a directory").unwrap();
    let run = experiments(&blocker.join("EXPERIMENTS.md"), &dir.join("json"));
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("error: writing"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
