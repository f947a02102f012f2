//! Crash-safe file output.
//!
//! Every artifact the workspace persists — `results/*.json`,
//! `arq run --out` artifact arrays, CSV traces, serve checkpoints —
//! goes through [`write_atomic`]: write the full contents to a
//! temporary file in the destination directory, fsync it, then rename
//! it over the target. A reader (or a restarted process) can
//! therefore never observe a truncated file: it sees either the old
//! contents or the new ones, even if the writer is SIGKILLed mid-write.
//!
//! The temporary name embeds the process id so two concurrent writers
//! of the same artifact cannot corrupt each other's staging file; the
//! last rename wins, which is the same last-writer-wins outcome a plain
//! `fs::write` race would have, minus the torn-file failure mode.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Atomically replaces `path` with `bytes`: write to a temporary file
/// in the same directory, fsync, rename. On any error the target file
/// is untouched (a stale temp file may remain and is overwritten by the
/// next attempt from the same pid).
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("not a file path: {}", path.display()),
        )
    })?;
    let tmp_name = format!(
        ".{}.tmp-{}",
        file_name.to_string_lossy(),
        std::process::id()
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    // Durability before visibility: the contents must be on disk before
    // the rename makes them reachable under the real name, otherwise a
    // crash between rename and writeback leaves a visible empty file.
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })?;
    // Persist the rename itself. Directory fsync is not supported
    // everywhere (e.g. Windows); failure to sync the directory does not
    // un-write the file, so it is best-effort.
    if let Some(d) = dir {
        if let Ok(dirf) = File::open(d) {
            let _ = dirf.sync_all();
        }
    }
    Ok(())
}

/// [`write_atomic`] for string contents.
pub fn write_atomic_str(path: impl AsRef<Path>, text: &str) -> io::Result<()> {
    write_atomic(path, text.as_bytes())
}

/// An append-only, crash-tolerant line journal.
///
/// Each [`Journal::append`] writes one newline-terminated record and
/// fsyncs before returning, so a record that `append` acknowledged
/// survives `kill -9`. A crash *during* an append can leave at most one
/// torn record at the tail — a prefix with no terminating newline —
/// which [`Journal::read_lines`] silently drops. Readers therefore see
/// exactly the set of acknowledged records, which is the property sweep
/// resume relies on: a journaled job is done, an unjournaled job is not,
/// and there is no third state.
///
/// Records must not contain `\n` themselves (compact JSON satisfies
/// this); `append` rejects embedded newlines instead of corrupting the
/// framing.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates (truncating any previous contents) a journal at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Journal> {
        Ok(Journal {
            file: File::create(path)?,
        })
    }

    /// Opens an existing journal for appending.
    pub fn open_append(path: impl AsRef<Path>) -> io::Result<Journal> {
        Ok(Journal {
            file: fs::OpenOptions::new().append(true).open(path)?,
        })
    }

    /// Appends one record and fsyncs. On return the record is durable.
    pub fn append(&mut self, record: &str) -> io::Result<()> {
        if record.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal records must be single lines",
            ));
        }
        let mut line = String::with_capacity(record.len() + 1);
        line.push_str(record);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// Reads every *complete* (newline-terminated) record at `path`. A
    /// torn tail from a crash mid-append is dropped, not an error.
    pub fn read_lines(path: impl AsRef<Path>) -> io::Result<Vec<String>> {
        let text = fs::read_to_string(path)?;
        let mut lines = Vec::new();
        let mut rest = text.as_str();
        while let Some(nl) = rest.find('\n') {
            lines.push(rest[..nl].to_string());
            rest = &rest[nl + 1..];
        }
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("arq-fsio-tests");
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let path = tmp_dir().join("artifact.json");
        write_atomic_str(&path, "{\"v\":1}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        write_atomic_str(&path, "{\"v\":2}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\":2}");
    }

    #[test]
    fn leaves_no_temp_file_behind() {
        let dir = tmp_dir();
        let path = dir.join("clean.json");
        write_atomic_str(&path, "x").unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("clean.json.tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    }

    #[test]
    fn rejects_directory_targets() {
        let dir = tmp_dir();
        assert!(write_atomic_str(dir.join(".."), "x").is_err());
    }

    #[test]
    fn journal_appends_and_reads_back() {
        let path = tmp_dir().join(format!("journal-{}.jsonl", std::process::id()));
        let mut j = Journal::create(&path).unwrap();
        j.append("{\"job\":0}").unwrap();
        j.append("{\"job\":1}").unwrap();
        drop(j);
        let mut j = Journal::open_append(&path).unwrap();
        j.append("{\"job\":2}").unwrap();
        assert_eq!(
            Journal::read_lines(&path).unwrap(),
            vec!["{\"job\":0}", "{\"job\":1}", "{\"job\":2}"]
        );
        // Re-creating truncates.
        Journal::create(&path).unwrap();
        assert!(Journal::read_lines(&path).unwrap().is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn journal_drops_a_torn_tail() {
        let path = tmp_dir().join(format!("torn-{}.jsonl", std::process::id()));
        let mut j = Journal::create(&path).unwrap();
        j.append("complete").unwrap();
        drop(j);
        // Simulate a crash mid-append: a record with no newline.
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"torn-partial-reco").unwrap();
        drop(f);
        assert_eq!(Journal::read_lines(&path).unwrap(), vec!["complete"]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn journal_rejects_embedded_newlines() {
        let path = tmp_dir().join(format!("reject-{}.jsonl", std::process::id()));
        let mut j = Journal::create(&path).unwrap();
        assert!(j.append("two\nlines").is_err());
        assert!(Journal::read_lines(&path).unwrap().is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn bare_relative_path_works() {
        let dir = tmp_dir();
        let prev = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let result = write_atomic_str("bare.json", "ok");
        std::env::set_current_dir(prev).unwrap();
        result.unwrap();
        assert_eq!(fs::read_to_string(dir.join("bare.json")).unwrap(), "ok");
    }
}
