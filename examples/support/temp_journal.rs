//! A journal file of one run's own, for the examples that journal in
//! process.

use std::path::PathBuf;

/// A temporary journal path unique to this process and thread, removed
/// when dropped, so concurrent runs never share a file.
pub struct TempJournal(pub PathBuf);

impl TempJournal {
    pub fn new(stem: &str) -> Self {
        let (pid, thread) = (std::process::id(), std::thread::current().id());
        Self(std::env::temp_dir().join(format!("{stem}-{pid}-{thread:?}.journal")))
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
