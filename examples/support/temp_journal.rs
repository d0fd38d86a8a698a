//! A journal file of one run's own, for the examples that journal in
//! process.

use std::path::PathBuf;

/// A temporary journal path unique to this process and thread, removed
/// when dropped, so concurrent runs never share a file. Its length does
/// not depend on the process or thread id: a journal keeps a copy of its
/// path, and the allocation census counts the bytes of that copy.
pub struct TempJournal(pub PathBuf);

impl TempJournal {
    pub fn new(stem: &str) -> Self {
        let pid = std::process::id();
        let thread: String = format!("{:?}", std::thread::current().id())
            .chars()
            .filter(char::is_ascii_digit)
            .collect();
        Self(std::env::temp_dir().join(format!("{stem}-{pid:010}-{thread:0>20}.journal")))
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
