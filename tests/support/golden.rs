//! The goldens of the paper's outputs, under `tests/golden/paper/`: what
//! `npss-sim` prints for the tables and figures, and the transcripts of
//! the fault examples. Shared by `tests/paper_outputs.rs` and the examples'
//! own tests; `cargo test -- --ignored rewrite_paper_goldens` rewrites them.

use std::path::PathBuf;

fn path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper").join(name)
}

/// Panics at the first line where `got` and the golden `name` differ.
pub fn check(name: &str, got: &[u8]) {
    let want = std::fs::read(path(name)).unwrap_or_else(|e| panic!("golden {name}: {e}"));
    if got == want {
        return;
    }
    let (got, want) = (String::from_utf8_lossy(got), String::from_utf8_lossy(&want));
    let at = match got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w) {
        Some((i, (g, w))) => format!("line {}: {g:?}, golden {w:?}", i + 1),
        None => format!("{} lines, golden {}", got.lines().count(), want.lines().count()),
    };
    panic!("output moved from golden {name} at {at}");
}

/// Writes `got` as the golden `name`.
pub fn rewrite(name: &str, got: &[u8]) {
    std::fs::write(path(name), got).unwrap_or_else(|e| panic!("golden {name}: {e}"));
}
