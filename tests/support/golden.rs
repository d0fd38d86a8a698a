//! Byte-for-byte goldens under `tests/golden/`, named relative to it: the
//! paper's outputs under `paper/` (what `npss-sim` prints for the tables,
//! figures and ablations, and the examples' transcripts) and the
//! allocation census. Shared by `tests/paper_outputs.rs`,
//! `tests/census.rs` and the examples' own tests. Each kind has its own
//! rewrite, so refreshing one never accepts a change to the other:
//! `cargo test -- --ignored rewrite_paper_goldens` for the paper's
//! outputs, `cargo test --test census -- --ignored rewrite_census_golden`
//! for the census.

use std::fmt::Write;
use std::path::PathBuf;

fn path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Panics unless `got` is the golden `name`, listing every line where
/// they differ.
pub fn check(name: &str, got: &[u8]) {
    let want = std::fs::read(path(name)).unwrap_or_else(|e| panic!("golden {name}: {e}"));
    if got == want {
        return;
    }
    let (got, want) = (String::from_utf8_lossy(got), String::from_utf8_lossy(&want));
    let (got, want): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    let show = |line: Option<&&str>| line.map_or("(none)".into(), |l| format!("{l:?}"));
    let mut moved = String::new();
    for i in 0..got.len().max(want.len()) {
        let (g, w) = (got.get(i), want.get(i));
        if g != w {
            write!(moved, "\nline {}:\n  got    {}\n  golden {}", i + 1, show(g), show(w)).unwrap();
        }
    }
    panic!("output moved from golden {name}:{moved}");
}

/// Writes `got` as the golden `name`.
pub fn rewrite(name: &str, got: &[u8]) {
    std::fs::write(path(name), got).unwrap_or_else(|e| panic!("golden {name}: {e}"));
}
