//! The docs cite files by path; each citation must still name a file.
//!
//! Every backticked token in README.md, DESIGN.md and EXPERIMENTS.md that
//! contains `/` and ends in a source, golden, record or config extension
//! must name a file under the repository root, `crates/` or
//! `tests/golden/` (the docs shorten `crates/npss/tests/x.rs` to
//! `npss/tests/x.rs` and `tests/golden/paper/x.txt` to `paper/x.txt`). A
//! token with `*` must match at least one file, `*` standing for any run
//! of characters within one path segment.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const EXTENSIONS: [&str; 7] = [".rs", ".txt", ".json", ".md", ".toml", ".yml", ".sh"];
const BASES: [&str; 3] = ["", "crates", "tests/golden"];

/// Whether `name` matches the one-segment pattern `pat`.
fn segment_matches(pat: &str, name: &str) -> bool {
    let parts: Vec<&str> = pat.split('*').collect();
    let (first, last) = (parts[0], parts[parts.len() - 1]);
    if parts.len() == 1 {
        return pat == name;
    }
    if name.len() < first.len() + last.len() || !name.starts_with(first) || !name.ends_with(last) {
        return false;
    }
    let mut rest = &name[first.len()..name.len() - last.len()];
    for part in &parts[1..parts.len() - 1] {
        match rest.find(part) {
            Some(i) => rest = &rest[i + part.len()..],
            None => return false,
        }
    }
    true
}

/// Whether some file under `dir` matches the path segments `segs`.
fn resolves(dir: &Path, segs: &[&str]) -> bool {
    let Some((seg, rest)) = segs.split_first() else {
        return dir.is_file();
    };
    if !seg.contains('*') {
        return resolves(&dir.join(seg), rest);
    }
    let Ok(entries) = fs::read_dir(dir) else {
        return false;
    };
    entries.flatten().any(|e| {
        e.file_name().to_str().is_some_and(|name| segment_matches(seg, name))
            && resolves(&e.path(), rest)
    })
}

#[test]
fn every_cited_file_path_resolves() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            for token in line.split('`').skip(1).step_by(2) {
                if !token.contains('/') || !EXTENSIONS.iter().any(|ext| token.ends_with(ext)) {
                    continue;
                }
                checked += 1;
                let segs: Vec<&str> = token.split('/').collect();
                if !BASES.iter().any(|base| resolves(&root.join(base), &segs)) {
                    missing.push(format!("{doc}:{}: `{token}`", n + 1));
                }
            }
        }
    }
    assert!(checked > 50, "only {checked} cited paths found: is the scan broken?");
    assert!(missing.is_empty(), "cited files that do not exist:\n{}", missing.join("\n"));
}

#[test]
fn wildcards_match_within_one_segment() {
    assert!(segment_matches("table2_session*.metrics.json", "table2_session1.metrics.json"));
    assert!(segment_matches("*.txt", "fig1.txt"));
    assert!(segment_matches("a*b*c", "abc"));
    assert!(!segment_matches("a*b*c", "ac"));
    assert!(!segment_matches("ab*ba", "aba"));
    assert!(!segment_matches("*.txt", "fig1.json"));
}
