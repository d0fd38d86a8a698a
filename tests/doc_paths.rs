//! The docs cite files by path and items by crate path; each citation
//! must still name a file or an item.
//!
//! Every backticked token in README.md, DESIGN.md and EXPERIMENTS.md that
//! contains `/` and ends in a source, golden, record or config extension
//! must name a file under the repository root, `crates/` or
//! `tests/golden/` (the docs shorten `crates/npss/tests/x.rs` to
//! `npss/tests/x.rs` and `tests/golden/paper/x.txt` to `paper/x.txt`). A
//! token with `*` must match at least one file, `*` standing for any run
//! of characters within one path segment.
//!
//! Every backticked token that starts with a workspace crate's name and
//! `::` must name an item of the public-API golden `tests/golden/api.txt`
//! (see `tests/api_surface.rs`), possibly through a re-export, or a
//! variant or method one segment below a listed type, or a private
//! module's source file. `a::{b, c}` cites `a::b` and `a::c`; `a::*`
//! cites `a`.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const EXTENSIONS: [&str; 7] = [".rs", ".txt", ".json", ".md", ".toml", ".yml", ".sh"];
const BASES: [&str; 3] = ["", "crates", "tests/golden"];
const CRATES: [&str; 10] =
    ["avs", "hetsim", "ledger", "mplite", "netsim", "npss", "schooner", "tess", "testkit", "uts"];

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

/// Whether `path` names an item of the API golden, whose lines map each
/// item to its kind and, for a `use`, its target.
fn names_an_item(api: &HashMap<&str, (&str, Option<&str>)>, path: &str) -> bool {
    if api.contains_key(path) {
        return true;
    }
    let owner = path.rsplit_once("::").map(|(owner, _)| owner);
    if owner.is_some_and(|o| matches!(api.get(o), Some(("struct" | "enum" | "trait", _)))) {
        return true;
    }
    let mut cut = path.len();
    while let Some(i) = path[..cut].rfind("::") {
        cut = i;
        if let Some((_, Some(target))) = api.get(&path[..cut]) {
            return names_an_item(api, &format!("{target}{}", &path[cut..]));
        }
    }
    false
}

/// Whether `path` names a module's source file, public or not.
fn names_a_module_file(root: &Path, path: &str) -> bool {
    let mut segs = path.split("::");
    let src = root.join("crates").join(segs.next().unwrap()).join("src");
    let rel: PathBuf = segs.collect();
    match rel.as_os_str().is_empty() {
        true => src.join("lib.rs").is_file(),
        false => {
            src.join(&rel).with_extension("rs").is_file() || src.join(rel).join("mod.rs").is_file()
        }
    }
}

#[test]
fn every_cited_item_path_resolves() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let golden = fs::read_to_string(root.join("tests/golden/api.txt")).unwrap();
    let api: HashMap<&str, (&str, Option<&str>)> = (golden.lines())
        .map(|line| {
            let mut words = line.split(' ');
            let path = words.next().unwrap();
            (path, (words.next().unwrap(), words.next()))
        })
        .collect();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            for token in line.split('`').skip(1).step_by(2) {
                if !CRATES
                    .iter()
                    .any(|c| token.strip_prefix(c).is_some_and(|t| t.starts_with("::")))
                {
                    continue;
                }
                let cited: Vec<String> = match token.split_once("::{") {
                    Some((prefix, group)) => (group.trim_end_matches('}').split(','))
                        .map(|name| format!("{prefix}::{}", name.trim()))
                        .collect(),
                    None => vec![token.trim_end_matches("::*").to_owned()],
                };
                for path in cited {
                    checked += 1;
                    if !names_an_item(&api, &path) && !names_a_module_file(&root, &path) {
                        missing.push(format!("{doc}:{}: `{token}` (`{path}`)", n + 1));
                    }
                }
            }
        }
    }
    assert!(checked > 40, "only {checked} cited items found: is the scan broken?");
    assert!(missing.is_empty(), "cited items that do not exist:\n{}", missing.join("\n"));
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
