//! The workspace's public API is the golden `tests/golden/api.txt`, so
//! making an item public or cutting one is a diff of it; rewrite it with
//! `cargo test --test api_surface -- --ignored rewrite_api_golden`.
//!
//! A text scan of `crates/*/src` follows each `lib.rs` through `pub mod`
//! and lists `crate::path::Item kind` per `pub` item, `crate::path::Type::
//! name fn|const` per `pub` member of an inherent `impl` of a listed type,
//! and `crate::path::Name use target::path` per name a `pub use` binds.
//! `pub(…)`, `#[cfg(test)]` items, trait impls, fields and variants are
//! not listed.

use std::fs;
use std::path::{Path, PathBuf};

#[path = "support/golden.rs"]
mod golden;

/// Identifier and punctuation tokens of `src`, with comments (block
/// comments unnested) and whitespace dropped and each string or char
/// literal reduced to `""`.
fn lex(src: &str) -> Vec<String> {
    let b = src.as_bytes();
    let at = |i: usize| b.get(i).copied().unwrap_or(b'\n');
    let ident = |ch: u8| ch.is_ascii_alphanumeric() || ch == b'_' || !ch.is_ascii();
    let (mut out, mut i) = (Vec::new(), 0);
    while i < b.len() {
        let (start, ch, next) = (i, b[i], at(i + 1));
        i += 1;
        if ch.is_ascii_whitespace() {
        } else if ch == b'/' && (next == b'/' || next == b'*') {
            let end = if next == b'/' { "\n" } else { "*/" };
            i = src[i..].find(end).map_or(b.len(), |n| i + n + end.len());
        } else if ch == b'"' || (ch == b'\'' && (next == b'\\' || at(i + 1) == b'\'')) {
            while b[i] != ch {
                i += 1 + (b[i] == b'\\') as usize;
            }
            i += 1;
            out.push("\"\"".to_owned());
        } else if ident(ch) || ch == b'\'' {
            while i < b.len() && ident(b[i]) {
                i += 1;
            }
            let hashes = b[i..].iter().take_while(|&&h| h == b'#').count();
            if matches!(&src[start..i], "r" | "br") && at(i + hashes) == b'"' {
                // A raw string ends at a quote followed by as many `#`.
                let close = format!("\"{}", "#".repeat(hashes));
                i += hashes + 1;
                i += src[i..].find(&close).unwrap() + close.len();
                out.push("\"\"".to_owned());
            } else {
                out.push(src[start..i].to_owned());
            }
        } else {
            i += matches!(&b[start..(start + 2).min(b.len())], b"::" | b"->" | b"=>") as usize;
            out.push(src[start..i].to_owned());
        }
    }
    out
}

/// The index just past the group that opens at `t[i]`.
fn skip_group(t: &[String], mut i: usize) -> usize {
    let mut depth = 0;
    loop {
        depth += matches!(t[i].as_str(), "(" | "[" | "{") as i32;
        depth -= matches!(t[i].as_str(), ")" | "]" | "}") as i32;
        i += 1;
        if depth == 0 {
            return i;
        }
    }
}

/// The index just past the item at `t[i]`: past its `;`, or past its
/// first top-level `{ … }` when `braced`.
fn skip_item(t: &[String], mut i: usize, braced: bool) -> usize {
    loop {
        match t[i].as_str() {
            "{" if braced => return skip_group(t, i),
            "(" | "[" | "{" => i = skip_group(t, i),
            ";" => return i + 1,
            _ => i += 1,
        }
    }
}

/// Flattens a `use` tree into `(target segments, bound name)` pairs.
fn use_tree(t: &[String], prefix: &[String], out: &mut Vec<(Vec<String>, String)>) {
    let mut path = prefix.to_vec();
    for (i, tok) in t.iter().enumerate() {
        match tok.as_str() {
            "::" => {}
            "{" => {
                let inner = &t[i + 1..skip_group(t, i) - 1];
                for part in inner.split(|tok| tok == ",").filter(|p| !p.is_empty()) {
                    use_tree(part, &path, out);
                }
                return;
            }
            "as" => return out.push((path, t[i + 1].clone())),
            "self" if i == 0 && !prefix.is_empty() => {}
            seg => path.push(seg.to_owned()),
        }
    }
    out.push((path.clone(), path.last().unwrap().clone()));
}

/// Appends a line for each public item of module `path`, whose tokens
/// are `t` and whose child modules' files are in `dir`.
fn items(t: &[String], path: &str, dir: &Path, krate: &str, out: &mut Vec<String>) {
    let children: Vec<&str> =
        t.windows(2).filter(|w| w[0] == "mod").map(|w| w[1].as_str()).collect();
    let mut i = 0;
    while i < t.len() {
        let mut test_only = false;
        while t[i] == "#" {
            let open = i + 1 + (t[i + 1] == "!") as usize;
            i = skip_group(t, open);
            test_only |= t[open + 1..i - 1] == ["cfg", "(", "test", ")"];
        }
        let public = t[i] == "pub" && t[i + 1] != "(" && !test_only;
        i += (t[i] == "pub") as usize;
        i = if t[i] == "(" { skip_group(t, i) } else { i };
        i += (matches!(t[i].as_str(), "const" | "unsafe" | "async") && t[i + 1] == "fn") as usize;
        let (kind, name) = (t[i].as_str(), t.get(i + 1).map_or("", String::as_str));
        let here = format!("{path}::{name}");
        match kind {
            "fn" | "struct" | "enum" | "union" | "trait" | "type" | "const" | "static" => {
                out.extend(public.then(|| format!("{here} {kind}")));
                i = skip_item(t, i, !matches!(kind, "type" | "const" | "static"));
            }
            "mod" => {
                let inline = t[i + 2] == "{";
                let end = if inline { skip_group(t, i + 2) } else { i + 3 };
                if public {
                    out.push(format!("{here} mod"));
                    let body = if inline {
                        t[i + 3..end - 1].to_vec()
                    } else {
                        let file = dir.join(format!("{name}.rs"));
                        let file = if file.exists() { file } else { dir.join(name).join("mod.rs") };
                        lex(&fs::read_to_string(file).unwrap())
                    };
                    items(&body, &here, &dir.join(name), krate, out);
                }
                i = end;
            }
            "impl" => {
                let open = (i..).find(|&j| t[j] == "{").unwrap();
                let end = skip_group(t, open);
                // The impl's type is the last token outside `<…>`.
                let header = t[i + 1..open].split(|s| s == "where").next().unwrap();
                let mut depth = 0;
                let outer: Vec<&str> = (header.iter().map(String::as_str))
                    .filter(|&s| {
                        depth += (s == "<") as i32 - (s == ">") as i32;
                        depth == 0 && s != ">"
                    })
                    .collect();
                let ty = format!("{path}::{}", outer.last().unwrap());
                // An inherent impl's items are API only when its type is.
                let listed = ["struct", "enum", "union", "type"].map(|kind| format!("{ty} {kind}"));
                if !test_only && !outer.contains(&"for") && listed.iter().any(|l| out.contains(l)) {
                    items(&t[open + 1..end - 1], &ty, dir, krate, out);
                }
                i = end;
            }
            "use" => {
                let end = skip_item(t, i, false);
                let mut bound = Vec::new();
                use_tree(&t[i + 1..end - 1], &[], &mut bound);
                for (target, name) in bound.into_iter().filter(|_| public) {
                    let first = target[0].as_str();
                    let relative = first == "self" || first == "super" || children.contains(&first);
                    let mut full: Vec<&str> =
                        if relative { path.split("::").collect() } else { vec![] };
                    for seg in &target {
                        match seg.as_str() {
                            "crate" => full = vec![krate],
                            "self" => {}
                            "super" => drop(full.pop()),
                            seg => full.push(seg),
                        }
                    }
                    out.push(format!("{path}::{name} use {}", full.join("::")));
                }
                i = end;
            }
            // A macro: `name! { … }` or `macro_rules! name { … }`.
            _ if name == "!" => {
                i = skip_group(t, i + 2 + !matches!(t[i + 2].as_str(), "(" | "{") as usize);
                i += t.get(i).is_some_and(|s| s == ";") as usize;
            }
            _ => i = skip_item(t, i, true),
        }
    }
}

/// The workspace's public API, one sorted line per item.
fn surface() -> String {
    let mut out = Vec::new();
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
    for entry in fs::read_dir(crates).unwrap().flatten() {
        let (krate, src) = (entry.file_name().into_string().unwrap(), entry.path().join("src"));
        let lib = lex(&fs::read_to_string(src.join("lib.rs")).unwrap());
        items(&lib, &krate, &src, &krate, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn public_api_matches_its_golden() {
    let got = surface();
    let golden_file = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/api.txt");
    let want = fs::read_to_string(golden_file).unwrap();
    // Name the items that appeared and those that went, both at once,
    // not every line they shift.
    let only_in = |a: &str, b: &str| -> Vec<String> {
        a.lines().filter(|l| !b.lines().any(|m| m == *l)).map(str::to_owned).collect()
    };
    let (added, removed) = (only_in(&got, &want), only_in(&want, &got));
    assert!(
        added.is_empty() && removed.is_empty(),
        "API items added: {added:#?}\nAPI items removed: {removed:#?}"
    );
    golden::check("api.txt", got.as_bytes());
}

#[test]
#[ignore = "rewrites the golden"]
fn rewrite_api_golden() {
    golden::rewrite("api.txt", surface().as_bytes());
}

#[test]
fn scan_lists_public_items_only() {
    let src = r#"
        pub mod inner { pub fn f() {} pub(crate) fn g() {} }
        pub use inner::{f, self as renamed};
        /// `pub fn in_doc()`
        pub struct S<'a>(&'a str);
        impl<'a> S<'a> { pub const N: char = '}'; pub fn new() -> Self { S("{") } fn private() {} }
        impl Clone for S<'_> { pub fn clone(&self) -> Self { todo!() } }
        struct Hidden; impl Hidden { pub fn unreachable() {} }
        #[cfg(test)] pub fn test_only() {}
        macro_rules! m { () => { pub fn from_macro() {} }; }
    "#;
    let mut out = Vec::new();
    items(&lex(src), "k", Path::new(""), "k", &mut out);
    let want = "k::inner mod|k::inner::f fn|k::f use k::inner::f|k::renamed use k::inner|\
                k::S struct|k::S::N const|k::S::new fn";
    assert_eq!(out.join("|"), want);
}
