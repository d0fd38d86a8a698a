//! What `npss-sim` prints for the paper's tables and figures, pinned byte
//! for byte: each [`COMMANDS`] entry's stdout must equal its golden under
//! `tests/golden/paper/`. Every example pins its transcript there too,
//! in its own test. To move an output on purpose, rewrite every golden
//! with `cargo test -- --ignored rewrite_paper_goldens`.

use std::process::{Command, Stdio};

#[path = "support/golden.rs"]
mod golden;

/// `(golden, npss-sim arguments)`.
const COMMANDS: [(&str, &[&str]); 7] = [
    ("paper/table1.txt", &["table1"]),
    ("paper/table2.txt", &["table2"]),
    ("paper/fig1.txt", &["fig1"]),
    ("paper/costs-metrics.txt", &["costs", "--metrics"]),
    ("paper/costs-critical-path.txt", &["costs", "--critical-path"]),
    ("paper/f100-parallel.txt", &["f100", "--parallel"]),
    ("paper/ablations.txt", &["ablations"]),
];

/// Runs every command at once; each must exit 0. Returns their stdout.
fn outputs() -> Vec<(&'static str, Vec<u8>)> {
    let spawn = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_npss-sim"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    let running: Vec<_> = COMMANDS.iter().map(|&(name, args)| (name, args, spawn(args))).collect();
    running
        .into_iter()
        .map(|(name, args, child)| {
            let out = child.wait_with_output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "npss-sim {}: {}\n{stderr}", args.join(" "), out.status);
            (name, out.stdout)
        })
        .collect()
}

#[test]
fn paper_outputs_match_their_goldens() {
    for (name, stdout) in outputs() {
        golden::check(name, &stdout);
    }
}

#[test]
#[ignore = "rewrites the goldens"]
fn rewrite_paper_goldens() {
    for (name, stdout) in outputs() {
        golden::rewrite(name, &stdout);
    }
}
