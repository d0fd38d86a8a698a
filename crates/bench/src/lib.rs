//! Shared helpers for the benchmark harness.
//!
//! Each bench target times one ablation from DESIGN.md, or Figure 1's
//! remote call per network class, with Criterion (real host time); an
//! ablation prints its simulated (virtual-time) rows once first. The
//! paper's tables and figures themselves are what `npss-sim` prints,
//! pinned in `tests/golden/paper/`.

use std::sync::Arc;

use schooner::{FnProcedure, ProgramImage, Schooner, SchoonerConfig};
use uts::Value;

/// Build the standard world once per bench process.
pub fn world() -> Arc<Schooner> {
    Arc::new(Schooner::standard().expect("standard world"))
}

/// The standard world with default link batching (coalescing, no flow
/// control) installed — the "batched" column of the transport ablations.
pub fn batched_world() -> Arc<Schooner> {
    let config = SchoonerConfig::builder().link_batching(netsim::LinkConfig::default()).build();
    Arc::new(Schooner::standard_with(config).expect("batched world"))
}

/// A tiny echo image for RPC microbenchmarks.
pub fn echo_image() -> ProgramImage {
    ProgramImage::new("echo", r#"export echo prog("x" val double, "y" res double)"#)
        .expect("spec parses")
        .with_procedure("echo", || {
            Box::new(FnProcedure::with_flops(|args: &[Value]| Ok(vec![args[0].clone()]), 1_000.0))
        })
        .expect("echo declared")
}

/// A payload-heavy image for marshaling benchmarks: echoes an array.
pub fn payload_image(len: usize) -> ProgramImage {
    let spec = format!(
        r#"export blast prog("xs" val array[{len}] of float, "ys" res array[{len}] of float)"#
    );
    ProgramImage::new("payload", &spec)
        .expect("spec parses")
        .with_procedure("blast", || {
            Box::new(FnProcedure::with_flops(|args: &[Value]| Ok(vec![args[0].clone()]), 10_000.0))
        })
        .expect("blast declared")
}
