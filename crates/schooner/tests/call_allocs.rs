//! Heap allocations of one warm call, pinned at the layer that makes it.
//!
//! `npss/tests/alloc_budget.rs` holds a whole Table-2 session per call;
//! this holds a single one-double echo from a SPARC line to a Cray
//! process, so an allocation that creeps back into the line, the
//! message codec, the transport or the process shows here, as an exact
//! count, before it is lost in a session's totals. What a warm call
//! still allocates is the caller's result vector and the procedure's own
//! result vector: its request and reply buffers circulate between the
//! line and the process. A world with link batching on is held to the
//! same budget: a lone request is held unframed and leaves as the plain
//! path's envelope, so it circulates the same buffers.
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::LinkConfig;
use schooner::{FnProcedure, ProgramImage, Schooner, SchoonerConfig};
use uts::Value;

/// Ceilings on the mean allocations per warm call: the measured figures
/// (2.07 blocking, 2.06 split-phase; 6.07 and 6.06 while every request
/// and reply was a fresh buffer and a fresh shared handle; 18.07 and
/// 18.06 while addresses, ticket fields and request strings were copied,
/// the process decoded into a fresh vector and the reply was marshaled
/// twice) plus a small margin. The link-batched world is held to the
/// same ceilings (8.07 and 8.06 while every request was framed). They
/// are printed by `--nocapture` and on failure.
const MAX_CALL: f64 = 2.2;
const MAX_ISSUE_COLLECT: f64 = 2.2;

/// Calls measured per form, after as many warm-up calls.
const N: u64 = 200;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the only
// addition is a relaxed counter that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Mean allocations of `call` over `N` runs.
fn per_call(mut call: impl FnMut()) -> f64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..N {
        call();
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / N as f64
}

/// Mean allocations per warm `call` and per warm `issue`/`collect` of
/// the echo in `sch`.
fn warm_echo(sch: Schooner) -> (f64, f64) {
    let image = ProgramImage::new("echo", r#"export echo prog("x" val double, "y" res double)"#)
        .unwrap()
        .with_procedure("echo", || {
            Box::new(FnProcedure::with_flops(|args: &[Value]| Ok(vec![args[0].clone()]), 1_000.0))
        })
        .unwrap();
    sch.install_program("/t/echo", image, &["lerc-cray-ymp"]).unwrap();
    let mut line = sch.open_line("echo", "ua-sparc10").unwrap();
    line.start_remote("/t/echo", "lerc-cray-ymp").unwrap();
    let x = [Value::Double(1.5)];
    let mut call = || assert_eq!(line.call("echo", &x).unwrap(), x);
    for _ in 0..N {
        call();
    }
    let blocking = per_call(&mut call);
    let mut split = || {
        let ticket = line.issue("echo", &x).unwrap();
        assert_eq!(line.collect(ticket).unwrap(), x);
    };
    for _ in 0..N {
        split();
    }
    let split_phase = per_call(&mut split);
    line.quit().unwrap();
    sch.shutdown();
    (blocking, split_phase)
}

#[test]
fn a_warm_echo_call_stays_within_its_allocation_budget() {
    let batched = SchoonerConfig::builder().link_batching(LinkConfig::default()).build();
    for (world, sch) in [
        ("plain", Schooner::standard().unwrap()),
        ("link-batched", Schooner::standard_with(batched).unwrap()),
    ] {
        let (blocking, split_phase) = warm_echo(sch);
        println!(
            "allocations per warm echo, {world}: call {blocking:.2}, issue/collect {split_phase:.2}"
        );
        assert!(blocking <= MAX_CALL, "{world} call: {blocking:.2} allocations, budget {MAX_CALL}");
        assert!(
            split_phase <= MAX_ISSUE_COLLECT,
            "{world} issue/collect: {split_phase:.2} allocations, budget {MAX_ISSUE_COLLECT}"
        );
    }
}
