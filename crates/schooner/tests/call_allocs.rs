//! Heap allocations of one warm call, pinned at the layer that makes it.
//!
//! `npss/tests/alloc_budget.rs` holds a whole Table-2 session per call;
//! this holds single echoes from a SPARC line to a Cray process, so an
//! allocation that creeps back into the line, the message codec, the
//! transport or the process shows here, as an exact count, before it is
//! lost in a session's totals. A caller that collects into a vector it
//! keeps (`issue`/`collect_into`) makes a warm call that allocates
//! nothing of its own: the procedure returns a stack array into the
//! process's kept result vector, request and reply buffers circulate
//! between the line and the process, and a short packed array lives
//! inside its `Value`. What is left is the transport's: each endpoint's
//! mailbox (a `std::sync::mpsc` channel) takes a block of slots now and
//! then, about 2/31 of an allocation per call with today's std. That
//! figure explains the budget; it is not a contract, and the budget
//! leaves room for it to move. The forms that return a fresh vector —
//! the blocking `call` and `collect` — add exactly that vector.
//!
//! Four arms are held: `call` and `issue`/`collect` of a one-double echo,
//! and `issue`/`collect_into` of that echo and of the `array[4] of float`
//! flow of the paper's Table-2 modules. A world with link batching on is
//! held to the same budgets: a lone request is held unframed and leaves
//! as the plain path's envelope, so it circulates the same buffers.
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::LinkConfig;
use schooner::{FnProcedure, Procedure, ProgramImage, Schooner, SchoonerConfig};
use uts::Value;

/// Ceiling on the mean allocations per warm `issue`/`collect_into` call,
/// for the one-double echo and the `array[4] of float` echo alike: the
/// mailboxes' blocks plus a margin, and below one, so any allocation
/// made on every call fails it. The double echo measured about 0.07
/// (2.06 while the caller and the procedure each returned a fresh result
/// vector; 6.06 while every request and reply was a fresh buffer and a
/// fresh shared handle; 18.06 while addresses, ticket fields and request
/// strings were copied, the process decoded into a fresh vector and the
/// reply was marshaled twice), the link-batched world the same (8.06
/// while every request was framed), and the `array[4] of float` echo the
/// same as the double (4.06 while each of its arrays was a shared
/// allocation).
const MAX_ECHO: f64 = 0.1;

/// Ceiling on the mean allocations per warm blocking `call` and per warm
/// `issue`/`collect`: [`MAX_ECHO`] plus the one vector each returns. Both
/// measured about 1.07 (2.07 and 2.06 while the procedure returned a
/// fresh result vector as well).
const MAX_CALL: f64 = 1.1;

/// Calls measured per arm, after as many warm-up calls.
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

/// Mean allocations of `call` over `N` warm runs, after `N` to warm up.
fn per_warm_call(mut call: impl FnMut()) -> f64 {
    for _ in 0..N {
        call();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..N {
        call();
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / N as f64
}

/// Mean allocations per warm call of each arm in `sch`.
struct Echoes {
    call: f64,
    collect: f64,
    collect_into: f64,
    flow_collect_into: f64,
}

fn warm_echoes(sch: Schooner) -> Echoes {
    let image = ProgramImage::new(
        "echo",
        r#"
export echo prog("x" val double, "y" res double)
export flow prog("x" val array[4] of float, "y" res array[4] of float)
"#,
    )
    .unwrap();
    let echo = || -> Box<dyn Procedure> {
        Box::new(FnProcedure::with_flops(|args: &[Value]| Ok([args[0].clone()]), 1_000.0))
    };
    let image = image.with_procedure("echo", echo).unwrap().with_procedure("flow", echo).unwrap();
    sch.install_program("/t/echo", image, &["lerc-cray-ymp"]).unwrap();
    let mut line = sch.open_line("echo", "ua-sparc10").unwrap();
    line.start_remote("/t/echo", "lerc-cray-ymp").unwrap();
    let x = [Value::Double(1.5)];
    let flow = [Value::floats(&[102.0, 390.0, 2.9e5, 0.0])];
    let call = per_warm_call(|| assert_eq!(line.call("echo", &x).unwrap(), x));
    let collect = per_warm_call(|| {
        let ticket = line.issue("echo", &x).unwrap();
        assert_eq!(line.collect(ticket).unwrap(), x);
    });
    let mut out = Vec::new();
    let mut collect_into = |name: &str, x: &[Value]| {
        per_warm_call(|| {
            let ticket = line.issue(name, x).unwrap();
            line.collect_into(ticket, &mut out).unwrap();
            assert_eq!(out, x);
        })
    };
    let echoes = Echoes {
        call,
        collect,
        collect_into: collect_into("echo", &x),
        flow_collect_into: collect_into("flow", &flow),
    };
    line.quit().unwrap();
    sch.shutdown();
    echoes
}

#[test]
fn a_warm_echo_call_stays_within_its_allocation_budget() {
    let batched = SchoonerConfig::builder().link_batching(LinkConfig::default()).build();
    for (world, sch) in [
        ("plain", Schooner::standard().unwrap()),
        ("link-batched", Schooner::standard_with(batched).unwrap()),
    ] {
        let e = warm_echoes(sch);
        println!(
            "allocations per warm echo, {world}: call {:.3}, issue/collect {:.3}, \
             issue/collect_into {:.3}, array[4] of float issue/collect_into {:.3}",
            e.call, e.collect, e.collect_into, e.flow_collect_into
        );
        for (arm, got, budget) in [
            ("call", e.call, MAX_CALL),
            ("issue/collect", e.collect, MAX_CALL),
            ("issue/collect_into", e.collect_into, MAX_ECHO),
            ("array[4] of float issue/collect_into", e.flow_collect_into, MAX_ECHO),
        ] {
            assert!(got <= budget, "{world} {arm}: {got:.3} allocations, budget {budget}");
        }
    }
}
