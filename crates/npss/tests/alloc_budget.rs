//! Heap-allocation budget of the RPC path.
//!
//! A Table-2 session is about 3 000 RPCs of ~46 bytes; what it costs the
//! host is almost all per-call plumbing. This suite counts every heap
//! allocation (all of the world's threads) made by one whole seeded
//! session — world build, binding, transient, teardown — and holds the
//! figure *per completed call* under a ceiling, on the plain path and on
//! the wave-scheduled, link-batched one. Anything that starts
//! re-deriving a per-binding, per-link or per-topology invariant on
//! every call (a stub clone, a route search, a formatted metric key)
//! lands here long before it shows on a wall clock.
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use npss::engine_exec::Scheduling;
use npss::{run_session, SessionKnobs, SessionRequest, Workload};

/// Ceilings on allocations per `rpc.calls`, whole session included. The
/// per-call clone/route/format path measured 120 (plain) and 138
/// (wave+batched); with every invariant computed once, 29.7 and 38.0;
/// with the call's name and arguments held by the ticket alone and its
/// addresses by the frame record alone, 26.7 and 30.5; with addresses
/// shared from their registration, ticket buffers lent by the line,
/// request strings decoded in place, arrays collected in one allocation,
/// the process's argument vector reused and replies marshaled into their
/// one buffer, 12.6 and 16.4; with request and reply buffers
/// circulating between each line and its processes, 8.6 and 14.5; with a
/// link's lone message held unframed and flushed as a plain envelope (so
/// batched requests circulate too), 8.6 and 8.9; today, with short
/// packed arrays held inside their values, results written into vectors
/// the process and each executive slot keep, mapping entries shared by
/// the Manager and the Newton solver's buffers kept per solve, 1.91 and
/// 2.20. The ceilings are those figures plus about 2 %; the figures are
/// printed on failure and by `--nocapture`, so the ceilings can be
/// ratcheted down as the path gets leaner. `schooner/tests/call_allocs.rs`
/// pins one warm call.
const MAX_PLAIN: f64 = 1.95;
const MAX_WAVE_BATCHED: f64 = 2.24;

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

/// Allocations per completed call over one whole session.
fn allocs_per_call(req: &SessionRequest) -> f64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = run_session(req).expect("seeded session runs");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let calls: u64 = report
        .metrics_json
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"rpc.calls\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("snapshot carries rpc.calls");
    assert!(calls > 1_000, "a Table-2 transient makes thousands of calls, saw {calls}");
    allocs as f64 / calls as f64
}

#[test]
fn table2_session_stays_within_its_allocation_budget() {
    let mut req =
        SessionRequest::new("budget", 0xA110C, Workload::Transient { t_end: 1.0, dt: 0.02 });
    // First session pays the once-per-process work (shared images).
    run_session(&req).expect("warm-up session runs");

    let plain = allocs_per_call(&req);
    req.knobs =
        SessionKnobs { link_batching: true, scheduling: Scheduling::WaveParallel, crash: None };
    let wave_batched = allocs_per_call(&req);
    println!("allocations per rpc.calls: plain {plain:.3}, wave+batched {wave_batched:.3}");

    assert!(
        plain <= MAX_PLAIN,
        "plain Table-2 session: {plain:.3} allocations per call, budget {MAX_PLAIN}"
    );
    assert!(
        wave_batched <= MAX_WAVE_BATCHED,
        "wave-scheduled, link-batched Table-2 session: {wave_batched:.3} allocations per call, \
         budget {MAX_WAVE_BATCHED}"
    );
}
