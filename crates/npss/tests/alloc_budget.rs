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
//! The same suite holds one journaled F100 AVS op — the Network Editor
//! under the Table-2 placement, with the journal attached and then
//! replayed — whose costs are bookkeeping rather than calls: the
//! scheduler's fixed-point pass and the journal's read side.
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use npss::engine_exec::Scheduling;
use npss::{run_session, F100Network, RemotePlacement, SessionKnobs, SessionRequest, Workload};
use schooner::Schooner;

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

/// Ceilings on one journaled F100 AVS op — world build, Table-2
/// placement, a 1 s Modified-Euler transient, shutdown and a replay of
/// its journal — and on that replay's allocations per record. With one
/// payload vector per replayed event and every module's inputs cloned on
/// every scheduler pass, the op measured 21 901 and replay 1.002 per
/// record; with events read as views of one shared file buffer and
/// inputs compared before any is cloned, 10 194 and 0.0080 (78 for
/// 9 706 records). The ceilings are those figures plus about 2 %.
const MAX_AVS_OP: u64 = 10_400;
const MAX_REPLAY_PER_RECORD: f64 = 0.0082;

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

/// Allocations of one journaled AVS op writing `journal`; of the op's
/// replay of it; and the records replayed.
fn avs_op_allocs(journal: &Path) -> (u64, u64, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let sch = Arc::new(Schooner::standard().expect("world builds"));
    sch.attach_journal(journal).expect("journal attaches");
    let mut net = F100Network::build(sch.clone(), "ua-sparc10").expect("network builds");
    net.apply_placement(&RemotePlacement::table2()).expect("Table-2 placement applies");
    net.run("Modified Euler", 1.0, 0.02).expect("transient runs");
    drop(net);
    Arc::try_unwrap(sch).ok().expect("the network released its world").shutdown();
    let replay_before = ALLOCS.load(Ordering::Relaxed);
    let replay = ledger::replay(journal).expect("journal replays");
    let after = ALLOCS.load(Ordering::Relaxed);
    let records = replay.records.len();
    assert!(records > 1_000, "a journaled transient records thousands of events, saw {records}");
    (after - before, after - replay_before, records)
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

    let journal = std::env::temp_dir().join(format!("alloc-budget-{}.journal", std::process::id()));
    // The first op pays the once-per-process work, as above.
    avs_op_allocs(&journal);
    let (avs_op, replay, records) = avs_op_allocs(&journal);
    std::fs::remove_file(&journal).ok();
    let replay_per_record = replay as f64 / records as f64;
    println!(
        "journaled F100 AVS op: {avs_op} allocations; its replay {replay} for {records} records, \
         {replay_per_record:.4} per record"
    );

    assert!(
        plain <= MAX_PLAIN,
        "plain Table-2 session: {plain:.3} allocations per call, budget {MAX_PLAIN}"
    );
    assert!(
        wave_batched <= MAX_WAVE_BATCHED,
        "wave-scheduled, link-batched Table-2 session: {wave_batched:.3} allocations per call, \
         budget {MAX_WAVE_BATCHED}"
    );
    assert!(
        avs_op <= MAX_AVS_OP,
        "journaled F100 AVS op: {avs_op} allocations, budget {MAX_AVS_OP}"
    );
    assert!(
        replay_per_record <= MAX_REPLAY_PER_RECORD,
        "journal replay: {replay_per_record:.4} allocations per record, budget \
         {MAX_REPLAY_PER_RECORD}"
    );
}
