//! The allocation census: exact heap allocations, and the bytes they
//! request, of the paths whose per-call plumbing a Table-2 session pays
//! for, as one table pinned in `tests/golden/census.txt`.
//!
//! A Table-2 session is about 3 000 RPCs of ~46 bytes, so what it costs
//! the host is almost all plumbing, not engine compute. The rows are whole
//! seeded sessions (the paper's Table 2, plain and wave-scheduled with
//! link batching, and four short transient, steady-state and flood-sweep
//! sessions), one journaled F100 AVS op and its replay, warm echoes from
//! a SPARC line to a Cray process, argument-list decodes and the `bytes`
//! reclaim. Anything that starts re-deriving a per-binding, per-link or
//! per-topology invariant on every call moves a row here long before it
//! shows on a wall clock.
//!
//! The counter is per thread and every row runs on the test thread (a
//! world has no threads of its own), so each count is exact: a row runs
//! once to warm up and twice measured, and the two counts must agree
//! before the table is compared with the golden. To move a count on
//! purpose, rewrite the golden with
//! `cargo test --test census -- --ignored rewrite_census_golden`.

use std::fmt::Write;
use std::sync::Arc;

use bytes::{BufMut, BytesMut};
use npss_sim::ledger;
use npss_sim::netsim::LinkConfig;
use npss_sim::npss::engine_exec::Scheduling;
use npss_sim::npss::service::Workload::{FloodSweep, SteadyState, Transient};
use npss_sim::npss::{run_session, F100Network, RemotePlacement, SessionKnobs, SessionRequest};
use npss_sim::schooner::{FnProcedure, Procedure, ProgramImage, Schooner, SchoonerConfig};
use npss_sim::uts::{Architecture, MarshalPlan, Type, Value};
use temp_journal::TempJournal;
use testkit::census::{self, Census};

#[path = "support/golden.rs"]
mod golden;
#[path = "../examples/support/temp_journal.rs"]
mod temp_journal;

#[global_allocator]
static CENSUS: Census = Census;

/// Written by rustc 1.95.0, the toolchain CI pins. Some counts rest on
/// std internals (`Vec`, `VecDeque` and `HashMap` growth), so a
/// toolchain that moves them rewrites the golden. The `avs/op` bytes
/// include the journal's copy of its path under the system temp dir.
const GOLDEN: &str = "census.txt";
/// Calls per echo arm, measured after as many warm-up calls.
const ECHOES: u64 = 200;
/// Decodes and reclaim rounds per row.
const ROUNDS: u64 = 100;

/// `(allocations, requested bytes)`, as [`census::count`] returns them.
type Tally = (u64, u64);

/// One line of the table: `tally`, and its allocations over `per`'s
/// count of its unit, if any.
struct Row {
    name: String,
    tally: Tally,
    per: Option<(u64, &'static str)>,
}

/// Runs `measure` once to warm up and twice more; the two measured
/// `(tally, count)` pairs must agree. Returns the second.
fn twice(name: &str, mut measure: impl FnMut() -> (Tally, u64)) -> (Tally, u64) {
    measure();
    let (first, second) = (measure(), measure());
    assert_eq!(
        first, second,
        "{name}: two runs made ((allocations, bytes), count) {first:?} and {second:?}"
    );
    second
}

fn row(name: &str, measure: impl FnMut() -> (Tally, u64), unit: Option<&'static str>) -> Row {
    let (tally, n) = twice(name, measure);
    Row { name: name.into(), tally, per: unit.map(|u| (n, u)) }
}

/// A whole seeded session: its tally and its `rpc.calls`.
fn session(req: &SessionRequest) -> (Tally, u64) {
    let (tally, report) = census::count(|| run_session(req).expect("seeded session runs"));
    let calls = report
        .metrics_json
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"rpc.calls\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("snapshot carries rpc.calls");
    (tally, calls)
}

fn wave_batched() -> SessionKnobs {
    SessionKnobs { link_batching: true, scheduling: Scheduling::WaveParallel, crash: None }
}

fn sessions(rows: &mut Vec<Row>) {
    let table2 = SessionRequest::new("census", 0xA110C, Transient { t_end: 1.0, dt: 0.02 });
    let table2_wave = SessionRequest { knobs: wave_batched(), ..table2.clone() };
    rows.push(row("table2/plain", || session(&table2), Some("calls")));
    rows.push(row("table2/wave+batched", || session(&table2_wave), Some("calls")));

    // The four short sessions of the benchmark's unrolled-session test
    // (seed 0xBEEF), not `session_pool_mix`'s own shapes or seeds.
    let short = |workload, knobs| SessionRequest {
        knobs,
        ..SessionRequest::new("tenant-0", 0xBEEF, workload)
    };
    let transient = || Transient { t_end: 0.06, dt: 0.02 };
    for (name, req) in [
        ("session/transient-wave+batched", short(transient(), wave_batched())),
        ("session/transient", short(transient(), SessionKnobs::default())),
        ("session/steady", short(SteadyState { wf_frac: 0.95 }, SessionKnobs::default())),
        ("session/flood", short(FloodSweep { lines: 4, variants: 16 }, SessionKnobs::default())),
    ] {
        rows.push(row(name, || session(&req), None));
    }
}

/// One journaled F100 AVS op — world build, Table-2 placement, a 1 s
/// Modified-Euler transient and shutdown — and the replay of its journal.
fn avs(rows: &mut Vec<Row>) {
    let journal = TempJournal::new("census");
    let op = || {
        let sch = Arc::new(Schooner::standard().expect("world builds"));
        sch.attach_journal(&journal.0).expect("journal attaches");
        let mut net = F100Network::build(sch.clone(), "ua-sparc10").expect("network builds");
        net.apply_placement(&RemotePlacement::table2()).expect("Table-2 placement applies");
        net.run("Modified Euler", 1.0, 0.02).expect("transient runs");
        drop(net);
        Arc::try_unwrap(sch).ok().expect("the network released its world").shutdown();
    };
    rows.push(row("avs/op", || (census::count(op).0, 0), None));
    let replay = || {
        let (tally, replay) =
            census::count(|| ledger::replay(&journal.0).expect("journal replays"));
        (tally, replay.records.len() as u64)
    };
    rows.push(row("avs/replay", replay, Some("records")));
}

/// The tally of [`ECHOES`] calls of `call`, after as many to warm up.
fn warm(mut call: impl FnMut()) -> Tally {
    (0..ECHOES).for_each(|_| call());
    census::count(|| (0..ECHOES).for_each(|_| call())).0
}

/// Each echo arm's tally in a fresh world: `call` and
/// `issue`/`collect` of a one-double echo, and `issue`/`collect_into` of
/// that echo and of the `array[4] of float` flow of the Table-2 modules.
/// A fresh world starts every arm with the same spans logged, so the
/// counts repeat exactly.
fn echo_arms(config: &SchoonerConfig) -> [Tally; 4] {
    let sch = Schooner::standard_with(config.clone()).unwrap();
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
    let call = warm(|| assert_eq!(line.call("echo", &x).unwrap(), x));
    let collect = warm(|| {
        let ticket = line.issue("echo", &x).unwrap();
        assert_eq!(line.collect(ticket).unwrap(), x);
    });
    let mut out = Vec::new();
    let mut collect_into = |name: &str, x: &[Value]| {
        warm(|| {
            let ticket = line.issue(name, x).unwrap();
            line.collect_into(ticket, &mut out).unwrap();
            assert_eq!(out, x);
        })
    };
    let arms = [call, collect, collect_into("echo", &x), collect_into("flow", &flow)];
    line.quit().unwrap();
    sch.shutdown();
    arms
}

fn echoes(rows: &mut Vec<Row>) {
    let batched = SchoonerConfig::builder().link_batching(LinkConfig).build();
    for (world, config) in [("plain", SchoonerConfig::default()), ("batched", batched)] {
        let (first, second) = (echo_arms(&config), echo_arms(&config));
        let arms = ["call", "collect", "collect_into", "flow-collect_into"];
        for ((arm, a), b) in arms.into_iter().zip(first).zip(second) {
            let name = format!("echo/{world}/{arm}");
            assert_eq!(a, b, "{name}: two worlds made (allocations, bytes) {a:?} and {b:?}");
            rows.push(Row { name, tally: b, per: Some((ECHOES, "calls")) });
        }
    }
}

/// The tally of [`ROUNDS`] decodes of `values` (`types`, sent from a
/// SPARC) on a Cray, into one kept vector, after one warm-up decode.
fn decodes(types: &[Type], values: &[Value]) -> (Tally, u64) {
    let plan = MarshalPlan::compile(types);
    let wire = plan.encode(values, Architecture::SunSparc10).unwrap();
    let mut out = Vec::new();
    plan.decode_into(wire.clone(), Architecture::CrayYmp, &mut out).unwrap();
    let (tally, ()) = census::count(|| {
        for _ in 0..ROUNDS {
            plan.decode_into(wire.clone(), Architecture::CrayYmp, &mut out).unwrap();
        }
    });
    assert_eq!(out, values);
    (tally, ROUNDS)
}

/// A flow station as a record, the shape a module input may take.
fn station(w: f32) -> Value {
    Value::Record(vec![
        ("name".into(), Value::String(format!("station {w}"))),
        ("flow".into(), Value::floats(&[w, 390.0, 2.9e5, 0.0])),
        ("ps".into(), Value::doubles(&[1.0, 2.0, 3.0])),
        ("loss".into(), Value::Float(0.02)),
    ])
}

fn uts(rows: &mut Vec<Row>) {
    let flow = Type::Array { len: 4, elem: Box::new(Type::Float) };
    // The duct's inputs: flow, pressure-loss fraction, heat.
    let duct = [flow, Type::Float, Type::Float];
    let args = [Value::floats(&[102.0, 390.0, 2.9e5, 0.0]), Value::Float(0.02), Value::Float(0.0)];
    rows.push(row("decode/duct", || decodes(&duct, &args), Some("decodes")));
    let long = [Type::Array { len: 64, elem: Box::new(Type::Float) }];
    let floats = [Value::floats(&[0.5; 64])];
    rows.push(row("decode/array64", || decodes(&long, &floats), Some("decodes")));

    // As the AVS scheduler compares a module's inputs with what it saw.
    let stations = || Value::Array((0..8).map(|i| station(i as f32)).collect());
    let (a, b) = (stations(), stations());
    let compare = || {
        let (tally, equal) = census::count(|| a == b);
        assert!(equal);
        (tally, 0)
    };
    rows.push(row("compare/records", compare, None));
}

/// A reclaimed buffer freezes in place: `try_into_mut` keeps the
/// storage's block, and the next `freeze` refills it.
fn bytes(rows: &mut Vec<Row>) {
    let first = || {
        let mut m = BytesMut::with_capacity(64);
        m.put_slice(b"first message");
        (census::count(|| m.freeze()).0, 0)
    };
    rows.push(row("bytes/first-freeze", first, None));

    let reclaim = || {
        let mut m = BytesMut::with_capacity(64);
        m.put_slice(b"first message");
        let mut b = m.freeze();
        let data = b.as_ptr();
        let (tally, ()) = census::count(|| {
            for round in 0..ROUNDS as u32 {
                let mut m = b.try_into_mut().expect("sole handle");
                m.clear();
                m.put_u32(round);
                m.put_slice(b"reply");
                b = m.freeze();
                assert_eq!(b.as_ptr(), data, "round {round}: the bytes moved");
                assert_eq!((&b[..4], &b[4..]), (&round.to_be_bytes()[..], &b"reply"[..]));
            }
        });
        (tally, ROUNDS)
    };
    rows.push(row("bytes/reclaim-write-freeze", reclaim, Some("rounds")));
}

fn census() -> Vec<Row> {
    let mut rows = Vec::new();
    sessions(&mut rows);
    avs(&mut rows);
    echoes(&mut rows);
    uts(&mut rows);
    bytes(&mut rows);
    rows
}

/// The golden text, a line per row: its name, allocations and requested
/// bytes, then, for a row with a unit, allocations per unit and the
/// unit's count.
fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for row in rows {
        let (allocs, bytes) = row.tally;
        write!(out, "{:<30}{:>7}{:>10} B", row.name, allocs, bytes).unwrap();
        if let Some((n, unit)) = row.per {
            write!(out, "{:>10.4} per {:>5} {unit}", allocs as f64 / n as f64, n).unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn allocation_census_matches_its_golden() {
    golden::check(GOLDEN, render(&census()).as_bytes());
}

#[test]
#[ignore = "rewrites the golden"]
fn rewrite_census_golden() {
    golden::rewrite(GOLDEN, render(&census()).as_bytes());
}
