//! Unit costs of the layers, timed from outside by calling each layer's
//! public functions directly on the workload's own shapes.
//!
//! A unit cost is the lower quartile over `BATCHES` batches of the mean
//! wall seconds per call — the host's neighbours only ever slow a batch
//! down, so the fast side of the batches is the layer's own cost. A batch
//! is sized to about `BATCH_S` of work, between `MIN_CALLS` and
//! `MAX_CALLS` calls, so a 20 ns call gets twenty thousand calls and a
//! 400 µs array conversion still finishes. The traced run multiplies
//! these by the exact per-op counts to attribute an op's time.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use ledger::{Journal, RecordKind};
use netsim::link::{decode_frame, FrameBuilder};
use netsim::{npss_testbed, LinkConfig, Network};
use npss::engine_exec::ExecutiveEngine;
use npss::f100::F100Network;
use npss::procs;
use schooner::message::Msg;
use schooner::obs::PHASES;
use schooner::{
    EventKind, FnProcedure, Obs, PoolConfig, ProgramImage, Schooner, SchoonerConfig, SessionPool,
};
use tess::engine::Turbofan;
use tess::schedules::Schedule;
use tess::transient::TransientMethod;
use uts::plan::MarshalPlan;
use uts::{Architecture, Type, Value};

use crate::workloads::{self, Kind};

const BATCHES: usize = 5;
const BATCH_S: f64 = 0.04;
const MIN_CALLS: usize = 8;
const MAX_CALLS: usize = 4_000;

/// Lower quartile over the batches of mean seconds per call of `f`.
pub fn unit_cost(mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    for _ in 0..MIN_CALLS {
        f();
    }
    let per_call = probe.elapsed().as_secs_f64() / MIN_CALLS as f64;
    let calls = ((BATCH_S / per_call.max(1e-9)) as usize).clamp(MIN_CALLS, MAX_CALLS);
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    crate::percentile(&batches, 25.0)
}

/// The unit costs of one workload's shapes, seconds unless named.
#[derive(Debug, Default, Clone)]
pub struct UnitCosts {
    /// All marshal work of one call: arguments and results, both ends.
    pub uts_call_s: f64,
    pub uts_encode_ns_per_byte: f64,
    pub uts_decode_ns_per_byte: f64,
    pub msg_encode_s: f64,
    pub msg_decode_s: f64,
    pub frame_build_s: f64,
    pub frame_decode_s: f64,
    pub enqueue_s: f64,
    pub handoff_s: f64,
    pub call_echo_s: f64,
    pub issue_collect_echo_s: f64,
    /// What the layers below `line` cost inside one echo call.
    pub echo_below_line_s: f64,
    pub pool_noop_s: f64,
    pub emit_s: f64,
    pub span_s: f64,
    pub append_s: f64,
    pub sync_s: f64,
    pub journal_overhead_frac: f64,
    pub journal_bytes_stable: f64,
    pub avs_settle_local_s: f64,
    pub transient_local_s: f64,
    pub balance_local_s: f64,
}

// ---------------------------------------------------------------------------
// uts
// ---------------------------------------------------------------------------

/// One direction of one call: a signature, its values, who encodes and
/// who decodes.
struct Marshal {
    plan: MarshalPlan,
    values: Vec<Value>,
    encoder: Architecture,
    decoder: Architecture,
}

impl Marshal {
    fn new(
        types: &[Type],
        values: Vec<Value>,
        encoder: Architecture,
        decoder: Architecture,
    ) -> Self {
        Self { plan: MarshalPlan::compile(types.iter()), values, encoder, decoder }
    }

    /// (encode seconds, decode seconds, payload bytes).
    fn cost(&self) -> (f64, f64, usize) {
        let mut buf = BytesMut::with_capacity(self.plan.size_hint());
        let enc = unit_cost(|| {
            self.plan
                .encode_into(&mut buf, &self.values, self.encoder)
                .expect("values fit the plan");
            std::hint::black_box(&buf);
        });
        let payload = Bytes::copy_from_slice(&buf);
        let dec = unit_cost(|| {
            std::hint::black_box(self.plan.decode(payload.clone(), self.decoder).expect("decodes"));
        });
        (enc, dec, payload.len())
    }
}

/// The marshal directions of one op-typical call, and how many calls
/// they stand for.
fn marshal_shapes(kind: Kind, seed: u64) -> (Vec<Marshal>, f64) {
    use Architecture::{CrayYmp, Sgi4D, SunSparc10};
    if kind == Kind::Bulk {
        // A round is two calls; each sends and returns the array.
        let ty = [Type::Array { len: workloads::BULK_LEN, elem: Box::new(Type::Float) }];
        let xs = workloads::bulk_arrays(seed).swap_remove(0);
        let shapes = [CrayYmp, Sgi4D]
            .into_iter()
            .flat_map(|remote| {
                [
                    Marshal::new(&ty, vec![xs.clone()], SunSparc10, remote),
                    Marshal::new(&ty, vec![xs.clone()], remote, SunSparc10),
                ]
            })
            .collect();
        (shapes, 2.0)
    } else {
        // The engine workloads' commonest call: `duct` on the Cray.
        let spec = uts::parse_spec_file(procs::DUCT_SPEC).expect("duct spec parses");
        let duct = spec.find("duct").expect("duct is declared");
        let inputs: Vec<Type> = duct.input_params().map(|p| p.ty.clone()).collect();
        let outputs: Vec<Type> = duct.output_params().map(|p| p.ty.clone()).collect();
        let flow = Value::floats(&[102.0, 390.0, 2.9e5, 0.0]);
        let args = vec![flow.clone(), Value::Float(0.02), Value::Float(0.0)];
        let shapes = vec![
            Marshal::new(&inputs, args, SunSparc10, CrayYmp),
            Marshal::new(&outputs, vec![flow], CrayYmp, SunSparc10),
        ];
        (shapes, 1.0)
    }
}

fn measure_uts(kind: Kind, seed: u64, u: &mut UnitCosts) -> usize {
    let (shapes, calls) = marshal_shapes(kind, seed);
    let (mut enc_s, mut dec_s, mut bytes) = (0.0, 0.0, 0usize);
    for shape in &shapes {
        let (e, d, n) = shape.cost();
        enc_s += e;
        dec_s += d;
        bytes += n;
    }
    u.uts_call_s = (enc_s + dec_s) / calls;
    u.uts_encode_ns_per_byte = enc_s * 1e9 / bytes as f64;
    u.uts_decode_ns_per_byte = dec_s * 1e9 / bytes as f64;
    // Mean payload of one message of such a call.
    bytes / shapes.len()
}

// ---------------------------------------------------------------------------
// message, link, transport
// ---------------------------------------------------------------------------

const PROC_ADDR: &str = "lerc-cray-ymp:proc-7";
const LINE_ADDR: &str = "ua-sparc10:line-3";

fn measure_message(kind: Kind, payload: usize, u: &mut UnitCosts) -> Bytes {
    let args = Bytes::copy_from_slice(&vec![0x5a; payload]);
    let request = Msg::CallRequest {
        call: 41,
        line: 3,
        proc_name: "duct".into(),
        args: args.clone(),
        reply_to: LINE_ADDR.into(),
    };
    let reply = Msg::CallReply { call: 41, incarnation: 1, result: Ok(args.clone()) };
    let request_bytes = request.encode();
    let reply_bytes = reply.encode();
    // The batched path marshals the request straight into the frame.
    let enc_request = if matches!(kind, Kind::Table2 { wave_batched: true }) {
        let mut out = BytesMut::with_capacity(request_bytes.len());
        unit_cost(|| {
            out.clear();
            Msg::encode_call_request_into(&mut out, 41, 3, "duct", &args, LINE_ADDR);
            std::hint::black_box(&out);
        })
    } else {
        unit_cost(|| {
            std::hint::black_box(request.encode());
        })
    };
    let enc_reply = unit_cost(|| {
        std::hint::black_box(reply.encode());
    });
    let dec_request = unit_cost(|| {
        std::hint::black_box(Msg::decode(request_bytes.clone()).expect("decodes"));
    });
    let dec_reply = unit_cost(|| {
        std::hint::black_box(Msg::decode(reply_bytes.clone()).expect("decodes"));
    });
    u.msg_encode_s = (enc_request + enc_reply) / 2.0;
    u.msg_decode_s = (dec_request + dec_reply) / 2.0;
    request_bytes
}

fn measure_link(request: &Bytes, u: &mut UnitCosts) {
    let build = || {
        let mut frame = FrameBuilder::new();
        frame.push(LINE_ADDR, PROC_ADDR, 1.25, request);
        frame.finish()
    };
    u.frame_build_s = unit_cost(|| {
        std::hint::black_box(build());
    });
    let frame = build();
    u.frame_decode_s = unit_cost(|| {
        std::hint::black_box(decode_frame(&frame).expect("decodes"));
    });
}

fn measure_transport(request: &Bytes, u: &mut UnitCosts) -> Result<(), String> {
    let err = |e: netsim::NetError| e.to_string();
    let net = Network::new(npss_testbed());
    let here = net.register(LINE_ADDR).map_err(err)?;
    let there = net.register(PROC_ADDR).map_err(err)?;
    // Same thread: what a send and its receive cost with nobody to wake.
    u.enqueue_s = unit_cost(|| {
        here.send(PROC_ADDR, request.clone(), 0.0).expect("delivers");
        std::hint::black_box(there.try_recv().expect("just sent"));
    });
    // Two threads, one message in flight: each leg is an enqueue plus a
    // hand-off to a thread blocked in `recv`.
    let echo = std::thread::Builder::new()
        .name("bench-echo".into())
        .spawn(move || {
            while let Ok(env) = there.recv(Duration::from_secs(5)) {
                if env.payload.is_empty() || there.send(LINE_ADDR, env.payload, 0.0).is_err() {
                    break;
                }
            }
        })
        .map_err(|e| e.to_string())?;
    let round_trip = unit_cost(|| {
        here.send(PROC_ADDR, request.clone(), 0.0).expect("delivers");
        std::hint::black_box(here.recv(Duration::from_secs(5)).expect("echoed"));
    });
    here.send(PROC_ADDR, Bytes::new(), 0.0).map_err(err)?;
    echo.join().map_err(|_| "the transport echo thread panicked".to_owned())?;
    u.handoff_s = (round_trip / 2.0 - u.enqueue_s).max(0.0);
    Ok(())
}

// ---------------------------------------------------------------------------
// line
// ---------------------------------------------------------------------------

/// The echo image the `line` unit cost calls: one double in, one out.
fn echo_image() -> ProgramImage {
    ProgramImage::new("echo", r#"export echo prog("x" val double, "y" res double)"#)
        .expect("spec parses")
        .with_procedure("echo", || {
            Box::new(FnProcedure::with_flops(|args: &[Value]| Ok(vec![args[0].clone()]), 1_000.0))
        })
        .expect("echo declared")
}

fn measure_line(kind: Kind, u: &mut UnitCosts) -> Result<(), String> {
    let err = |e: schooner::SchError| e.to_string();
    let batched = matches!(kind, Kind::Table2 { wave_batched: true });
    let config = if batched {
        SchoonerConfig::builder().link_batching(LinkConfig::default()).build()
    } else {
        SchoonerConfig::default()
    };
    let sch = Schooner::standard_with(config).map_err(err)?;
    sch.install_program("/bench/echo", echo_image(), &["lerc-cray-ymp"]).map_err(err)?;
    let mut line = sch.open_line("echo", "ua-sparc10").map_err(err)?;
    line.start_remote("/bench/echo", "lerc-cray-ymp").map_err(err)?;
    let x = [Value::Double(1.5)];
    u.call_echo_s = unit_cost(|| {
        std::hint::black_box(line.call("echo", &x).expect("echo answers"));
    });
    sch.ctx().obs.clear_spans();
    u.issue_collect_echo_s = unit_cost(|| {
        let ticket = line.issue("echo", &x).expect("issues");
        std::hint::black_box(line.collect(ticket).expect("echo answers"));
    });
    line.quit().map_err(err)?;
    sch.shutdown();

    // The same echo, priced from the layers below: four marshal steps of
    // one double, two messages coded and carried, one frame when batched,
    // two events and one span.
    let ty = [Type::Double];
    let marshal = Marshal::new(&ty, x.to_vec(), Architecture::SunSparc10, Architecture::CrayYmp);
    let (enc, dec, _) = marshal.cost();
    let frame = if batched { u.frame_build_s + u.frame_decode_s } else { 0.0 };
    u.echo_below_line_s = 2.0 * (enc + dec)
        + 2.0 * (u.msg_encode_s + u.msg_decode_s + u.enqueue_s + u.handoff_s)
        + frame
        + 2.0 * u.emit_s
        + u.span_s;
    Ok(())
}

// ---------------------------------------------------------------------------
// pool, obs, ledger
// ---------------------------------------------------------------------------

fn measure_pool(u: &mut UnitCosts) -> Result<(), String> {
    let mut pool: SessionPool<()> =
        SessionPool::start(PoolConfig { workers: 2, queue_capacity: 8, ..PoolConfig::default() })
            .map_err(|e| e.to_string())?;
    u.pool_noop_s = unit_cost(|| {
        pool.submit("tenant-0", || ()).expect("admitted").wait().expect("ran");
    });
    pool.shutdown();
    Ok(())
}

fn call_issued() -> EventKind {
    EventKind::CallIssued { line: 3, proc: "duct".into(), addr: PROC_ADDR.into() }
}

fn measure_obs(u: &mut UnitCosts) {
    let obs = Obs::new();
    u.emit_s = unit_cost(|| obs.emit(1.25, call_issued()));
    let mut call = 0u64;
    u.span_s = unit_cost(|| {
        call += 1;
        obs.span_start(3, call, "duct", "ua-sparc10", "lerc-cray-ymp", 1.0);
        for phase in PHASES {
            obs.span_phase(3, call, phase, 1e-4);
        }
        obs.span_end(3, call, 1.0005);
        if call & 1023 == 0 {
            obs.clear_spans();
        }
    });
}

/// Journal on against journal off on the same op, whether two journals
/// of one seed are the same bytes, and the cost of an append and a sync.
fn measure_ledger(seed: u64, out_dir: &Path, u: &mut UnitCosts) -> Result<(), String> {
    let dir = workloads::journal_dir(out_dir)?;
    let path = dir.join("unit.journal");
    let io = |e: ledger::LedgerError| e.to_string();

    let journal = Journal::create(&path).map_err(io)?;
    let payload = schooner::obs::codec::encode_event(&call_issued());
    u.append_s = unit_cost(|| {
        journal.append(1.25, RecordKind::Event { payload: payload.clone() }).expect("appends");
    });
    let start = Instant::now();
    journal.sync().map_err(io)?;
    u.sync_s = start.elapsed().as_secs_f64();
    drop(journal);

    // With the journal attached an emit also encodes and appends; the
    // append is the ledger's, the rest is the obs layer's.
    let obs = Obs::new();
    obs.ledger().attach(Journal::create(&path).map_err(io)?).map_err(io)?;
    let attached = unit_cost(|| obs.emit(1.25, call_issued()));
    u.emit_s = (attached - u.append_s).max(u.emit_s);
    drop(obs);

    let s = workloads::avs_seed(seed);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut journals = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        workloads::avs_op(s, Some(&path), None)?;
        on.push(start.elapsed().as_secs_f64());
        journals.push(std::fs::read(&path).map_err(|e| e.to_string())?);
        let start = Instant::now();
        workloads::avs_op(s, None, None)?;
        off.push(start.elapsed().as_secs_f64());
    }
    let (on, off) = (crate::median(&mut on), crate::median(&mut off));
    u.journal_overhead_frac = (on - off) / off;
    u.journal_bytes_stable = f64::from(journals.windows(2).all(|w| w[0] == w[1]));
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// avs, tess
// ---------------------------------------------------------------------------

fn local_engine() -> Result<ExecutiveEngine, String> {
    ExecutiveEngine::all_local(Turbofan::f100()?)
}

fn measure_tess(t_end: f64, u: &mut UnitCosts) -> Result<(), String> {
    let wf = local_engine()?.engine.design.wf;
    let fuel = Schedule::new(vec![(0.0, 0.92 * wf), (0.3 * t_end, 0.92 * wf), (0.8 * t_end, wf)])?;
    u.transient_local_s = unit_cost(|| {
        let mut exec = local_engine().expect("the F100 builds");
        let run = exec.run_transient(&fuel, TransientMethod::ImprovedEuler, 0.02, t_end);
        std::hint::black_box(run.expect("the local transient runs"));
    });
    u.balance_local_s = unit_cost(|| {
        let mut exec = local_engine().expect("the F100 builds");
        std::hint::black_box(exec.balance(0.95 * wf).expect("the local balance converges"));
    });
    Ok(())
}

fn measure_avs(u: &mut UnitCosts) -> Result<(), String> {
    let sch = Arc::new(Schooner::standard().map_err(|e| e.to_string())?);
    let mut failed = None;
    u.avs_settle_local_s = unit_cost(|| {
        let run = F100Network::build(sch.clone(), "ua-sparc10")
            .and_then(|mut net| net.run("Modified Euler", 1.0, 0.02));
        if let Err(e) = run {
            failed = Some(e);
        }
    });
    drop(sch);
    failed.map_or(Ok(()), Err)
}

/// Measure every unit cost the workload's attribution uses. Layers the
/// workload never enters keep a cost of zero.
pub fn measure(kind: Kind, seed: u64, out_dir: &Path) -> Result<UnitCosts, String> {
    let mut u = UnitCosts::default();
    let payload = measure_uts(kind, seed, &mut u);
    let request = measure_message(kind, payload, &mut u);
    if matches!(kind, Kind::Table2 { wave_batched: true }) {
        measure_link(&request, &mut u);
    }
    measure_transport(&request, &mut u)?;
    measure_obs(&mut u);
    if kind == Kind::AvsJournaled {
        measure_ledger(seed, out_dir, &mut u)?;
        measure_avs(&mut u)?;
    }
    measure_line(kind, &mut u)?;
    if kind == Kind::PoolMix {
        measure_pool(&mut u)?;
    }
    let (_, _, transient_t_end) = kind.tess_mix();
    if transient_t_end > 0.0 {
        measure_tess(transient_t_end, &mut u)?;
    }
    Ok(u)
}
