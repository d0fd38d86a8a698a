//! The design-choice ablations of DESIGN.md §4 that count exactly or run
//! in virtual time — A1–A3 and A5–A8 — as the tables `npss-sim
//! ablations` prints, pinned in `tests/golden/paper/ablations.txt`. A4,
//! the one wall-clock timing, is `benches/ablation_uts_convert.rs`.
//!
//! Each table names its clock: "exact" for sizes, counts and pure
//! arithmetic, "clock: virtual" for simulated milliseconds. Each claim a
//! table stands for is checked, and a broken one fails the command.

use std::error::Error;
use std::time::Duration;

use mplite::{MpSystem, PackBuffer, TaskCtx, UnpackBuffer};
use npss_sim::netsim::LinkConfig;
use npss_sim::npss::procs;
use npss_sim::schooner::stub::CompiledStub;
use npss_sim::schooner::{
    FnProcedure, LineHandle, ProgramImage, Schooner, SchoonerConfig, StatefulProcedure,
};
use npss_sim::tess::engine::Turbofan;
use npss_sim::tess::schedules::Schedule;
use npss_sim::tess::transient::{TransientMethod, TransientRun};
use npss_sim::uts::{self, Architecture, Value};

type Res<T = ()> = Result<T, Box<dyn Error>>;

/// Prints every table in order; the first broken claim is the error.
pub fn print_all() -> Result<(), String> {
    let tables: [fn() -> Res; 7] =
        [float_width, line_scaling, migration, solvers, shared, rpc_vs_mp, payload_size];
    for (i, table) in tables.iter().enumerate() {
        if i > 0 {
            println!();
        }
        table().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A one-procedure image: `echo` returns its double argument.
fn echo_image() -> Res<ProgramImage> {
    Ok(ProgramImage::new("echo", r#"export echo prog("x" val double, "y" res double)"#)?
        .with_procedure("echo", || {
            Box::new(FnProcedure::with_flops(|args: &[Value]| Ok(vec![args[0].clone()]), 1_000.0))
        })?)
}

/// A one-procedure image: `blast` returns its `len`-float array.
fn payload_image(len: usize) -> Res<ProgramImage> {
    let spec = format!(
        r#"export blast prog("xs" val array[{len}] of float, "ys" res array[{len}] of float)"#
    );
    Ok(ProgramImage::new("payload", &spec)?.with_procedure("blast", || {
        Box::new(FnProcedure::with_flops(|args: &[Value]| Ok(vec![args[0].clone()]), 10_000.0))
    })?)
}

/// A one-procedure image whose state is a `len`-double array: `hold`
/// adds its argument to the first element and returns it.
fn stateful_image(len: usize) -> Res<ProgramImage> {
    let spec = format!(
        r#"export hold prog("x" val double, "y" res double) state("buf" array[{len}] of double)"#
    );
    Ok(ProgramImage::new("holder", &spec)?.with_procedure("hold", move || {
        Box::new(StatefulProcedure::new(
            vec![0.0f64; len],
            |buf: &mut Vec<f64>, args: &[Value]| {
                buf[0] += args[0].as_f64().ok_or("x")?;
                Ok(vec![Value::Double(buf[0])])
            },
            |buf: &Vec<f64>| vec![Value::doubles(buf)],
            |vals: Vec<Value>| {
                vals.first()
                    .and_then(|v| v.as_doubles().map(|xs| xs.into_owned()))
                    .ok_or_else(|| "bad state".into())
            },
        ))
    })?)
}

/// The standard world with default link batching: coalescing, no flow
/// control.
fn batched_world() -> Res<Schooner> {
    let config = SchoonerConfig::builder().link_batching(LinkConfig).build();
    Ok(Schooner::standard_with(config)?)
}

/// A serial caller's frame carries one request and flushes at its send
/// instant, so the arrival law makes batching free for it: `batched` ms
/// must equal `plain` ms, but for float summation.
fn batching_is_free(what: &str, plain: f64, batched: f64) -> Res {
    if (plain - batched).abs() / plain >= 1e-9 {
        return Err(format!(
            "{what}: link batching moved a serial call's cost ({plain} ms vs {batched} ms)"
        )
        .into());
    }
    Ok(())
}

/// Virtual milliseconds `f` advances `line`'s clock by.
fn virtual_ms(line: &mut LineHandle, f: impl FnOnce(&mut LineHandle) -> Res) -> Res<f64> {
    let t0 = line.now();
    f(line)?;
    Ok((line.now() - t0) * 1e3)
}

/// Virtual milliseconds per call of `n` calls of `name` with `args`,
/// after one warm-up call.
fn per_call_ms(line: &mut LineHandle, name: &str, args: &[Value], n: u32) -> Res<f64> {
    line.call(name, args)?;
    let total = virtual_ms(line, |l| {
        for _ in 0..n {
            l.call(name, args)?;
        }
        Ok(())
    })?;
    Ok(total / f64::from(n))
}

/// A1: the original UTS carried only doubles; a separate `float` halves
/// the wire bytes of a single-precision payload.
fn float_width() -> Res {
    println!("A1 float width: request bytes, float array vs the same array as double (exact)\n");
    println!("{:>8} {:>14} {:>14} {:>8}", "elems", "float bytes", "double bytes", "ratio");
    let bytes = |ty: &str, len: usize, arg: Value| -> Res<usize> {
        let spec = format!(
            r#"export f prog("xs" val array[{len}] of {ty}, "ys" res array[{len}] of {ty})"#
        );
        let stub = CompiledStub::compile(&uts::parse_spec_file(&spec)?.decls[0]);
        Ok(stub.marshal_inputs(&[arg], Architecture::SunSparc10)?.len())
    };
    for len in [16usize, 256, 4096] {
        let fb = bytes("float", len, Value::floats(&vec![1.5f32; len]))?;
        let db = bytes("double", len, Value::doubles(&vec![1.5f64; len]))?;
        println!("{len:>8} {fb:>14} {db:>14} {:>8.2}", db as f64 / fb as f64);
    }
    Ok(())
}

/// A2: every line has its own name database, so neither a bound call nor
/// a fresh mapping scans the other open lines.
fn line_scaling() -> Res {
    println!(
        "A2 per-line name databases: a cached call and a fresh mapping beside N open lines\n\
         (clock: virtual; lookups and bytes exact)\n"
    );
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>16}",
        "lines", "cached ms", "fresh-map ms", "fresh lookups", "request wire B"
    );
    for n in [1usize, 8, 32] {
        let sch = Schooner::standard()?;
        sch.install_program("/ablation/echo", echo_image()?, &["lerc-sgi-4d480"])?;
        let mut lines = Vec::new();
        for i in 0..n {
            let mut line = sch.open_line(&format!("scale-{i}"), "lerc-sparc10")?;
            line.start_remote("/ablation/echo", "lerc-sgi-4d480")?;
            line.call("echo", &[Value::Double(0.0)])?;
            lines.push(line);
        }
        let metrics = sch.ctx().obs.metrics();
        let wire_bytes = || metrics.counter("net.bytes.lerc-sparc10->lerc-sgi-4d480");
        let before = wire_bytes();
        let last = lines.last_mut().expect("n > 0");
        let cached_ms = virtual_ms(last, |l| {
            l.call("echo", &[Value::Double(1.0)])?;
            Ok(())
        })?;
        let request_bytes = wire_bytes() - before;

        let mut probe = sch.open_line("prober", "lerc-sparc10")?;
        let fresh_ms = virtual_ms(&mut probe, |l| {
            l.start_remote("/ablation/echo", "lerc-sgi-4d480")?;
            l.call("echo", &[Value::Double(1.0)])?;
            Ok(())
        })?;
        let lookups = probe.stats().manager_lookups;
        probe.quit()?;
        for mut line in lines {
            line.quit()?;
        }
        println!("{n:>6} {cached_ms:>12.5} {fresh_ms:>14.5} {lookups:>14} {request_bytes:>16}");
    }
    Ok(())
}

/// A3: a move is shutdown, restart and rebind, plus a state transfer when
/// the spec declares state, plus one stale-cache recovery per caller.
fn migration() -> Res {
    const HOSTS: [&str; 2] = ["lerc-sgi-4d480", "lerc-rs6000"];
    println!(
        "A3 migration: virtual ms per move between {} and {} (clock: virtual)\n",
        HOSTS[0], HOSTS[1]
    );
    println!("{:<26} {:>12} {:>12}", "procedure", "there ms", "back ms");
    let sch = Schooner::standard()?;
    let there_and_back = |line: &mut LineHandle, name: &str| -> Res<(f64, f64)> {
        let there = virtual_ms(line, |l| Ok(l.move_procedure(name, HOSTS[1])?))?;
        let back = virtual_ms(line, |l| Ok(l.move_procedure(name, HOSTS[0])?))?;
        Ok((there, back))
    };

    sch.install_program("/ablation/echo", echo_image()?, &HOSTS)?;
    let mut line = sch.open_line("mig-stateless", "lerc-sparc10")?;
    line.start_remote("/ablation/echo", HOSTS[0])?;
    line.call("echo", &[Value::Double(0.0)])?;
    let (there, back) = there_and_back(&mut line, "echo")?;
    println!("{:<26} {there:>12.3} {back:>12.3}", "stateless");
    line.quit()?;

    for len in [16usize, 1024, 16384] {
        let path = format!("/ablation/hold{len}");
        sch.install_program(&path, stateful_image(len)?, &HOSTS)?;
        let mut line = sch.open_line(&format!("mig-{len}"), "lerc-sparc10")?;
        line.start_remote(&path, HOSTS[0])?;
        line.call("hold", &[Value::Double(1.0)])?;
        let (there, back) = there_and_back(&mut line, "hold")?;
        println!("{:<26} {there:>12.3} {back:>12.3}", format!("stateful, {len} doubles"));
        if line.call("hold", &[Value::Double(0.0)])? != [Value::Double(1.0)] {
            return Err(format!("A3: the {len}-double state did not survive its moves").into());
        }
        line.quit()?;
    }

    // Another line's first call after a move finds its binding stale and
    // recovers through the Manager.
    sch.install_program("/ablation/shared-echo", echo_image()?, &HOSTS)?;
    let mut owner = sch.open_line("mig-owner", "lerc-sparc10")?;
    owner.start_shared("/ablation/shared-echo", HOSTS[0])?;
    let mut user = sch.open_line("mig-user", "lerc-sparc10")?;
    let warm_ms = per_call_ms(&mut user, "echo", &[Value::Double(0.0)], 1)?;
    owner.move_procedure("echo", HOSTS[1])?;
    let stale_ms = virtual_ms(&mut user, |l| {
        l.call("echo", &[Value::Double(1.0)])?;
        Ok(())
    })?;
    let retries = user.stats().stale_retries;
    println!(
        "\nstale-cache recovery: the other line's first call after the move costs {stale_ms:.3} ms\n\
         (a bound call costs {warm_ms:.3} ms), with {retries} stale retry"
    );
    if retries == 0 {
        return Err("A3: the first call after a move found no stale binding".into());
    }
    owner.quit()?;
    user.quit()?;
    Ok(())
}

/// A5: the transient solver menu, as final-N1 error against a fine-step
/// RK4 reference on the standard throttle transient.
fn solvers() -> Res {
    fn final_n1(method: TransientMethod, dt: f64) -> Res<f64> {
        let engine = Turbofan::f100()?;
        let wf = engine.design.wf;
        let fuel = Schedule::new(vec![(0.0, 0.92 * wf), (0.05, 0.92 * wf), (0.25, wf)])?;
        Ok(TransientRun::new(engine, fuel, method, dt).run(0.5)?.last().n1)
    }
    println!("A5 transient solvers: final N1 error against RK4 at dt = 2 ms (exact)\n");
    let reference = final_n1(TransientMethod::RungeKutta4, 0.002)?;
    println!("reference N1: {reference:.3} RPM\n");
    println!("{:<26} {:>10} {:>14}", "method", "dt (s)", "|N1 error| RPM");
    for m in [
        TransientMethod::ImprovedEuler,
        TransientMethod::RungeKutta4,
        TransientMethod::Adams,
        TransientMethod::Gear,
    ] {
        for dt in [0.04, 0.02, 0.01] {
            let err = (final_n1(m, dt)? - reference).abs();
            println!("{:<26} {:>10} {:>14.4}", m.display_name(), dt, err);
        }
    }
    Ok(())
}

/// A6: one shared process serving every line against a per-line
/// instance; once bound, both call paths cost the same.
fn shared() -> Res {
    println!("A6 shared procedure vs per-line instance (clock: virtual; lookups exact)\n");
    println!("{:<20} {:>12} {:>10}", "instance", "ms/call", "lookups");
    let sch = Schooner::standard()?;
    sch.install_program("/ablation/echo", echo_image()?, &["lerc-sgi-4d480"])?;
    let mut owner = sch.open_line("shared-owner", "lerc-sparc10")?;
    owner.start_shared("/ablation/echo", "lerc-sgi-4d480")?;
    let mut shared_user = sch.open_line("shared-user", "lerc-sparc10")?;
    let mut private_user = sch.open_line("private-user", "lerc-sparc10")?;
    private_user.start_remote("/ablation/echo", "lerc-sgi-4d480")?;
    for (label, line) in [("shared", &mut shared_user), ("per-line", &mut private_user)] {
        let ms = per_call_ms(line, "echo", &[Value::Double(1.0)], 1)?;
        println!("{label:<20} {ms:>12.5} {:>10}", line.stats().manager_lookups);
    }
    owner.quit()?;
    shared_user.quit()?;
    private_user.quit()?;
    Ok(())
}

/// The shaft worker's half of A7's hand-written exchange: it must know
/// the master's architecture and the message layout, with no spec and
/// no checking. An empty payload ends it.
fn shaft_worker(ctx: &TaskCtx) -> Res {
    loop {
        let msg = ctx.recv(1, Duration::from_secs(10))?;
        if msg.payload.is_empty() {
            return Ok(());
        }
        let sender = ctx.arch_of(msg.from).ok_or("unregistered sender")?;
        let mut ub = UnpackBuffer::new(sender, msg.payload);
        let ecom = ub.unpack_f32s(4)?;
        ub.unpack_int()?;
        let etur = ub.unpack_f32s(4)?;
        ub.unpack_int()?;
        let ecorr = f64::from(ub.unpack_f32()?);
        let xspool = f64::from(ub.unpack_f32()?);
        let xmyi = f64::from(ub.unpack_f32()?);
        let dxspl =
            procs::shaft_math::accel(f64::from(ecom[0]), f64::from(etur[0]), ecorr, xspool, xmyi)?;
        ctx.compute(20_000.0);
        let mut pb = PackBuffer::new(ctx.arch());
        pb.pack_f32(dxspl as f32);
        ctx.send(msg.from, 2, pb.finish())?;
    }
}

/// A7: the paper's shaft exchange through Schooner, plain and over the
/// batched link transport, and through the PVM-flavoured `mplite`.
fn rpc_vs_mp() -> Res {
    const CALLS: u32 = 20;
    let args = [
        Value::floats(&[1.25e7, 0.0, 0.0, 0.0]),
        Value::Integer(1),
        Value::floats(&[1.26e7, 0.0, 0.0, 0.0]),
        Value::Integer(1),
        Value::Float(0.99),
        Value::Float(10_000.0),
        Value::Float(9.0),
    ];
    let rpc = |sch: Schooner| -> Res<(u64, f64)> {
        sch.install_program(procs::SHAFT_PATH, procs::shaft_image(), &["lerc-rs6000"])?;
        let mut line = sch.open_line("rpc-shaft", "lerc-sparc10")?;
        line.start_remote(procs::SHAFT_PATH, "lerc-rs6000")?;
        let ms = per_call_ms(&mut line, "shaft", &args, CALLS)?;
        let bytes = line.stats().request_bytes / line.stats().calls;
        line.quit()?;
        Ok((bytes, ms))
    };
    let (rpc_bytes, plain_ms) = rpc(Schooner::standard()?)?;
    let (_, batched_ms) = rpc(batched_world()?)?;
    batching_is_free("A7", plain_ms, batched_ms)?;

    let mp = MpSystem::standard();
    let master = mp.register("lerc-sparc10")?;
    let worker = mp.spawn("lerc-rs6000", |ctx| {
        // A failed worker leaves the master's receive to time out.
        let _ = shaft_worker(&ctx);
    })?;
    let request = || {
        let mut pb = PackBuffer::new(master.arch());
        pb.pack_f32s(&[1.25e7, 0.0, 0.0, 0.0]).pack_int(1);
        pb.pack_f32s(&[1.26e7, 0.0, 0.0, 0.0]).pack_int(1);
        pb.pack_f32(0.99).pack_f32(10_000.0).pack_f32(9.0);
        pb.finish()
    };
    let mp_bytes = request().len();
    let exchange = || -> Res {
        master.send(worker, 1, request())?;
        let reply = master.recv(2, Duration::from_secs(10))?;
        UnpackBuffer::new(Architecture::IbmRs6000, reply.payload).unpack_f32()?;
        Ok(())
    };
    exchange()?;
    let t0 = master.now();
    for _ in 0..CALLS {
        exchange()?;
    }
    let mp_ms = (master.now() - t0) * 1e3 / f64::from(CALLS);
    master.send(worker, 1, PackBuffer::new(master.arch()).finish())?;
    mp.join_all();

    println!(
        "A7 RPC vs message passing: the shaft exchange (clock: virtual; bytes and counts exact)\n"
    );
    println!("{:<34} {:>10} {:>10}", "path", "request B", "ms/call");
    println!("{:<34} {rpc_bytes:>10} {plain_ms:>10.3}", "Schooner RPC (tagged IR)");
    println!("{:<34} {rpc_bytes:>10} {batched_ms:>10.3}", "Schooner RPC, batched link");
    println!("{:<34} {mp_bytes:>10} {mp_ms:>10.3}", "mplite (raw native, by hand)");
    let m = mp.metrics();
    println!(
        "\nmplite counters: mp.send {} messages / {} bytes, mp.recv {} messages / {} bytes",
        m.counter("mp.send.messages"),
        m.counter("mp.send.bytes"),
        m.counter("mp.recv.messages"),
        m.counter("mp.recv.bytes"),
    );
    Ok(())
}

/// A8: per-call cost against payload size on each network class, where
/// the latency floor gives way to the bandwidth slope.
fn payload_size() -> Res {
    const SIZES: [usize; 4] = [4, 64, 1024, 16384];
    const CLASSES: [(&str, &str); 3] = [
        ("lerc-sparc10", "lerc-sgi-4d480"),
        ("lerc-sparc10", "lerc-cray-ymp"),
        ("ua-sparc10", "lerc-rs6000"),
    ];
    // One fresh world per column, each running the sizes in the same
    // order, so the internet column and its batched twin share a history.
    // A cell is (virtual ms per call, request bytes per call).
    let column = |sch: Schooner, (from, to): (&str, &str)| -> Res<Vec<(f64, u64)>> {
        let mut cells = Vec::new();
        for len in SIZES {
            let path = format!("/ablation/payload{len}");
            sch.install_program(&path, payload_image(len)?, &[to])?;
            let mut line = sch.open_line(&format!("pl-{len}"), from)?;
            line.start_remote(&path, to)?;
            let ms = per_call_ms(&mut line, "blast", &[Value::floats(&vec![1.0f32; len])], 10)?;
            cells.push((ms, line.stats().request_bytes / line.stats().calls));
            line.quit()?;
        }
        Ok(cells)
    };
    let mut table = Vec::new();
    for class in CLASSES {
        table.push(column(Schooner::standard()?, class)?);
    }
    table.push(column(batched_world()?, CLASSES[2])?);

    println!("A8 latency vs bandwidth: virtual ms per call by payload size (clock: virtual)\n");
    println!(
        "{:<8} {:>8} {:>13} {:>13} {:>13} {:>19}",
        "elems", "bytes", "ethernet ms", "building ms", "internet ms", "internet batch ms"
    );
    for (i, len) in SIZES.iter().enumerate() {
        let ms = |c: usize| table[c][i].0;
        println!(
            "{len:<8} {:>8} {:>13.3} {:>13.3} {:>13.3} {:>19.3}",
            table[0][i].1,
            ms(0),
            ms(1),
            ms(2),
            ms(3)
        );
        batching_is_free(&format!("A8 at {len} elems"), ms(2), ms(3))?;
    }
    let ratio = |i: usize| table[2][i].0 / table[0][i].0;
    let last = SIZES.len() - 1;
    let (small, large) = (ratio(0), ratio(last));
    println!(
        "\ninternet/ethernet ratio: {small:.2}x at {} elems, {large:.2}x at {} elems",
        SIZES[0], SIZES[last]
    );
    if small <= large {
        return Err("A8: the bandwidth term must narrow the latency-floor ratio".into());
    }
    Ok(())
}
