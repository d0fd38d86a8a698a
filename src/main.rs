//! `npss-sim` — command-line front end to the reproduction.
//!
//! ```text
//! npss-sim testbed                      describe the simulated testbed
//! npss-sim table1 [SECONDS]             regenerate Table 1
//! npss-sim table2 [SECONDS]             regenerate Table 2
//! npss-sim fig1                         Figure 1 control-transfer trace
//! npss-sim ablations                    the design-choice ablation tables
//!                                       A1–A3 and A5–A8
//! npss-sim f100 [SECONDS] [slot=machine ...] [--parallel]
//!                                       run the F100 network, optionally
//!                                       placing adapted modules remotely;
//!                                       --parallel schedules each graph
//!                                       level as one wave of overlapped
//!                                       split-phase calls
//! npss-sim costs [--metrics] [--journal PATH] [--critical-path]
//!                                       per-machine-pair RPC costs with a
//!                                       span-derived phase breakdown;
//!                                       --journal also writes a durable
//!                                       journal ending in a metrics snapshot;
//!                                       --critical-path appends a wave view
//!                                       of overlapped split-phase calls
//! npss-sim replay PATH [--metrics] [--events] [--range A:B]
//!                                       inspect a durable journal: record
//!                                       summary, retained checkpoints, the
//!                                       journaled metrics, decoded events
//! npss-sim serve [--workers N] [--queue C] [--rate R] [--burst B]
//!                [--sessions S] [--tenants T]
//!                                       run S seeded sessions from T tenants
//!                                       through a live session pool with
//!                                       admission control
//! ```

use std::sync::Arc;

mod ablations;

use npss_sim::npss::experiments::{fig1, table1, table2};
use npss_sim::npss::f100::{F100Network, RemotePlacement};
use npss_sim::schooner::Schooner;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn usage() -> String {
    "usage: npss-sim <testbed|table1|table2|fig1|ablations|f100|costs|replay|serve> [args]\n\
     \n\
     testbed                 describe the simulated two-site testbed\n\
     table1 [SECONDS]        regenerate Table 1 (default 1.0 s transient)\n\
     table2 [SECONDS]        regenerate Table 2 (default 1.0 s transient)\n\
     fig1                    Figure 1 control-transfer trace\n\
     ablations               the design-choice ablation tables A1-A3, A5-A8\n\
     f100 [SECONDS] [slot=machine ...] [--parallel]\n\
     \u{20}                        run the F100 network; --parallel overlaps\n\
     \u{20}                        each graph level's calls (same results);\n\
     \u{20}                        SECONDS, here and above, is in (0, 5]\n\
     costs [--metrics] [--journal PATH] [--critical-path]\n\
     \u{20}                        per-machine-pair RPC cost table with phase\n\
     \u{20}                        breakdown; --metrics appends the JSON snapshot,\n\
     \u{20}                        --journal writes a durable journal of the run,\n\
     \u{20}                        --critical-path appends the overlap-wave view\n\
     \u{20}                        of the Figure 1 program run both ways\n\
     replay PATH [--metrics] [--events] [--range A:B]\n\
     \u{20}                        inspect a durable journal after the world is\n\
     \u{20}                        gone: summary, checkpoints, metrics, events\n\
     serve [--workers N] [--queue C] [--rate R] [--burst B] [--sessions S] [--tenants T]\n\
     \u{20}                        run seeded sessions through a live multi-\n\
     \u{20}                        tenant pool: per-tenant token buckets, a\n\
     \u{20}                        bounded queue, typed rejections, and the\n\
     \u{20}                        pool's own metrics snapshot"
        .to_owned()
}

fn world() -> Result<Arc<Schooner>, String> {
    Ok(Arc::new(Schooner::standard().map_err(|e| e.to_string())?))
}

/// The optional transient length: 1 s when absent, otherwise a number in
/// the system module's "transient seconds" range, 0 < SECONDS <= 5.
fn parse_seconds(args: &[String]) -> Result<f64, String> {
    match args {
        [] => Ok(1.0),
        [arg] => match arg.parse::<f64>() {
            Ok(s) if s > 0.0 && s <= 5.0 => Ok(s),
            _ => Err(format!("SECONDS must be a number with 0 < SECONDS <= 5, got '{arg}'")),
        },
        [_, extra, ..] => Err(format!("unexpected argument '{extra}'")),
    }
}

/// Refuses the first argument that is neither one of `switches` nor one
/// of `valued`, each of which takes the argument after it.
fn only(args: &[String], switches: &[&str], valued: &[&str]) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if valued.contains(&a.as_str()) {
            args.next();
        } else if !switches.contains(&a.as_str()) {
            return Err(format!("unexpected argument '{a}'"));
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "testbed" => {
            only(rest, &[], &[])?;
            cmd_testbed()
        }
        "table1" => cmd_table1(parse_seconds(rest)?),
        "table2" => cmd_table2(parse_seconds(rest)?),
        "fig1" => {
            only(rest, &[], &[])?;
            cmd_fig1()
        }
        "ablations" => {
            only(rest, &[], &[])?;
            ablations::print_all()
        }
        "f100" => cmd_f100(rest),
        "costs" => cmd_costs(rest),
        "replay" => cmd_replay(rest),
        "serve" => cmd_serve(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn cmd_testbed() -> Result<(), String> {
    let sch = world()?;
    let ctx = sch.ctx();
    println!("The simulated NPSS testbed (NASA Lewis Research Center + U. of Arizona)\n");
    println!("{:<16} {:<14} {:<12} {:>10}", "host", "machine", "arch", "MFLOP/s");
    for host in ctx.park.hosts() {
        let m = ctx.park.machine(host).expect("listed host");
        println!(
            "{:<16} {:<14} {:<12} {:>10.0}",
            host,
            m.description,
            m.arch.to_string(),
            m.speed_mflops
        );
    }
    println!("\nnetwork classes between example pairs:");
    for (a, b) in [
        ("lerc-sparc10", "lerc-sgi-4d480"),
        ("lerc-sparc10", "lerc-cray-ymp"),
        ("ua-sparc10", "lerc-rs6000"),
    ] {
        let class = npss_sim::npss::experiments::network_class(&sch, a, b);
        let t = ctx.net.transfer_seconds(a, b, 256).map_err(|e| e.to_string())?;
        println!("  {a:<16} <-> {b:<16} {class:<34} ({:.2} ms / 256 B)", t * 1e3);
    }
    Ok(())
}

fn cmd_table1(seconds: f64) -> Result<(), String> {
    let sch = world()?;
    let cfg = table1::Table1Config { t_end: seconds, dt: 0.02, method: "Modified Euler".into() };
    println!("Table 1 (steady balance + {seconds} s transient):\n");
    let rows = table1::run_table1(&sch, &cfg)?;
    println!("{}", table1::render_table1(&rows));
    Ok(())
}

fn cmd_table2(seconds: f64) -> Result<(), String> {
    let sch = world()?;
    let report = table2::run_table2(&sch, &table2::Table2Config { t_end: seconds, dt: 0.02 })?;
    println!("{}", table2::render_table2(&report));
    Ok(())
}

fn cmd_fig1() -> Result<(), String> {
    let sch = world()?;
    println!("{}", fig1::run_fig1_program(&sch)?);
    Ok(())
}

fn cmd_costs(args: &[String]) -> Result<(), String> {
    only(args, &["--metrics", "--critical-path"], &["--journal"])?;
    let dump_metrics = args.iter().any(|a| a == "--metrics");
    let dump_critical = args.iter().any(|a| a == "--critical-path");
    let journal_path = args
        .iter()
        .position(|a| a == "--journal")
        .map(|i| args.get(i + 1).cloned().ok_or("--journal requires a PATH".to_owned()))
        .transpose()?;
    let sch = world()?;
    if let Some(path) = &journal_path {
        sch.attach_journal(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    }
    let hosts: Vec<String> = sch.ctx().park.hosts().iter().map(|s| s.to_string()).collect();
    let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
    let costs = fig1::measure_pair_costs(&sch, &refs, 10)?;
    println!(
        "{:<16} {:<16} {:<34} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "caller",
        "callee",
        "network",
        "marshal",
        "transmit",
        "compute",
        "reply",
        "unmarsh",
        "ms/call"
    );
    for c in costs {
        println!(
            "{:<16} {:<16} {:<34} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            c.from,
            c.to,
            c.network,
            c.marshal_ms,
            c.transmit_ms,
            c.compute_ms,
            c.reply_ms,
            c.unmarshal_ms,
            c.per_call_ms
        );
    }
    if dump_critical {
        // A fresh span slate, then the Figure 1 program run sequentially
        // and overlapped, so the wave view shows exactly that program.
        sch.ctx().obs.clear_spans();
        let dc = fig1::measure_dataflow_overlap(&sch)?;
        let cp = npss_sim::schooner::critical_path(&sch.ctx().obs.completed_spans());
        println!("\ncritical-path view (Figure 1 program, overlapped call spans):");
        println!(
            "{:<5} {:>5} {:>10} {:>12}  critical call",
            "wave", "width", "start s", "makespan ms"
        );
        for (i, wave) in cp.waves.iter().enumerate() {
            let c = wave.critical();
            println!(
                "{:<5} {:>5} {:>10.4} {:>12.3}  {} {} -> {}",
                i + 1,
                wave.width(),
                wave.started_at,
                wave.makespan() * 1e3,
                c.proc,
                c.from_host,
                c.to_host
            );
        }
        println!(
            "\nserial {:.3} ms, critical path {:.3} ms, overlap speedup {:.2}x",
            cp.serial_s * 1e3,
            cp.critical_s * 1e3,
            cp.speedup()
        );
        println!(
            "sequential chain {:.3} ms vs issued-before-collect {:.3} ms \
             (span-derived {:.3} ms), speedup {:.2}x",
            dc.sequential_ms, dc.parallel_ms, dc.critical_path_ms, dc.speedup
        );
    }
    if dump_metrics {
        println!("\nmetrics snapshot:");
        print!("{}", sch.ctx().obs.metrics().snapshot_json());
    }
    if let Some(path) = &journal_path {
        // End the journal with the final metrics snapshot, so
        // `replay PATH --metrics` answers exactly what the live
        // registry held — even after this world is gone.
        let seq =
            sch.journal_metrics_snapshot().ok_or("journal vanished before the final snapshot")?;
        eprintln!("journal written: {path} (final metrics snapshot at seq {seq})");
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    use npss_sim::ledger::{RecordKind, Repository};

    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("usage: replay PATH [--metrics] [--events] [--range A:B]".to_owned());
    };
    only(&args[1..], &["--metrics", "--events"], &["--range"])?;
    let dump_metrics = args.iter().any(|a| a == "--metrics");
    let dump_events = args.iter().any(|a| a == "--events");
    let range = args
        .iter()
        .position(|a| a == "--range")
        .map(|i| -> Result<(u64, u64), String> {
            let spec = args.get(i + 1).ok_or("--range requires A:B")?;
            let (a, b) = spec.split_once(':').ok_or("--range wants A:B")?;
            Ok((
                a.parse().map_err(|_| format!("bad range start '{a}'"))?,
                b.parse().map_err(|_| format!("bad range end '{b}'"))?,
            ))
        })
        .transpose()?;

    let repo = Repository::open(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    println!("journal {path}");
    println!(
        "  {} records, sequence 1..={}, {} torn byte(s) discarded",
        repo.len(),
        repo.last_seq(),
        repo.torn_bytes()
    );
    let mut counts: Vec<_> = repo.counts_by_tag().into_iter().collect();
    counts.sort_by_key(|(tag, _)| *tag as u8);
    for (tag, n) in counts {
        println!("  {:<18} {n}", format!("{tag:?}"));
    }
    let retained = repo.retained_checkpoints();
    if !retained.is_empty() {
        println!("\nretained checkpoints (replayed through evictions):");
        for cp in retained {
            println!(
                "  seq {:>5}  line {}  {}  incarnation {}  {} bytes  t={:.3}",
                cp.seq,
                cp.line,
                cp.path,
                cp.incarnation,
                cp.state.len(),
                cp.taken_at
            );
        }
    }
    if dump_metrics {
        match repo.metrics_as_of(range.map_or(u64::MAX, |(_, b)| b)) {
            Some((seq, json)) => {
                println!("\nmetrics snapshot (journaled at seq {seq}):");
                print!("{json}");
            }
            None => println!("\nno metrics snapshot in the journal"),
        }
    }
    if dump_events {
        println!("\nevents:");
        let (from, to) = range.unwrap_or((0, u64::MAX));
        for rec in repo.records().iter().filter(|r| r.seq >= from && r.seq <= to) {
            if let RecordKind::Event { payload } = &rec.kind {
                match npss_sim::schooner::obs::codec::decode_event(payload) {
                    Ok(kind) => println!("  [{:>10.6}] seq {:>5}  {kind}", rec.t, rec.seq),
                    Err(e) => {
                        println!("  [{:>10.6}] seq {:>5}  <undecodable: {e}>", rec.t, rec.seq)
                    }
                }
            }
        }
    }
    Ok(())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .ok_or(format!("{flag} requires a value"))?
            .parse()
            .map_err(|_| format!("cannot parse value for {flag}")),
        None => Ok(default),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use npss_sim::npss::service::SessionReport;
    use npss_sim::npss::service::{run_session, SessionRequest, Workload};
    use npss_sim::schooner::pool::{PoolConfig, SessionPool};

    only(args, &[], &["--workers", "--queue", "--rate", "--burst", "--sessions", "--tenants"])?;
    let workers: usize = parse_flag(args, "--workers", 4)?;
    let queue: usize = parse_flag(args, "--queue", 8)?;
    let rate: f64 = parse_flag(args, "--rate", 2.0)?;
    let burst: f64 = parse_flag(args, "--burst", 4.0)?;
    let sessions: usize = parse_flag(args, "--sessions", 12)?;
    let tenants: usize = parse_flag(args, "--tenants", 3)?;
    if tenants == 0 {
        return Err("--tenants must be at least 1".to_owned());
    }

    println!(
        "session pool: {workers} workers, queue {queue}, {rate}/s per tenant (burst {burst})\n"
    );
    let pool: SessionPool<Result<SessionReport, String>> = SessionPool::start(PoolConfig {
        workers,
        queue_capacity: queue,
        tenant_rate: rate,
        tenant_burst: burst,
    })
    .map_err(|e| e.to_string())?;

    let mut tickets = Vec::new();
    let mut rejections = 0usize;
    for i in 0..sessions {
        let tenant = format!("tenant-{}", i % tenants);
        let seed = 0xC0FF_EE00 + i as u64;
        let workload = if i % 3 == 2 {
            Workload::Transient { t_end: 0.2, dt: 0.02 }
        } else {
            Workload::SteadyState { wf_frac: 0.95 }
        };
        let req = SessionRequest::new(&tenant, seed, workload);
        match pool.submit(&tenant, move || run_session(&req)) {
            Ok(t) => tickets.push((tenant, seed, t)),
            Err(r) => {
                rejections += 1;
                println!("  {tenant} seed {seed:#010x}  REJECTED: {r}");
            }
        }
    }
    for (tenant, seed, ticket) in tickets {
        let report = ticket.wait().map_err(|e| e.to_string())??;
        println!(
            "  {tenant} seed {seed:#010x}  digest {:016x}  virtual cost {:>8.3} s  \
             ({} transcript line(s))",
            report.digest,
            report.virtual_cost_s(),
            report.transcript.len()
        );
    }
    println!("\n{rejections} rejection(s) at the front door");
    println!("\npool metrics:");
    print!("{}", pool.metrics().snapshot_json());
    Ok(())
}

fn cmd_f100(args: &[String]) -> Result<(), String> {
    let mut seconds = 1.0;
    let mut parallel = false;
    let mut placement = RemotePlacement::all_local();
    for a in args {
        if a == "--parallel" {
            parallel = true;
        } else if a.parse::<f64>().is_ok() {
            seconds = parse_seconds(std::slice::from_ref(a))?;
        } else if let Some((slot, machine)) = a.split_once('=') {
            placement = placement.with(slot, machine);
        } else {
            return Err(format!(
                "cannot parse argument '{a}' (want SECONDS, slot=machine, or --parallel)"
            ));
        }
    }

    let sch = world()?;
    let mut net = F100Network::build(sch.clone(), "ua-sparc10")?;
    net.apply_placement(&placement)?;
    if parallel {
        net.set_scheduling("wave-parallel")?;
        println!("scheduling: wave-parallel ({:?})\n", net.wave_plan()?.waves);
    }
    if !placement.entries.is_empty() {
        println!("placements:");
        for (slot, machine) in &placement.entries {
            println!("  {slot} -> {machine}");
        }
        println!();
    }
    let result = net.run("Modified Euler", seconds, 0.02)?;
    println!(
        "{:>6} {:>10} {:>10} {:>11} {:>9}",
        "t (s)", "N1 (RPM)", "N2 (RPM)", "thrust kN", "T4 (K)"
    );
    let step = (result.samples.len() / 12).max(1);
    for s in result.samples.iter().step_by(step) {
        println!(
            "{:>6.2} {:>10.1} {:>10.1} {:>11.2} {:>9.1}",
            s.t,
            s.n1,
            s.n2,
            s.thrust / 1e3,
            s.t4
        );
    }
    println!("\nremote computation report:");
    for row in net.report() {
        println!(
            "  {:<18} {:<16} {:>7} calls {:>12.3} sim s",
            row.module, row.location, row.calls, row.virtual_seconds
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::run;

    #[test]
    fn transient_seconds_outside_the_system_module_range_are_refused() {
        for cmd in ["table1", "table2", "f100"] {
            for bad in ["abc", "NaN", "inf", "0", "-1", "5.5"] {
                let err = run(&[cmd, bad].map(String::from)).unwrap_err();
                assert!(err.contains("SECONDS"), "{cmd} {bad}: {err}");
            }
        }
    }

    #[test]
    fn every_command_refuses_an_argument_it_does_not_take() {
        for (args, unknown) in [
            (&["testbed", "extra"][..], "extra"),
            (&["table1", "1.0", "bogus"], "bogus"),
            (&["table2", "1.0", "bogus"], "bogus"),
            (&["fig1", "bogus"], "bogus"),
            (&["ablations", "a1"], "a1"),
            (&["f100", "--paralel"], "--paralel"),
            (&["costs", "--metrcs"], "--metrcs"),
            (&["costs", "--journal", "j", "--critical"], "--critical"),
            (&["replay", "j", "--metrics", "--event"], "--event"),
            (&["serve", "--worker", "2"], "--worker"),
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let err = run(&args).unwrap_err();
            assert!(err.contains(&format!("'{unknown}'")), "{args:?}: {err}");
        }
    }

    #[test]
    fn serve_refuses_zero_tenants() {
        let args = ["serve", "--tenants", "0"].map(String::from);
        let err = run(&args).unwrap_err();
        assert!(err.contains("--tenants"), "unexpected error: {err}");
    }
}
