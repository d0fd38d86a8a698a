//! Figure 1 — a Schooner program: cross-machine control transfer.
//!
//! Measures the wall-clock cost of one remote procedure call per network
//! class (LAN vs WAN pairs). The figure's trace and its simulated
//! per-pair costs are what `npss-sim fig1` and `npss-sim costs
//! --critical-path` print, pinned in `tests/golden/paper/`.

use criterion::{criterion_group, criterion_main, Criterion};

use uts::Value;

fn bench_fig1(c: &mut Criterion) {
    let sch = bench::world();
    sch.install_program("/bench/echo", bench::echo_image(), &["lerc-sgi-4d480", "ua-sparc10"])
        .unwrap();
    let mut group = c.benchmark_group("fig1_rpc");
    for (label, callee) in [("lan_echo", "lerc-sgi-4d480"), ("wan_echo", "ua-sparc10")] {
        let mut line = sch.open_line(&format!("bench-{label}"), "lerc-sparc10").unwrap();
        line.start_remote("/bench/echo", callee).unwrap();
        line.call("echo", &[Value::Double(0.0)]).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| line.call("echo", &[Value::Double(1.0)]).unwrap());
        });
        line.quit().unwrap();
    }
    group.finish();
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
