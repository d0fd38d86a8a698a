//! Ablation A4 — wire-format conversion cost per architecture pair, the
//! one ablation timed on the wall clock.
//!
//! The UTS library converts every argument through the sender's native
//! format, the intermediate representation, and the receiver's native
//! format. This bench times that round trip on bulk double arrays for
//! the same-format pair and for the Cray and VAX codecs, which do real
//! bit-field work: the reference tagged codec (wire v1, the test oracle
//! `crates/uts/tests/support/oracle.rs`, timed directly — the runtime
//! no longer reaches it) against the compiled marshal plan (wire v2) the
//! stubs run, plus the share of a standard Schooner world's call
//! payloads counted on the plan path. It asserts its floors and writes
//! `BENCH_marshal.json` at the repository root:
//!
//! ```sh
//! BENCH_QUICK=1 cargo bench --bench ablation_uts_convert   # CI smoke
//! ```

use std::time::Instant;

use bytes::Bytes;
use npss_sim::schooner::stub::CompiledStub;
use npss_sim::schooner::{FnProcedure, ProgramImage, Schooner};
use npss_sim::uts::{self, Architecture, Type, Value};

#[allow(dead_code)]
#[path = "../crates/uts/tests/support/oracle.rs"]
mod oracle;

use oracle::through_native;

/// A stub whose single input is `array[len] of double` — the payload
/// shape the speedup floor is set on.
fn burst_stub(len: usize) -> CompiledStub {
    let spec = format!(r#"export burst prog("xs" val array[{len}] of double)"#);
    let file = uts::parse_spec_file(&spec).unwrap();
    CompiledStub::compile(file.find("burst").unwrap())
}

/// Doubles exactly representable in every native format under test
/// (Cray 48-bit mantissa, VAX D), so v1 and v2 round-trip identically.
fn burst_args(len: usize) -> Vec<Value> {
    let xs: Vec<f64> = (0..len).map(|i| 1.0 + (i % 128) as f64 * 0.125).collect();
    vec![Value::doubles(&xs)]
}

/// The reference pipeline's marshal half: sender-native pass, then the
/// tagged wire encode.
fn reference_marshal(stub: &CompiledStub, args: &[Value], from: Architecture) -> Bytes {
    let native: Vec<Value> = args
        .iter()
        .zip(&stub.input_types)
        .map(|(v, ty)| through_native(v, ty, from).unwrap())
        .collect();
    oracle::encode_values(&native).unwrap()
}

/// The reference pipeline's unmarshal half: tagged wire decode, then the
/// receiver-native pass.
fn reference_unmarshal(stub: &CompiledStub, wire: Bytes, to: Architecture) -> Vec<Value> {
    let types: Vec<&Type> = stub.input_types.iter().collect();
    let decoded = oracle::decode_values(wire, &types).unwrap();
    decoded.iter().zip(&types).map(|(v, ty)| through_native(v, ty, to).unwrap()).collect()
}

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok()
}

/// Mean ns per element over `iters` runs of `f`.
fn time_per_elem(iters: usize, elems: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(10) {
        f(); // warm up
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / (iters * elems) as f64
}

struct Row {
    pair: &'static str,
    elems: usize,
    bytes_v1: usize,
    bytes_v2: usize,
    v1_ns: f64,
    v2_ns: f64,
}

/// Full round trip (marshal on `from`, unmarshal on `to`) per codec,
/// returning one comparison row.
fn compare(len: usize, from: Architecture, to: Architecture, pair: &'static str) -> Row {
    let stub = burst_stub(len);
    let args = burst_args(len);
    let iters = if quick() { 20 } else { 200 };

    let bytes_v1 = reference_marshal(&stub, &args, from).len();
    let bytes_v2 = stub.marshal_inputs(&args, from).unwrap().len();

    let v1_ns = time_per_elem(iters, len, || {
        let wire = reference_marshal(&stub, &args, from);
        reference_unmarshal(&stub, wire, to);
    });
    let v2_ns = time_per_elem(iters, len, || {
        let wire = stub.marshal_inputs(&args, from).unwrap();
        stub.unmarshal_inputs(wire, to).unwrap();
    });
    Row { pair, elems: len, bytes_v1, bytes_v2, v1_ns, v2_ns }
}

/// Drive a few calls through a standard world and report the share of
/// marshaled payloads (one request and one reply per call) that the
/// `uts.fast_path_hits` counter saw on the compiled-plan path.
fn hit_rate() -> f64 {
    const CALLS: u64 = 8;
    let image = ProgramImage::new(
        "payload",
        r#"export blast prog("xs" val array[256] of float, "ys" res array[256] of float)"#,
    )
    .unwrap()
    .with_procedure("blast", || {
        Box::new(FnProcedure::with_flops(|args: &[Value]| Ok(vec![args[0].clone()]), 10_000.0))
    })
    .unwrap();
    let sch = Schooner::standard().unwrap();
    sch.install_program("/bench/hits", image, &["lerc-sgi-4d480"]).unwrap();
    let mut line = sch.open_line("hits", "lerc-sparc10").unwrap();
    line.start_remote("/bench/hits", "lerc-sgi-4d480").unwrap();
    let xs = Value::floats(&vec![1.0f32; 256]);
    for _ in 0..CALLS {
        line.call("blast", std::slice::from_ref(&xs)).unwrap();
    }
    line.quit().unwrap();
    sch.ctx().obs.metrics().counter("uts.fast_path_hits") as f64 / (2 * CALLS) as f64
}

fn main() {
    println!("\n=== Compiled marshal plan (wire v2) vs reference tagged codec (wire v1) ===");
    println!("payload: array of double, exact-representable values; round trip\n");

    let sizes = [64usize, 512, 4096];
    let mut rows = Vec::new();
    for &len in &sizes {
        rows.push(compare(len, Architecture::SunSparc10, Architecture::Sgi4D, "ieee_be->ieee_be"));
    }
    rows.push(compare(4096, Architecture::SunSparc10, Architecture::IntelI860, "ieee_be->ieee_le"));
    rows.push(compare(4096, Architecture::SunSparc10, Architecture::CrayYmp, "ieee_be->cray"));
    rows.push(compare(4096, Architecture::SunSparc10, Architecture::ConvexC220, "ieee_be->vax"));

    println!(
        "{:<18} {:>6} {:>9} {:>9} {:>12} {:>12} {:>9}",
        "pair", "elems", "v1 bytes", "v2 bytes", "v1 ns/elem", "v2 ns/elem", "speedup"
    );
    for r in &rows {
        println!(
            "{:<18} {:>6} {:>9} {:>9} {:>12.1} {:>12.1} {:>8.1}x",
            r.pair,
            r.elems,
            r.bytes_v1,
            r.bytes_v2,
            r.v1_ns,
            r.v2_ns,
            r.v1_ns / r.v2_ns
        );
    }

    let v2_rate = hit_rate();
    println!("\nfast-path hit rate: {v2_rate:.2} (standard world)");

    // Acceptance criteria: >= 5x on the same-byte-order 4096-double
    // round trip, and the conversion pairs must not regress.
    let same = rows.iter().find(|r| r.pair == "ieee_be->ieee_be" && r.elems == 4096).unwrap();
    let same_speedup = same.v1_ns / same.v2_ns;
    assert!(
        same_speedup >= 5.0,
        "same-byte-order 4096-double speedup {same_speedup:.1}x is below the 5x floor"
    );
    for r in rows.iter().filter(|r| r.pair != "ieee_be->ieee_be") {
        assert!(
            r.v2_ns < r.v1_ns,
            "{}: v2 ({:.1} ns/elem) must beat v1 ({:.1} ns/elem)",
            r.pair,
            r.v2_ns,
            r.v1_ns
        );
    }
    assert!((v2_rate - 1.0).abs() < f64::EPSILON, "every payload must take the plan path");

    // Machine-readable record for the CI artifact.
    let mut json = String::from("{\n  \"bench\": \"marshal_plan_vs_legacy\",\n");
    json.push_str(&format!("  \"quick\": {},\n  \"rows\": [\n", quick()));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"pair\": \"{}\", \"elems\": {}, \"v1_bytes\": {}, \"v2_bytes\": {}, \
             \"v1_ns_per_elem\": {:.1}, \"v2_ns_per_elem\": {:.1}, \"speedup\": {:.2}}}{}\n",
            r.pair,
            r.elems,
            r.bytes_v1,
            r.bytes_v2,
            r.v1_ns,
            r.v2_ns,
            r.v1_ns / r.v2_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"fast_path_hit_rate\": {{\"negotiated\": {v2_rate:.2}}}\n}}\n"
    ));
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_marshal.json");
    std::fs::write(out, json).unwrap();
    println!("wrote {out}");
}
