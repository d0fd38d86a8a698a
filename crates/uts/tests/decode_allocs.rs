//! Decoding a Table-2 argument list allocates nothing.
//!
//! Every engine module of the paper's Table 2 passes its gas flow as an
//! `array[4] of float`, which fits inside its `Value`, beside scalar
//! floats. Decoded into a vector the caller keeps, such an argument list
//! costs no heap allocation at all; a 64-element array still costs one.
//! Comparing two equal arrays of records, as the AVS scheduler compares a
//! module's inputs with what it last saw, costs none either.
//!
//! The counter is per thread, so the test harness's own threads are not
//! counted beside the decodes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uts::{Architecture, MarshalPlan, Type, Value};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count() {
    // No destructor and a const initializer: never unavailable, never
    // allocating.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers every operation to `System` unchanged; the only
// addition is a thread-local counter that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of `n` decodes of `values` (`types`, sent from a SPARC)
/// on a Cray, into one kept vector, after one warm-up decode.
fn decode_allocs(types: &[Type], values: &[Value], n: u64) -> u64 {
    let plan = MarshalPlan::compile(types);
    let wire = plan.encode(values, Architecture::SunSparc10).unwrap();
    let mut out = Vec::new();
    plan.decode_into(wire.clone(), Architecture::CrayYmp, &mut out).unwrap();
    let before = allocs();
    for _ in 0..n {
        plan.decode_into(wire.clone(), Architecture::CrayYmp, &mut out).unwrap();
    }
    let spent = allocs() - before;
    assert_eq!(out, values);
    spent
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

#[test]
fn decoding_an_array_4_of_float_argument_list_allocates_nothing() {
    let flow = Type::Array { len: 4, elem: Box::new(Type::Float) };
    // The duct's inputs: flow, pressure-loss fraction, heat.
    let duct = [flow, Type::Float, Type::Float];
    let args = [Value::floats(&[102.0, 390.0, 2.9e5, 0.0]), Value::Float(0.02), Value::Float(0.0)];
    assert_eq!(decode_allocs(&duct, &args, 100), 0, "an array[4] of float argument list");

    let long = [Type::Array { len: 64, elem: Box::new(Type::Float) }];
    assert_eq!(decode_allocs(&long, &[Value::floats(&[0.5; 64])], 100), 100, "one per long array");

    let stations = || Value::Array((0..8).map(|i| station(i as f32)).collect());
    let (a, b) = (stations(), stations());
    let before = allocs();
    let equal = a == b;
    assert_eq!(allocs() - before, 0, "comparing two equal arrays of records");
    assert!(equal);
}
