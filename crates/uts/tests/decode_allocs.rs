//! Decoding a Table-2 argument list allocates nothing.
//!
//! Every engine module of the paper's Table 2 passes its gas flow as an
//! `array[4] of float`, which fits inside its `Value`, beside scalar
//! floats. Decoded into a vector the caller keeps, such an argument list
//! costs no heap allocation at all; a 64-element array still costs one.
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use uts::{Architecture, MarshalPlan, Type, Value};

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

/// Allocations of `n` decodes of `values` (`types`, sent from a SPARC)
/// on a Cray, into one kept vector, after one warm-up decode.
fn decode_allocs(types: &[Type], values: &[Value], n: u64) -> u64 {
    let plan = MarshalPlan::compile(types);
    let wire = plan.encode(values, Architecture::SunSparc10).unwrap();
    let mut out = Vec::new();
    plan.decode_into(wire.clone(), Architecture::CrayYmp, &mut out).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..n {
        plan.decode_into(wire.clone(), Architecture::CrayYmp, &mut out).unwrap();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(out, values);
    allocs
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
}
