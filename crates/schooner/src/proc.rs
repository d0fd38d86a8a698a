//! The procedure implementation model.
//!
//! A remote procedure is, to Schooner, something that can be called with
//! UTS values and returns UTS values, plus three optional capabilities:
//!
//! * a **work model** ([`Procedure::flops`]) — how much computation one
//!   call represents, which the process converts into virtual seconds on
//!   the machine it runs on;
//! * **migration state** ([`Procedure::get_state`] /
//!   [`Procedure::set_state`]) — the values of the state variables listed
//!   in the spec's `state(...)` clause, packaged through UTS when the
//!   procedure is moved (the paper's planned extension; stateless
//!   procedures simply return an empty list).
//!
//! Failures inside a procedure body are reported as a typed
//! [`ProcFault`]; the runtime carries the fault back to the caller, where
//! it surfaces as [`SchError::RemoteFault`](crate::SchError::RemoteFault).

use std::fmt;

use uts::Value;

/// A failure reported by a procedure implementation.
///
/// The distinction matters to retry logic: a procedure fault is the
/// *implementation* speaking, so the call reached the remote side and
/// must not be blindly retried — unlike transport-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcFault {
    /// The arguments were malformed for this procedure.
    BadArgument(String),
    /// The computation itself failed.
    Failed(String),
    /// Migration state could not be installed.
    BadState(String),
}

impl ProcFault {
    /// The human-readable message, without the variant prefix.
    pub fn message(&self) -> &str {
        match self {
            ProcFault::BadArgument(m) | ProcFault::Failed(m) | ProcFault::BadState(m) => m,
        }
    }
}

impl fmt::Display for ProcFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for ProcFault {}

impl From<String> for ProcFault {
    fn from(m: String) -> Self {
        ProcFault::Failed(m)
    }
}

impl From<&str> for ProcFault {
    fn from(m: &str) -> Self {
        ProcFault::Failed(m.to_owned())
    }
}

/// Result alias for procedure bodies.
pub type ProcResult<T> = Result<T, ProcFault>;

/// A callable procedure body.
///
/// `call` receives the **input** parameters (`val` and `var`) in spec
/// order and writes the **output** parameters (`res` and `var`) in spec
/// order into `out`. Failures are reported as a [`ProcFault`] — they
/// travel back to the caller as a remote fault.
pub trait Procedure: Send {
    /// Execute one call, appending its outputs to `out`.
    ///
    /// `out` belongs to the caller, which keeps it across calls the way
    /// a process keeps its argument vector: it is empty on entry, and the
    /// caller clears it once the outputs are used (a process, once the
    /// reply is marshaled), so a steady stream of calls reuses one
    /// allocation and no value outlives its call. On a fault, whatever
    /// was appended is discarded.
    fn call(&mut self, args: &[Value], out: &mut Vec<Value>) -> ProcResult<()>;

    /// Estimated floating-point operations for one call with these
    /// arguments. Drives the virtual-time compute cost.
    fn flops(&self, _args: &[Value]) -> f64 {
        50_000.0
    }

    /// Values of the migration state variables, in `state(...)` order.
    fn get_state(&self) -> Vec<Value> {
        Vec::new()
    }

    /// Install migration state captured by [`Procedure::get_state`] on a
    /// previous instance.
    fn set_state(&mut self, _state: Vec<Value>) -> ProcResult<()> {
        if _state.is_empty() {
            Ok(())
        } else {
            Err(ProcFault::BadState("procedure is stateless but state was supplied".into()))
        }
    }
}

/// A stateless procedure from a plain function or closure.
///
/// The closure returns its outputs as any `IntoIterator<Item = Value>`:
/// a `Vec`, or a stack array such as `[Value::Float(x)]`, which reaches
/// the caller's output vector without allocating.
pub struct FnProcedure<F> {
    f: F,
    flops: f64,
}

impl<F, R> FnProcedure<F>
where
    F: FnMut(&[Value]) -> ProcResult<R> + Send,
    R: IntoIterator<Item = Value>,
{
    /// Wrap a closure with the default work model.
    pub fn new(f: F) -> Self {
        Self { f, flops: 50_000.0 }
    }

    /// Wrap a closure with an explicit per-call flop count.
    pub fn with_flops(f: F, flops: f64) -> Self {
        Self { f, flops }
    }
}

impl<F, R> Procedure for FnProcedure<F>
where
    F: FnMut(&[Value]) -> ProcResult<R> + Send,
    R: IntoIterator<Item = Value>,
{
    fn call(&mut self, args: &[Value], out: &mut Vec<Value>) -> ProcResult<()> {
        out.extend((self.f)(args)?);
        Ok(())
    }

    fn flops(&self, _args: &[Value]) -> f64 {
        self.flops
    }
}

/// A stateful procedure built from a state value plus a step closure;
/// `get_state`/`set_state` expose the state through a pair of conversion
/// closures so migration works without hand-writing a `Procedure` impl.
/// The step closure returns its outputs as any `IntoIterator<Item =
/// Value>`, as [`FnProcedure`]'s does.
pub struct StatefulProcedure<S, F, G, H> {
    state: S,
    step: F,
    to_values: G,
    from_values: H,
    flops: f64,
}

impl<S, F, G, H, R> StatefulProcedure<S, F, G, H>
where
    S: Send,
    F: FnMut(&mut S, &[Value]) -> ProcResult<R> + Send,
    R: IntoIterator<Item = Value>,
    G: Fn(&S) -> Vec<Value> + Send,
    H: Fn(Vec<Value>) -> ProcResult<S> + Send,
{
    /// Build a stateful procedure.
    pub fn new(state: S, step: F, to_values: G, from_values: H) -> Self {
        Self { state, step, to_values, from_values, flops: 50_000.0 }
    }

    /// Set the per-call flop count.
    pub fn with_flops(mut self, flops: f64) -> Self {
        self.flops = flops;
        self
    }
}

impl<S, F, G, H, R> Procedure for StatefulProcedure<S, F, G, H>
where
    S: Send,
    F: FnMut(&mut S, &[Value]) -> ProcResult<R> + Send,
    R: IntoIterator<Item = Value>,
    G: Fn(&S) -> Vec<Value> + Send,
    H: Fn(Vec<Value>) -> ProcResult<S> + Send,
{
    fn call(&mut self, args: &[Value], out: &mut Vec<Value>) -> ProcResult<()> {
        out.extend((self.step)(&mut self.state, args)?);
        Ok(())
    }

    fn flops(&self, _args: &[Value]) -> f64 {
        self.flops
    }

    fn get_state(&self) -> Vec<Value> {
        (self.to_values)(&self.state)
    }

    fn set_state(&mut self, state: Vec<Value>) -> ProcResult<()> {
        self.state =
            (self.from_values)(state).map_err(|f| ProcFault::BadState(f.message().to_owned()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(p: &mut impl Procedure, args: &[Value]) -> ProcResult<Vec<Value>> {
        let mut out = Vec::new();
        p.call(args, &mut out)?;
        Ok(out)
    }

    #[test]
    fn fn_procedure_calls_through() {
        let mut p = FnProcedure::new(|args: &[Value]| {
            let x = args[0].as_f64().ok_or("not numeric")?;
            Ok(vec![Value::Double(x * 2.0)])
        });
        let out = call(&mut p, &[Value::Double(21.0)]).unwrap();
        assert_eq!(out, vec![Value::Double(42.0)]);
        assert_eq!(p.flops(&[]), 50_000.0);
        assert!(p.get_state().is_empty());
        assert!(p.set_state(vec![]).is_ok());
        assert!(matches!(p.set_state(vec![Value::Integer(1)]), Err(ProcFault::BadState(_))));
    }

    /// A closure may return a stack array; its outputs are appended to
    /// the caller's vector, which keeps its allocation across calls.
    #[test]
    fn fn_procedure_returns_any_iterable_into_the_callers_vector() {
        let mut p = FnProcedure::new(|args: &[Value]| Ok([args[0].clone(), Value::Integer(1)]));
        let mut out = Vec::with_capacity(2);
        let buf = out.as_ptr();
        for x in [1.5, 2.5] {
            p.call(&[Value::Double(x)], &mut out).unwrap();
            assert_eq!(out, [Value::Double(x), Value::Integer(1)]);
            out.clear();
        }
        assert_eq!(out.as_ptr(), buf, "the caller's vector was reused");
    }

    #[test]
    fn fn_procedure_custom_flops() {
        let p = FnProcedure::with_flops(|_: &[Value]| Ok(vec![]), 1e6);
        assert_eq!(p.flops(&[]), 1e6);
    }

    #[test]
    fn fn_procedure_propagates_faults() {
        let mut p = FnProcedure::new(|_: &[Value]| ProcResult::<[Value; 0]>::Err("boom".into()));
        let fault = call(&mut p, &[]).unwrap_err();
        assert_eq!(fault, ProcFault::Failed("boom".into()));
        assert_eq!(fault.to_string(), "boom", "display is the bare message");
    }

    #[test]
    fn stateful_procedure_migrates_state() {
        let make = |initial: f64| {
            StatefulProcedure::new(
                initial,
                |acc: &mut f64, args: &[Value]| {
                    *acc += args[0].as_f64().ok_or("not numeric")?;
                    Ok(vec![Value::Double(*acc)])
                },
                |acc: &f64| vec![Value::Double(*acc)],
                |vals: Vec<Value>| {
                    vals.first().and_then(Value::as_f64).ok_or_else(|| "bad state".into())
                },
            )
        };
        let mut a = make(0.0);
        call(&mut a, &[Value::Double(1.0)]).unwrap();
        call(&mut a, &[Value::Double(2.0)]).unwrap();
        let snapshot = a.get_state();

        let mut b = make(0.0);
        b.set_state(snapshot).unwrap();
        let out = call(&mut b, &[Value::Double(4.0)]).unwrap();
        assert_eq!(out, vec![Value::Double(7.0)], "state carried across instances");
    }

    #[test]
    fn stateful_rejects_bad_state() {
        let mut p = StatefulProcedure::new(
            0.0f64,
            |_: &mut f64, _: &[Value]| Ok(vec![]),
            |acc: &f64| vec![Value::Double(*acc)],
            |vals: Vec<Value>| vals.first().and_then(Value::as_f64).ok_or_else(|| "bad".into()),
        );
        assert!(matches!(p.set_state(vec![]), Err(ProcFault::BadState(_))));
        assert!(p.set_state(vec![Value::String("x".into())]).is_err());
    }
}
