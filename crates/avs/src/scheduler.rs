//! The dataflow scheduler.
//!
//! AVS executes a module whenever its inputs or widget settings change.
//! The scheduler here does the same over the Network Editor's graph:
//!
//! * one [`Scheduler::step`] walks the modules in topological order
//!   (immediate edges only), delivering fresh upstream outputs downstream
//!   within the same pass and previous-iteration values across *delayed*
//!   (feedback) edges, and executes every module whose inputs differ from
//!   what it last saw — or that was explicitly marked (fresh placement,
//!   widget change, [`Scheduler::mark`]);
//! * [`Scheduler::settle`] iterates steps to a fixed point, which is how a
//!   network containing feedback converges.

use std::collections::HashMap;

use uts::Value;

use crate::module::ComputeCtx;
use crate::network::{Connection, ModuleId, NetworkEditor};

/// What one scheduling pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecReport {
    /// The pass number (monotonic per scheduler).
    pub iteration: u64,
    /// Instance names of the modules that executed, in execution order.
    pub executed: Vec<String>,
}

/// An error raised by a module's `compute`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleError {
    /// The failing module's instance name.
    pub module: String,
    /// Its error message.
    pub message: String,
}

impl std::fmt::Display for ModuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "module '{}' failed: {}", self.module, self.message)
    }
}

impl std::error::Error for ModuleError {}

/// Drives a [`NetworkEditor`].
#[derive(Debug, Default)]
pub struct Scheduler {
    iteration: u64,
}

/// What connection `c`, number `i`, delivers this pass: its source's
/// output now, or for a delayed edge, as the pass began.
fn delivered<'a>(
    editor: &'a NetworkEditor,
    delayed: &'a [(usize, Value)],
    (i, c): (usize, &Connection),
) -> Option<&'a Value> {
    if c.delayed {
        delayed.iter().find(|(j, _)| *j == i).map(|(_, v)| v)
    } else {
        editor.output(c.from, &c.from_port)
    }
}

/// The connections into module `id`, with their indices.
fn wires_into(editor: &NetworkEditor, id: ModuleId) -> impl Iterator<Item = (usize, &Connection)> {
    editor.connections().iter().enumerate().filter(move |(_, c)| c.to == id)
}

/// Whether the inputs module `id` would see this pass differ from `last`,
/// compared by reference. An input port takes at most one wire, so every
/// delivered value matching its `last` entry, and as many delivered as
/// `last` holds, is equality of the two sets.
fn inputs_changed(
    editor: &NetworkEditor,
    delayed: &[(usize, Value)],
    id: ModuleId,
    last: &HashMap<String, Value>,
) -> bool {
    let mut seen = 0;
    for (i, c) in wires_into(editor, id) {
        if let Some(v) = delivered(editor, delayed, (i, c)) {
            if last.get(&c.to_port) != Some(v) {
                return true;
            }
            seen += 1;
        }
    }
    seen != last.len()
}

/// The inputs module `id` sees this pass, cloned for its `compute`.
fn inputs_of(
    editor: &NetworkEditor,
    delayed: &[(usize, Value)],
    id: ModuleId,
) -> HashMap<String, Value> {
    wires_into(editor, id)
        .filter_map(|w| Some((w.1.to_port.clone(), delivered(editor, delayed, w)?.clone())))
        .collect()
}

impl Scheduler {
    /// A fresh scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Passes run so far.
    pub fn iterations(&self) -> u64 {
        self.iteration
    }

    /// Force a module to execute on the next pass.
    pub fn mark(&self, editor: &mut NetworkEditor, id: ModuleId) -> Result<(), String> {
        editor.instance_mut(id)?.dirty = true;
        Ok(())
    }

    /// Run one scheduling pass.
    pub fn step(&mut self, editor: &mut NetworkEditor) -> Result<ExecReport, ModuleError> {
        self.iteration += 1;
        let order =
            editor.topo_order_immediate().expect("editor enforces immediate-graph acyclicity");

        // Snapshot outputs for delayed edges, by connection index: they
        // see last iteration. A network without any allocates nothing.
        let delayed: Vec<(usize, Value)> = editor
            .connections()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.delayed)
            .filter_map(|(i, c)| Some((i, editor.output(c.from, &c.from_port)?.clone())))
            .collect();

        let mut executed = Vec::new();
        for id in order {
            // Compare what this module would see with what it last saw in
            // place; only a module that executes gets its inputs cloned.
            let inst = editor.instance(id).expect("live module");
            let needs_run = inst.dirty
                || match &inst.last_inputs {
                    Some(last) => inputs_changed(editor, &delayed, id, last),
                    None => true,
                };
            if !needs_run {
                continue;
            }
            let inputs = inputs_of(editor, &delayed, id);
            let inst = editor.instance_mut(id).expect("live module");
            let mut outputs = std::mem::take(&mut inst.outputs);
            let result = {
                let mut ctx = ComputeCtx {
                    inputs: &inputs,
                    widgets: &inst.widgets,
                    outputs: &mut outputs,
                    iteration: self.iteration,
                };
                inst.module.compute(&mut ctx)
            };
            inst.outputs = outputs;
            match result {
                Ok(()) => {
                    inst.dirty = false;
                    inst.last_inputs = Some(inputs);
                    inst.exec_count += 1;
                    executed.push(inst.name.clone());
                }
                Err(message) => {
                    return Err(ModuleError { module: inst.name.clone(), message });
                }
            }
        }
        Ok(ExecReport { iteration: self.iteration, executed })
    }

    /// Step until a pass executes nothing (fixed point), up to
    /// `max_passes`. Returns the number of passes that executed at least
    /// one module, or `Err` with the module failure.
    pub fn settle(
        &mut self,
        editor: &mut NetworkEditor,
        max_passes: usize,
    ) -> Result<usize, ModuleError> {
        let mut active = 0;
        for _ in 0..max_passes {
            let report = self.step(editor)?;
            if report.executed.is_empty() {
                return Ok(active);
            }
            active += 1;
        }
        Ok(active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{AvsModule, ModuleSpec};
    use crate::widget::{Widget, WidgetInput};

    struct Source;
    impl AvsModule for Source {
        fn spec(&self) -> ModuleSpec {
            ModuleSpec::new("source")
                .output("out", "flow")
                .widget(Widget::dial("level", 0.0, 100.0, 1.0))
        }
        fn compute(&mut self, ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
            let level = ctx.widget_number("level")?;
            ctx.set_output("out", Value::Double(level));
            Ok(())
        }
    }

    struct AddOne;
    impl AvsModule for AddOne {
        fn spec(&self) -> ModuleSpec {
            ModuleSpec::new("addone").input("in", "flow").output("out", "flow")
        }
        fn compute(&mut self, ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
            let x = ctx.require_input("in")?.as_f64().ok_or("not numeric")?;
            ctx.set_output("out", Value::Double(x + 1.0));
            Ok(())
        }
    }

    /// `out = (in + fb) / 2` with a delayed feedback of its own output —
    /// converges to `in`.
    struct Relax;
    impl AvsModule for Relax {
        fn spec(&self) -> ModuleSpec {
            ModuleSpec::new("relax").input("in", "flow").input("fb", "flow").output("out", "flow")
        }
        fn compute(&mut self, ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
            let x = ctx.require_input("in")?.as_f64().ok_or("nan")?;
            let fb = ctx.input("fb").and_then(Value::as_f64).unwrap_or(0.0);
            // Round to keep equality-based convergence detection exact.
            let next = ((x + fb) / 2.0 * 1e9).round() / 1e9;
            ctx.set_output("out", Value::Double(next));
            Ok(())
        }
    }

    /// `out = a + b` over whichever of its two inputs are delivered.
    struct Sum;
    impl AvsModule for Sum {
        fn spec(&self) -> ModuleSpec {
            ModuleSpec::new("sum").input("a", "flow").input("b", "flow").output("out", "flow")
        }
        fn compute(&mut self, ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
            let sum = ["a", "b"].iter().filter_map(|p| ctx.input(p)?.as_f64()).sum();
            ctx.set_output("out", Value::Double(sum));
            Ok(())
        }
    }

    /// An engine stage: every output carries an `array[4] of float` flow
    /// derived from the sum of its input flows.
    struct Stage {
        ins: &'static [&'static str],
        outs: &'static [&'static str],
    }
    impl AvsModule for Stage {
        fn spec(&self) -> ModuleSpec {
            let spec = self.ins.iter().fold(ModuleSpec::new("stage"), |s, p| s.input(p, "flow"));
            self.outs.iter().fold(spec, |s, p| s.output(p, "flow"))
        }
        fn compute(&mut self, ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
            let mut w = 1.0;
            for p in self.ins {
                w += ctx.require_input(p)?.as_floats().ok_or("not a flow")?.iter().sum::<f32>();
            }
            for p in self.outs {
                ctx.set_output(p, Value::floats(&[w, 2.0 * w, 300.0, 0.5]));
            }
            Ok(())
        }
    }

    struct Faulty;
    impl AvsModule for Faulty {
        fn spec(&self) -> ModuleSpec {
            ModuleSpec::new("faulty").input("in", "flow")
        }
        fn compute(&mut self, _ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
            Err("kaboom".into())
        }
    }

    #[test]
    fn first_pass_executes_everything_then_quiesces() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let a = ed.add_module("a", Box::new(AddOne)).unwrap();
        ed.connect(s, "out", a, "in").unwrap();
        let mut sched = Scheduler::new();
        let r = sched.step(&mut ed).unwrap();
        assert_eq!(r.executed, vec!["s".to_owned(), "a".to_owned()]);
        assert_eq!(ed.output(a, "out"), Some(&Value::Double(2.0)));
        // Nothing changed: second pass executes nothing.
        let r = sched.step(&mut ed).unwrap();
        assert!(r.executed.is_empty());
    }

    #[test]
    fn widget_change_reexecutes_downstream() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let a = ed.add_module("a", Box::new(AddOne)).unwrap();
        ed.connect(s, "out", a, "in").unwrap();
        let mut sched = Scheduler::new();
        sched.step(&mut ed).unwrap();
        ed.set_widget(s, "level", WidgetInput::Number(10.0)).unwrap();
        let r = sched.step(&mut ed).unwrap();
        assert_eq!(r.executed, vec!["s".to_owned(), "a".to_owned()]);
        assert_eq!(ed.output(a, "out"), Some(&Value::Double(11.0)));
    }

    #[test]
    fn unchanged_upstream_does_not_reexecute_downstream() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let a = ed.add_module("a", Box::new(AddOne)).unwrap();
        ed.connect(s, "out", a, "in").unwrap();
        let mut sched = Scheduler::new();
        sched.step(&mut ed).unwrap();
        // Re-set the widget to the same value: source runs (dirty), but
        // its output is unchanged so downstream stays quiet.
        ed.set_widget(s, "level", WidgetInput::Number(1.0)).unwrap();
        let r = sched.step(&mut ed).unwrap();
        assert_eq!(r.executed, vec!["s".to_owned()]);
    }

    #[test]
    fn feedback_relaxation_converges() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let r = ed.add_module("r", Box::new(Relax)).unwrap();
        ed.connect(s, "out", r, "in").unwrap();
        ed.connect_delayed(r, "out", r, "fb").unwrap();
        ed.set_widget(s, "level", WidgetInput::Number(8.0)).unwrap();
        let mut sched = Scheduler::new();
        let passes = sched.settle(&mut ed, 200).unwrap();
        assert!(passes > 3, "needs several iterations, took {passes}");
        let out = ed.output(r, "out").unwrap().as_f64().unwrap();
        assert!((out - 8.0).abs() < 1e-6, "converged to {out}");
    }

    #[test]
    fn module_error_names_the_module() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let f = ed.add_module("bad one", Box::new(Faulty)).unwrap();
        ed.connect(s, "out", f, "in").unwrap();
        let mut sched = Scheduler::new();
        let err = sched.step(&mut ed).unwrap_err();
        assert_eq!(err.module, "bad one");
        assert_eq!(err.message, "kaboom");
    }

    #[test]
    fn mark_forces_reexecution() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let mut sched = Scheduler::new();
        sched.step(&mut ed).unwrap();
        assert_eq!(ed.exec_count(s), 1);
        sched.mark(&mut ed, s).unwrap();
        sched.step(&mut ed).unwrap();
        assert_eq!(ed.exec_count(s), 2);
    }

    #[test]
    fn settle_runs_to_fixed_point_and_reports_active_passes() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let a = ed.add_module("a", Box::new(AddOne)).unwrap();
        ed.connect(s, "out", a, "in").unwrap();
        let mut sched = Scheduler::new();
        assert_eq!(sched.settle(&mut ed, 50).unwrap(), 1);
        assert_eq!(sched.settle(&mut ed, 50).unwrap(), 0);
    }

    #[test]
    fn a_disconnected_input_reexecutes_its_module() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let sum = ed.add_module("sum", Box::new(Sum)).unwrap();
        ed.connect(s, "out", sum, "a").unwrap();
        ed.connect(s, "out", sum, "b").unwrap();
        ed.set_widget(s, "level", WidgetInput::Number(3.0)).unwrap();
        let mut sched = Scheduler::new();
        sched.settle(&mut ed, 10).unwrap();
        assert_eq!(ed.output(sum, "out"), Some(&Value::Double(6.0)));
        // The input still wired is unchanged; the set shrank all the same.
        assert!(ed.disconnect(s, "out", sum, "b"));
        let r = sched.step(&mut ed).unwrap();
        assert_eq!(r.executed, vec!["sum".to_owned()]);
        assert_eq!(ed.output(sum, "out"), Some(&Value::Double(3.0)));
        assert!(sched.step(&mut ed).unwrap().executed.is_empty());
    }

    #[test]
    fn a_delayed_edge_whose_snapshot_changed_reexecutes_its_module() {
        let mut ed = NetworkEditor::new();
        // Placed first so that, with no immediate wire between them, the
        // pass visits the source before its consumer.
        let sum = ed.add_module("sum", Box::new(Sum)).unwrap();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        ed.connect_delayed(s, "out", sum, "a").unwrap();
        let mut sched = Scheduler::new();
        sched.settle(&mut ed, 10).unwrap();
        assert_eq!(ed.output(sum, "out"), Some(&Value::Double(1.0)));
        ed.set_widget(s, "level", WidgetInput::Number(5.0)).unwrap();
        // The source re-runs; the delayed edge still carries the value the
        // pass began with, so its consumer stays quiet until the next pass.
        assert_eq!(sched.step(&mut ed).unwrap().executed, vec!["s".to_owned()]);
        assert_eq!(sched.step(&mut ed).unwrap().executed, vec!["sum".to_owned()]);
        assert_eq!(ed.output(sum, "out"), Some(&Value::Double(5.0)));
        assert!(sched.step(&mut ed).unwrap().executed.is_empty());
    }

    /// The F100 network's wiring (fan-out at the splitter, fan-in at the
    /// mixing volume, shafts and the system reading several stages), with
    /// `array[4] of float` flows: once settled, a pass executes nothing.
    #[test]
    fn a_settled_f100_shaped_network_executes_nothing() {
        const IN: &[&str] = &["in"];
        const OUT: &[&str] = &["out"];
        let stages: [(&str, &'static [&'static str], &'static [&'static str]); 15] = [
            ("inlet", &[], OUT),
            ("lpc", IN, OUT),
            ("splitter", IN, &["bypass", "core"]),
            ("bypass duct", IN, OUT),
            ("hpc", IN, OUT),
            ("bleed", IN, OUT),
            ("combustor", IN, OUT),
            ("hpt", IN, OUT),
            ("lpt", IN, OUT),
            ("mixing volume", &["core", "bypass"], OUT),
            ("tailpipe duct", IN, OUT),
            ("nozzle", IN, OUT),
            ("low speed shaft", &["comp", "turb"], OUT),
            ("high speed shaft", &["comp", "turb"], OUT),
            ("system", &["in", "lpshaft", "hpshaft"], &["thrust"]),
        ];
        let wires = [
            ("inlet", "out", "lpc", "in"),
            ("lpc", "out", "splitter", "in"),
            ("splitter", "bypass", "bypass duct", "in"),
            ("splitter", "core", "hpc", "in"),
            ("hpc", "out", "bleed", "in"),
            ("bleed", "out", "combustor", "in"),
            ("combustor", "out", "hpt", "in"),
            ("hpt", "out", "lpt", "in"),
            ("lpt", "out", "mixing volume", "core"),
            ("bypass duct", "out", "mixing volume", "bypass"),
            ("mixing volume", "out", "tailpipe duct", "in"),
            ("tailpipe duct", "out", "nozzle", "in"),
            ("nozzle", "out", "system", "in"),
            ("lpc", "out", "low speed shaft", "comp"),
            ("lpt", "out", "low speed shaft", "turb"),
            ("hpc", "out", "high speed shaft", "comp"),
            ("hpt", "out", "high speed shaft", "turb"),
            ("low speed shaft", "out", "system", "lpshaft"),
            ("high speed shaft", "out", "system", "hpshaft"),
        ];
        let mut ed = NetworkEditor::new();
        for (name, ins, outs) in stages {
            ed.add_module(name, Box::new(Stage { ins, outs })).unwrap();
        }
        let id = |ed: &NetworkEditor, name| ed.find(name).unwrap();
        for (from, from_port, to, to_port) in wires {
            ed.connect(id(&ed, from), from_port, id(&ed, to), to_port).unwrap();
        }
        let mut sched = Scheduler::new();
        assert_eq!(sched.settle(&mut ed, 10).unwrap(), 1);
        let counts: Vec<u64> = ed.module_ids().into_iter().map(|m| ed.exec_count(m)).collect();
        assert_eq!(counts, vec![1; stages.len()]);
        assert!(sched.step(&mut ed).unwrap().executed.is_empty());
        assert_eq!(
            ed.module_ids().into_iter().map(|m| ed.exec_count(m)).collect::<Vec<_>>(),
            counts
        );

        // A forced re-run of the inlet reproduces its flow, so nothing
        // downstream runs either.
        let inlet = id(&ed, "inlet");
        sched.mark(&mut ed, inlet).unwrap();
        assert_eq!(sched.step(&mut ed).unwrap().executed, vec!["inlet".to_owned()]);
    }
}
