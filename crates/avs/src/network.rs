//! The Network Editor.
//!
//! Programs are created by dragging modules into a workspace and
//! connecting them into a dataflow graph; in NPSS the dataflow models the
//! flow of air through the engine. This editor is that workspace, minus
//! the pixels: modules are placed under unique instance names (an engine
//! may contain several `duct` or `shaft` instances), ports of equal kind
//! are wired together, widgets are poked, and modules can be removed —
//! which invokes their `destroy` entry point, where the NPSS modules
//! notify the Schooner Manager.
//!
//! Feedback edges (a shaft speed returning to the compressor that drives
//! it) are supported as **delayed** connections: they carry the value the
//! source produced on the *previous* scheduler iteration, so the graph of
//! immediate connections stays acyclic and schedulable.

use std::collections::HashMap;

use uts::Value;

use crate::module::{AvsModule, ModuleSpec};
use crate::widget::{Widget, WidgetInput};

/// Identifier of a placed module instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub usize);

/// A wire between an output port and an input port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Source module.
    pub from: ModuleId,
    /// Source output port.
    pub from_port: String,
    /// Destination module.
    pub to: ModuleId,
    /// Destination input port.
    pub to_port: String,
    /// Delayed connections deliver the previous iteration's value and are
    /// exempt from the acyclicity requirement.
    pub delayed: bool,
}

pub(crate) struct Instance {
    pub name: String,
    pub module: Box<dyn AvsModule>,
    pub spec: ModuleSpec,
    pub widgets: Vec<Widget>,
    pub outputs: HashMap<String, Value>,
    pub last_inputs: Option<HashMap<String, Value>>,
    /// Forced execution pending (fresh placement or widget change).
    pub dirty: bool,
    pub exec_count: u64,
}

/// The workspace of placed modules and their connections.
#[derive(Default)]
pub struct NetworkEditor {
    pub(crate) slots: Vec<Option<Instance>>,
    pub(crate) connections: Vec<Connection>,
}

impl NetworkEditor {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Place a module under a unique instance name.
    pub fn add_module(
        &mut self,
        instance_name: &str,
        module: Box<dyn AvsModule>,
    ) -> Result<ModuleId, String> {
        if self.find(instance_name).is_some() {
            return Err(format!("instance name '{instance_name}' already in use"));
        }
        let spec = module.spec();
        let widgets = spec.widgets.clone();
        let id = ModuleId(self.slots.len());
        self.slots.push(Some(Instance {
            name: instance_name.to_owned(),
            module,
            spec,
            widgets,
            outputs: HashMap::new(),
            last_inputs: None,
            dirty: true,
            exec_count: 0,
        }));
        Ok(id)
    }

    /// Remove every module (clearing the network).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut inst) = slot.take() {
                inst.module.destroy();
            }
        }
        self.connections.clear();
    }

    pub(crate) fn instance(&self, id: ModuleId) -> Result<&Instance, String> {
        self.slots.get(id.0).and_then(Option::as_ref).ok_or_else(|| format!("no module {id:?}"))
    }

    pub(crate) fn instance_mut(&mut self, id: ModuleId) -> Result<&mut Instance, String> {
        self.slots.get_mut(id.0).and_then(Option::as_mut).ok_or_else(|| format!("no module {id:?}"))
    }

    /// Look up a placed module by instance name.
    pub fn find(&self, instance_name: &str) -> Option<ModuleId> {
        self.slots.iter().enumerate().find_map(|(i, s)| {
            s.as_ref().filter(|inst| inst.name == instance_name).map(|_| ModuleId(i))
        })
    }

    /// All live module ids, in placement order.
    pub fn module_ids(&self) -> Vec<ModuleId> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|_| ModuleId(i))).collect()
    }

    /// Instance name of a module.
    pub fn name_of(&self, id: ModuleId) -> Option<&str> {
        self.slots.get(id.0)?.as_ref().map(|i| i.name.as_str())
    }

    /// Type name of a module.
    pub fn type_of(&self, id: ModuleId) -> Option<&str> {
        self.slots.get(id.0)?.as_ref().map(|i| i.spec.type_name.as_str())
    }

    /// How many times a module has executed.
    pub fn exec_count(&self, id: ModuleId) -> u64 {
        self.slots.get(id.0).and_then(Option::as_ref).map(|i| i.exec_count).unwrap_or(0)
    }

    /// Current value on an output port.
    pub fn output(&self, id: ModuleId, port: &str) -> Option<&Value> {
        self.slots.get(id.0)?.as_ref()?.outputs.get(port)
    }

    /// Wire an output to an input (immediate dataflow).
    pub fn connect(
        &mut self,
        from: ModuleId,
        from_port: &str,
        to: ModuleId,
        to_port: &str,
    ) -> Result<(), String> {
        self.connect_inner(from, from_port, to, to_port, false)
    }

    /// Wire an output to an input as a feedback (delayed) edge.
    pub fn connect_delayed(
        &mut self,
        from: ModuleId,
        from_port: &str,
        to: ModuleId,
        to_port: &str,
    ) -> Result<(), String> {
        self.connect_inner(from, from_port, to, to_port, true)
    }

    fn connect_inner(
        &mut self,
        from: ModuleId,
        from_port: &str,
        to: ModuleId,
        to_port: &str,
        delayed: bool,
    ) -> Result<(), String> {
        let from_kind = {
            let inst = self.instance(from)?;
            inst.spec
                .find_output(from_port)
                .ok_or_else(|| format!("'{}' has no output port '{from_port}'", inst.name))?
                .kind
                .clone()
        };
        {
            let inst = self.instance(to)?;
            let port = inst
                .spec
                .find_input(to_port)
                .ok_or_else(|| format!("'{}' has no input port '{to_port}'", inst.name))?;
            if port.kind != from_kind {
                return Err(format!(
                    "port kind mismatch: output '{from_port}' is '{from_kind}', input '{to_port}' is '{}'",
                    port.kind
                ));
            }
        }
        if self.connections.iter().any(|c| c.to == to && c.to_port == to_port) {
            return Err(format!(
                "input port '{to_port}' of '{}' is already connected",
                self.instance(to)?.name
            ));
        }
        let conn = Connection {
            from,
            from_port: from_port.to_owned(),
            to,
            to_port: to_port.to_owned(),
            delayed,
        };
        self.connections.push(conn);
        if !delayed && self.has_immediate_cycle() {
            self.connections.pop();
            return Err(format!(
                "connecting '{from_port}' to '{to_port}' would create a dataflow cycle \
                 (use a delayed connection for feedback)"
            ));
        }
        Ok(())
    }

    /// Cut one wire; returns whether it existed.
    pub fn disconnect(
        &mut self,
        from: ModuleId,
        from_port: &str,
        to: ModuleId,
        to_port: &str,
    ) -> bool {
        let before = self.connections.len();
        self.connections.retain(|c| {
            !(c.from == from && c.from_port == from_port && c.to == to && c.to_port == to_port)
        });
        before != self.connections.len()
    }

    /// All connections.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Set a widget on a module's control panel; marks the module for
    /// re-execution, as a widget change does in AVS.
    pub fn set_widget(
        &mut self,
        id: ModuleId,
        widget_name: &str,
        input: WidgetInput,
    ) -> Result<(), String> {
        let inst = self.instance_mut(id)?;
        let w = inst
            .widgets
            .iter_mut()
            .find(|w| w.name() == widget_name)
            .ok_or_else(|| format!("'{}' has no widget '{widget_name}'", inst.name))?;
        w.apply(&input)?;
        inst.dirty = true;
        Ok(())
    }

    /// Read a widget's current state.
    pub fn widget(&self, id: ModuleId, widget_name: &str) -> Option<&Widget> {
        self.slots.get(id.0)?.as_ref()?.widgets.iter().find(|w| w.name() == widget_name)
    }

    /// The control panel (all widgets) of a module.
    pub fn control_panel(&self, id: ModuleId) -> Option<&[Widget]> {
        self.slots.get(id.0)?.as_ref().map(|i| i.widgets.as_slice())
    }

    /// True when the immediate (non-delayed) connection graph has a cycle.
    fn has_immediate_cycle(&self) -> bool {
        self.topo_order_immediate().is_none()
    }

    /// Deterministic execution waves over the immediate (non-delayed)
    /// connection graph: level 0 holds every module with no immediate
    /// predecessor, and each later level holds the modules whose deepest
    /// immediate predecessor sits one level earlier (ASAP leveling).
    /// Delayed connections carry the previous iteration's value, so they
    /// break cycles exactly as they do for scheduling; modules of
    /// disconnected subgraphs level independently from 0. Within a level
    /// the order is ascending [`ModuleId`] — stable across calls, so two
    /// identically built networks produce identical waves. Returns `None`
    /// when the immediate graph is cyclic (unreachable through the public
    /// API, which rejects such connections).
    pub fn levels(&self) -> Option<Vec<Vec<ModuleId>>> {
        let ids = self.module_ids();
        let mut indegree: HashMap<ModuleId, usize> = ids.iter().map(|&i| (i, 0)).collect();
        for c in &self.connections {
            if !c.delayed {
                if let Some(d) = indegree.get_mut(&c.to) {
                    *d += 1;
                }
            }
        }
        let mut level: HashMap<ModuleId, usize> =
            ids.iter().filter(|i| indegree[i] == 0).map(|&i| (i, 0)).collect();
        let mut frontier: Vec<ModuleId> = level.keys().copied().collect();
        frontier.sort();
        let mut seen = frontier.len();
        while let Some(id) = frontier.pop() {
            let next = level[&id] + 1;
            for c in &self.connections {
                if !c.delayed && c.from == id {
                    let entry = level.entry(c.to).or_insert(0);
                    *entry = (*entry).max(next);
                    let d = indegree.get_mut(&c.to).expect("live module");
                    *d -= 1;
                    if *d == 0 {
                        frontier.push(c.to);
                        frontier.sort();
                        seen += 1;
                    }
                }
            }
        }
        if seen != ids.len() {
            return None; // immediate cycle: some indegree never reached 0
        }
        let depth = level.values().copied().max().map_or(0, |d| d + 1);
        let mut waves = vec![Vec::new(); depth];
        for id in ids {
            waves[level[&id]].push(id); // module_ids() is ascending already
        }
        Some(waves)
    }

    /// Whether `to` is reachable from `from` over immediate edges (true
    /// for `from == to`). Two modules neither of which reaches the other
    /// form an antichain: they may execute in the same wave.
    pub fn has_path(&self, from: ModuleId, to: ModuleId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut visited = vec![from];
        while let Some(id) = stack.pop() {
            for c in &self.connections {
                if !c.delayed && c.from == id && !visited.contains(&c.to) {
                    if c.to == to {
                        return true;
                    }
                    visited.push(c.to);
                    stack.push(c.to);
                }
            }
        }
        false
    }

    /// Topological order of live modules over immediate edges, or `None`
    /// when cyclic.
    pub(crate) fn topo_order_immediate(&self) -> Option<Vec<ModuleId>> {
        let ids = self.module_ids();
        let mut indegree: HashMap<ModuleId, usize> = ids.iter().map(|&i| (i, 0)).collect();
        for c in &self.connections {
            if !c.delayed {
                if let Some(d) = indegree.get_mut(&c.to) {
                    *d += 1;
                }
            }
        }
        let mut ready: Vec<ModuleId> = ids.iter().copied().filter(|i| indegree[i] == 0).collect();
        ready.sort();
        let mut order = Vec::with_capacity(ids.len());
        while let Some(id) = ready.pop() {
            order.push(id);
            for c in &self.connections {
                if !c.delayed && c.from == id {
                    let d = indegree.get_mut(&c.to).expect("live module");
                    *d -= 1;
                    if *d == 0 {
                        ready.push(c.to);
                        ready.sort();
                    }
                }
            }
        }
        (order.len() == ids.len()).then_some(order)
    }

    /// Render the network as text: one line per module with its incoming
    /// wires — the headless stand-in for the Network Editor's picture.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for id in self.module_ids() {
            let inst = self.instance(id).expect("live");
            out.push_str(&format!("[{}] ({})\n", inst.name, inst.spec.type_name));
            for c in &self.connections {
                if c.to == id {
                    let src = self.name_of(c.from).unwrap_or("?");
                    let marker = if c.delayed { " (delayed)" } else { "" };
                    out.push_str(&format!("    {src}.{} -> {}{marker}\n", c.from_port, c.to_port));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{ComputeCtx, ModuleSpec};

    struct Pass;
    impl AvsModule for Pass {
        fn spec(&self) -> ModuleSpec {
            ModuleSpec::new("pass").input("in", "flow").output("out", "flow")
        }
        fn compute(&mut self, ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
            let v = ctx.require_input("in")?.clone();
            ctx.set_output("out", v);
            Ok(())
        }
    }

    struct Source;
    impl AvsModule for Source {
        fn spec(&self) -> ModuleSpec {
            ModuleSpec::new("source")
                .output("out", "flow")
                .widget(Widget::dial("level", 0.0, 10.0, 1.0))
        }
        fn compute(&mut self, ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
            let level = ctx.widget_number("level")?;
            ctx.set_output("out", Value::Double(level));
            Ok(())
        }
    }

    struct DropFlag(std::sync::Arc<std::sync::atomic::AtomicBool>);
    impl AvsModule for DropFlag {
        fn spec(&self) -> ModuleSpec {
            ModuleSpec::new("dropflag")
        }
        fn compute(&mut self, _ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
            Ok(())
        }
        fn destroy(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn placement_requires_unique_names() {
        let mut ed = NetworkEditor::new();
        ed.add_module("a", Box::new(Source)).unwrap();
        assert!(ed.add_module("a", Box::new(Source)).is_err());
        assert!(ed.add_module("b", Box::new(Source)).is_ok());
        assert_eq!(ed.module_ids().len(), 2);
    }

    #[test]
    fn connect_validates_ports_and_kinds() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let p = ed.add_module("p", Box::new(Pass)).unwrap();
        assert!(ed.connect(s, "nope", p, "in").is_err());
        assert!(ed.connect(s, "out", p, "nope").is_err());
        ed.connect(s, "out", p, "in").unwrap();
        // An input port accepts exactly one wire.
        let s2 = ed.add_module("s2", Box::new(Source)).unwrap();
        assert!(ed.connect(s2, "out", p, "in").is_err());
    }

    #[test]
    fn immediate_cycles_rejected_delayed_allowed() {
        let mut ed = NetworkEditor::new();
        let a = ed.add_module("a", Box::new(Pass)).unwrap();
        let b = ed.add_module("b", Box::new(Pass)).unwrap();
        ed.connect(a, "out", b, "in").unwrap();
        let err = ed.connect(b, "out", a, "in").unwrap_err();
        assert!(err.contains("cycle"), "{err}");
        ed.connect_delayed(b, "out", a, "in").unwrap();
        assert!(ed.topo_order_immediate().is_some());
    }

    #[test]
    fn clear_destroys_everything() {
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut ed = NetworkEditor::new();
        ed.add_module("d", Box::new(DropFlag(flag.clone()))).unwrap();
        ed.add_module("s", Box::new(Source)).unwrap();
        ed.clear();
        assert!(flag.load(std::sync::atomic::Ordering::SeqCst));
        assert!(ed.module_ids().is_empty());
        assert!(ed.connections().is_empty());
    }

    #[test]
    fn widget_updates_mark_dirty() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        ed.instance_mut(s).unwrap().dirty = false;
        ed.set_widget(s, "level", WidgetInput::Number(5.0)).unwrap();
        assert!(ed.instance(s).unwrap().dirty);
        assert_eq!(ed.widget(s, "level").unwrap().as_number(), Some(5.0));
        assert!(ed.set_widget(s, "ghost", WidgetInput::Number(1.0)).is_err());
    }

    #[test]
    fn disconnect_removes_only_that_wire() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let p1 = ed.add_module("p1", Box::new(Pass)).unwrap();
        let p2 = ed.add_module("p2", Box::new(Pass)).unwrap();
        ed.connect(s, "out", p1, "in").unwrap();
        ed.connect(s, "out", p2, "in").unwrap();
        assert!(ed.disconnect(s, "out", p1, "in"));
        assert!(!ed.disconnect(s, "out", p1, "in"));
        assert_eq!(ed.connections().len(), 1);
    }

    #[test]
    fn render_lists_modules_and_wires() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("inlet", Box::new(Source)).unwrap();
        let p = ed.add_module("fan", Box::new(Pass)).unwrap();
        ed.connect(s, "out", p, "in").unwrap();
        let txt = ed.render();
        assert!(txt.contains("[inlet]"), "{txt}");
        assert!(txt.contains("inlet.out -> in"), "{txt}");
    }

    /// Levels as instance names, for order-insensitive comparisons
    /// across editors whose `ModuleId`s differ.
    fn level_names(ed: &NetworkEditor) -> Vec<Vec<String>> {
        ed.levels()
            .expect("acyclic")
            .iter()
            .map(|wave| wave.iter().map(|&id| ed.name_of(id).unwrap().to_owned()).collect())
            .collect()
    }

    #[test]
    fn levels_of_chain_and_diamond() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let a = ed.add_module("a", Box::new(Pass)).unwrap();
        let b = ed.add_module("b", Box::new(Pass)).unwrap();
        ed.connect(s, "out", a, "in").unwrap();
        ed.connect(a, "out", b, "in").unwrap();
        assert_eq!(ed.levels().unwrap(), vec![vec![s], vec![a], vec![b]]);
        // Diamond: two parallel arms share a level (the parallelism the
        // wave scheduler exploits), join goes one deeper than the
        // deepest arm.
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let l = ed.add_module("l", Box::new(Pass)).unwrap();
        let r = ed.add_module("r", Box::new(Pass)).unwrap();
        ed.connect(s, "out", l, "in").unwrap();
        ed.connect(s, "out", r, "in").unwrap();
        assert_eq!(ed.levels().unwrap(), vec![vec![s], vec![l, r]]);
        assert!(ed.has_path(s, l));
        assert!(!ed.has_path(l, r), "arms of the diamond are an antichain");
        assert!(!ed.has_path(l, s), "reachability is directed");
    }

    #[test]
    fn levels_cycle_broken_only_by_delayed_edge() {
        let mut ed = NetworkEditor::new();
        let a = ed.add_module("a", Box::new(Pass)).unwrap();
        let b = ed.add_module("b", Box::new(Pass)).unwrap();
        ed.connect(a, "out", b, "in").unwrap();
        // The feedback edge must be delayed; levels then ignore it.
        ed.connect_delayed(b, "out", a, "in").unwrap();
        assert_eq!(ed.levels().unwrap(), vec![vec![a], vec![b]]);
        assert!(!ed.has_path(b, a), "delayed edges do not carry reachability");
    }

    #[test]
    fn levels_of_disconnected_subgraphs_start_at_zero() {
        let mut ed = NetworkEditor::new();
        let s1 = ed.add_module("s1", Box::new(Source)).unwrap();
        let p1 = ed.add_module("p1", Box::new(Pass)).unwrap();
        let s2 = ed.add_module("s2", Box::new(Source)).unwrap();
        let p2 = ed.add_module("p2", Box::new(Pass)).unwrap();
        let lone = ed.add_module("lone", Box::new(Source)).unwrap();
        ed.connect(s1, "out", p1, "in").unwrap();
        ed.connect(s2, "out", p2, "in").unwrap();
        let waves = ed.levels().unwrap();
        assert_eq!(waves, vec![vec![s1, s2, lone], vec![p1, p2]]);
        assert!(!ed.has_path(s1, p2), "islands do not reach each other");
    }

    #[test]
    fn immediate_self_connections_rejected() {
        let mut ed = NetworkEditor::new();
        let p = ed.add_module("p", Box::new(Pass)).unwrap();
        let err = ed.connect(p, "out", p, "in").unwrap_err();
        assert!(err.contains("cycle"), "{err}");
        assert!(ed.connections().is_empty());
        assert_eq!(ed.levels().unwrap(), vec![vec![p]]);
        // A delayed self-connection is legitimate feedback.
        ed.connect_delayed(p, "out", p, "in").unwrap();
        assert_eq!(ed.levels().unwrap(), vec![vec![p]]);
    }

    #[test]
    fn levels_stable_under_insert() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("s", Box::new(Source)).unwrap();
        let a = ed.add_module("a", Box::new(Pass)).unwrap();
        ed.connect(s, "out", a, "in").unwrap();
        let before = level_names(&ed);
        // Inserting a disconnected module leaves existing levels alone.
        ed.add_module("x", Box::new(Source)).unwrap();
        let with_x = level_names(&ed);
        assert_eq!(with_x[0], vec!["s", "x"]);
        assert_eq!(with_x[1], before[1]);
        // Wiring the newcomer in *behind* a module deepens only that arm.
        let y = ed.add_module("y", Box::new(Pass)).unwrap();
        ed.connect(a, "out", y, "in").unwrap();
        let with_y = level_names(&ed);
        assert_eq!(with_y[..2], with_x[..2]);
        assert_eq!(with_y[2], vec!["y"]);
    }

    #[test]
    fn levels_stable_across_library_save_restore() {
        use crate::library::{ModuleLibrary, NetworkDescription};

        let mut ed = NetworkEditor::new();
        let s = ed.add_module("src", Box::new(Source)).unwrap();
        let l = ed.add_module("left", Box::new(Pass)).unwrap();
        let r = ed.add_module("right", Box::new(Pass)).unwrap();
        ed.connect(s, "out", l, "in").unwrap();
        ed.connect(s, "out", r, "in").unwrap();
        ed.connect_delayed(l, "out", s, "in").unwrap_err(); // Source has no input
        let saved = NetworkDescription::capture(&ed);

        let mut lib = ModuleLibrary::new();
        lib.register("source", || Box::new(Source));
        lib.register("pass", || Box::new(Pass));

        // Restore twice — once into a fresh editor, once into an editor
        // whose ModuleIds are offset by earlier placements — and compare
        // levels by instance name: identical waves in identical order.
        let mut fresh = NetworkEditor::new();
        saved.restore(&lib, &mut fresh).unwrap();
        assert_eq!(level_names(&fresh), level_names(&ed));

        let mut offset = NetworkEditor::new();
        offset.add_module("pre-existing", Box::new(Source)).unwrap();
        offset.clear();
        saved.restore(&lib, &mut offset).unwrap();
        assert_eq!(level_names(&offset), level_names(&ed));
    }

    #[test]
    fn topo_order_is_a_valid_linearization() {
        let mut ed = NetworkEditor::new();
        let a = ed.add_module("a", Box::new(Source)).unwrap();
        let b = ed.add_module("b", Box::new(Pass)).unwrap();
        let c = ed.add_module("c", Box::new(Pass)).unwrap();
        ed.connect(a, "out", b, "in").unwrap();
        ed.connect(b, "out", c, "in").unwrap();
        let order = ed.topo_order_immediate().unwrap();
        let pos = |id: ModuleId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }
}
