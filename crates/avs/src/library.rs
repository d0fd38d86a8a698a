//! Module libraries and saved networks.
//!
//! The Network Editor lets the user *save* a program and load it back.
//! A [`NetworkDescription`] captures the structure — module instances
//! (type, name, widget settings) and connections — as data; a
//! [`ModuleLibrary`] maps type names to factories so a description can be
//! re-instantiated, exactly as AVS rebuilds a network from its saved `.net`
//! file using the modules it has on hand.

use std::collections::HashMap;
use std::sync::Arc;

use crate::json::Json;
use crate::module::AvsModule;
use crate::network::{ModuleId, NetworkEditor};
use crate::widget::Widget;

type ModuleFactory = Arc<dyn Fn(&str) -> Box<dyn AvsModule> + Send + Sync>;

/// A registry of module types available for placement.
///
/// Factories receive the *instance name* being created, so module types
/// whose behaviour depends on their placement slot (like the NPSS adapted
/// modules) can rebuild themselves correctly from a saved network.
#[derive(Clone, Default)]
pub struct ModuleLibrary {
    factories: HashMap<String, ModuleFactory>,
}

impl ModuleLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a module type whose instances ignore their name.
    pub fn register(
        &mut self,
        type_name: &str,
        factory: impl Fn() -> Box<dyn AvsModule> + Send + Sync + 'static,
    ) {
        self.factories.insert(type_name.to_owned(), Arc::new(move |_| factory()));
    }

    /// Register a module type whose factory receives the instance name.
    pub fn register_named(
        &mut self,
        type_name: &str,
        factory: impl Fn(&str) -> Box<dyn AvsModule> + Send + Sync + 'static,
    ) {
        self.factories.insert(type_name.to_owned(), Arc::new(factory));
    }

    /// Instantiate a module of the given type for an instance name.
    pub fn instantiate(&self, type_name: &str) -> Option<Box<dyn AvsModule>> {
        self.instantiate_named(type_name, "")
    }

    /// Instantiate with an explicit instance name.
    pub(crate) fn instantiate_named(
        &self,
        type_name: &str,
        instance_name: &str,
    ) -> Option<Box<dyn AvsModule>> {
        self.factories.get(type_name).map(|f| f(instance_name))
    }

    /// Registered type names, sorted.
    pub fn type_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.factories.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

/// One saved module instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedModule {
    /// Instance name in the workspace.
    pub instance_name: String,
    /// Module type name (library key).
    pub type_name: String,
    /// Widget values at save time.
    pub widgets: Vec<Widget>,
}

/// One saved connection (by instance names, stable across reloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedConnection {
    /// Source instance name.
    pub from: String,
    /// Source port.
    pub from_port: String,
    /// Destination instance name.
    pub to: String,
    /// Destination port.
    pub to_port: String,
    /// Whether the wire is a delayed (feedback) edge.
    pub delayed: bool,
}

/// A saved network: what the Network Editor writes to disk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkDescription {
    /// Saved modules in placement order.
    pub modules: Vec<SavedModule>,
    /// Saved connections.
    pub connections: Vec<SavedConnection>,
}

impl NetworkDescription {
    /// Capture the structure of a live network.
    pub fn capture(editor: &NetworkEditor) -> Self {
        let modules = editor
            .module_ids()
            .into_iter()
            .map(|id| SavedModule {
                instance_name: editor.name_of(id).expect("live").to_owned(),
                type_name: editor.type_of(id).expect("live").to_owned(),
                widgets: editor.control_panel(id).expect("live").to_vec(),
            })
            .collect();
        let connections = editor
            .connections()
            .iter()
            .map(|c| SavedConnection {
                from: editor.name_of(c.from).expect("live").to_owned(),
                from_port: c.from_port.clone(),
                to: editor.name_of(c.to).expect("live").to_owned(),
                to_port: c.to_port.clone(),
                delayed: c.delayed,
            })
            .collect();
        Self { modules, connections }
    }

    /// Re-instantiate the saved network using `library`. Returns the map
    /// from instance names to new module ids.
    pub fn restore(
        &self,
        library: &ModuleLibrary,
        editor: &mut NetworkEditor,
    ) -> Result<HashMap<String, ModuleId>, String> {
        let mut ids = HashMap::new();
        for m in &self.modules {
            let module = library
                .instantiate_named(&m.type_name, &m.instance_name)
                .ok_or_else(|| format!("module type '{}' not in library", m.type_name))?;
            let id = editor.add_module(&m.instance_name, module)?;
            // Restore widget values: overwrite each saved widget by name.
            for w in &m.widgets {
                let inst = editor.instance_mut(id)?;
                if let Some(slot) = inst.widgets.iter_mut().find(|x| x.name() == w.name()) {
                    *slot = w.clone();
                }
            }
            ids.insert(m.instance_name.clone(), id);
        }
        for c in &self.connections {
            let from = *ids
                .get(&c.from)
                .ok_or_else(|| format!("saved connection from unknown module '{}'", c.from))?;
            let to = *ids
                .get(&c.to)
                .ok_or_else(|| format!("saved connection to unknown module '{}'", c.to))?;
            if c.delayed {
                editor.connect_delayed(from, &c.from_port, to, &c.to_port)?;
            } else {
                editor.connect(from, &c.from_port, to, &c.to_port)?;
            }
        }
        Ok(ids)
    }

    /// Serialize to the saved-file format (JSON).
    pub fn to_json(&self) -> String {
        let s = |s: &String| Json::Str(s.clone());
        let modules = self
            .modules
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("instance_name", s(&m.instance_name)),
                    ("type_name", s(&m.type_name)),
                    ("widgets", Json::Arr(m.widgets.iter().map(Widget::to_json).collect())),
                ])
            })
            .collect();
        let connections = self
            .connections
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("from", s(&c.from)),
                    ("from_port", s(&c.from_port)),
                    ("to", s(&c.to)),
                    ("to_port", s(&c.to_port)),
                    ("delayed", Json::Bool(c.delayed)),
                ])
            })
            .collect();
        Json::obj(vec![("modules", Json::Arr(modules)), ("connections", Json::Arr(connections))])
            .pretty()
    }

    /// Parse the saved-file format.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let bad = |e: String| format!("invalid network file: {e}");
        let doc = Json::parse(s).map_err(bad)?;
        let arr_of = |key: &str| -> Result<&[Json], String> {
            doc.need(key)
                .and_then(|v| v.as_arr().ok_or_else(|| format!("member '{key}' is not an array")))
                .map_err(bad)
        };
        let mut modules = Vec::new();
        for m in arr_of("modules")? {
            let widgets = m
                .need("widgets")
                .and_then(|w| w.as_arr().ok_or_else(|| "member 'widgets' is not an array".into()))
                .map_err(bad)?
                .iter()
                .map(Widget::from_json)
                .collect::<Result<Vec<_>, _>>()
                .map_err(bad)?;
            modules.push(SavedModule {
                instance_name: m.str_of("instance_name").map_err(bad)?,
                type_name: m.str_of("type_name").map_err(bad)?,
                widgets,
            });
        }
        let mut connections = Vec::new();
        for c in arr_of("connections")? {
            connections.push(SavedConnection {
                from: c.str_of("from").map_err(bad)?,
                from_port: c.str_of("from_port").map_err(bad)?,
                to: c.str_of("to").map_err(bad)?,
                to_port: c.str_of("to_port").map_err(bad)?,
                delayed: c.bool_of("delayed").map_err(bad)?,
            });
        }
        Ok(Self { modules, connections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{ComputeCtx, ModuleSpec};
    use crate::scheduler::Scheduler;
    use crate::widget::WidgetInput;
    use uts::Value;

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
            let x = ctx.require_input("in")?.as_f64().ok_or("nan")?;
            ctx.set_output("out", Value::Double(x + 1.0));
            Ok(())
        }
    }

    fn library() -> ModuleLibrary {
        let mut lib = ModuleLibrary::new();
        lib.register("source", || Box::new(Source));
        lib.register("addone", || Box::new(AddOne));
        lib
    }

    #[test]
    fn library_lists_and_instantiates() {
        let lib = library();
        assert_eq!(lib.type_names(), vec!["addone", "source"]);
        assert!(lib.instantiate("source").is_some());
        assert!(lib.instantiate("ghost").is_none());
    }

    #[test]
    fn save_and_reload_reproduces_behaviour() {
        // Build, configure, run.
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("src", Box::new(Source)).unwrap();
        let a = ed.add_module("inc", Box::new(AddOne)).unwrap();
        ed.connect(s, "out", a, "in").unwrap();
        ed.set_widget(s, "level", WidgetInput::Number(41.0)).unwrap();
        let mut sched = Scheduler::new();
        sched.settle(&mut ed, 10).unwrap();
        assert_eq!(ed.output(a, "out"), Some(&Value::Double(42.0)));

        // Save (through JSON, like a .net file) and reload elsewhere.
        let json = NetworkDescription::capture(&ed).to_json();
        let desc = NetworkDescription::from_json(&json).unwrap();
        let mut ed2 = NetworkEditor::new();
        let ids = desc.restore(&library(), &mut ed2).unwrap();
        let mut sched2 = Scheduler::new();
        sched2.settle(&mut ed2, 10).unwrap();
        assert_eq!(ed2.output(ids["inc"], "out"), Some(&Value::Double(42.0)));
    }

    #[test]
    fn restore_fails_for_unknown_type() {
        let desc = NetworkDescription {
            modules: vec![SavedModule {
                instance_name: "x".into(),
                type_name: "not-in-library".into(),
                widgets: vec![],
            }],
            connections: vec![],
        };
        let mut ed = NetworkEditor::new();
        assert!(desc.restore(&library(), &mut ed).is_err());
    }

    #[test]
    fn restore_preserves_delayed_edges() {
        let mut ed = NetworkEditor::new();
        let s = ed.add_module("src", Box::new(Source)).unwrap();
        let a = ed.add_module("inc", Box::new(AddOne)).unwrap();
        ed.connect(s, "out", a, "in").unwrap();
        // A (nonsensical but legal) feedback wire for structure testing:
        // reuse source since addone.in is taken.
        let desc = {
            let mut d = NetworkDescription::capture(&ed);
            d.connections.push(SavedConnection {
                from: "inc".into(),
                from_port: "out".into(),
                to: "inc".into(),
                to_port: "in".into(),
                delayed: true,
            });
            d
        };
        // The extra feedback edge targets a taken port: restoring must
        // surface the editor's validation error.
        let mut ed2 = NetworkEditor::new();
        assert!(desc.restore(&library(), &mut ed2).is_err());
    }

    #[test]
    fn invalid_json_reports_error() {
        assert!(NetworkDescription::from_json("{nope").is_err());
    }
}
