//! The F100 engine as an AVS network — Figure 2 of the paper.
//!
//! The network contains the component modules of a twin-spool mixed-flow
//! turbofan with multiple instances of the duct and shaft modules, wired
//! to represent the airflow through the engine, plus the system module
//! that controls the run. [`F100Network::build`] assembles it; the
//! returned handle exposes the widget operations a user would perform in
//! the Network Editor (choose remote machines, set solver options, start
//! the run) and fetches the results the system module publishes.

use std::collections::HashMap;
use std::sync::Arc;

use avs::{ModuleId, ModuleLibrary, NetworkDescription, NetworkEditor, Scheduler, WidgetInput};
use schooner::Schooner;
use tess::transient::TransientResult;

use crate::engine_exec::{ExecReportRow, WavePlan};
use crate::modules::{ComponentModule, ExecutiveServices, SystemModule, ADAPTED_SLOTS};
use crate::procs;

/// A placement of adapted modules onto machines, for experiments.
#[derive(Debug, Clone, Default)]
pub struct RemotePlacement {
    /// (slot, machine) pairs; slots not listed stay local.
    pub entries: Vec<(String, String)>,
}

impl RemotePlacement {
    /// Everything local (the baseline).
    pub fn all_local() -> Self {
        Self::default()
    }

    /// Add a placement.
    pub fn with(mut self, slot: &str, machine: &str) -> Self {
        self.entries.push((slot.to_owned(), machine.to_owned()));
        self
    }

    /// The Table 2 configuration, [`TABLE2_PLACEMENT`].
    pub fn table2() -> Self {
        TABLE2_PLACEMENT
            .iter()
            .fold(Self::default(), |p, &(slot, _, machine)| p.with(slot, machine))
    }
}

/// The Table 2 configuration as `(slot, executable, machine)`: TESS on
/// the UA Sparc 10; combustor on the UA SGI 4D/340; both ducts on the
/// LeRC Cray Y-MP; nozzle on the LeRC SGI 4D/420; both shafts on the LeRC
/// IBM RS6000. The executable is the one the slot's module runs by
/// default. The order is the order lines are opened in, so line and
/// process ids (part of the byte-identity surface) follow from it.
pub const TABLE2_PLACEMENT: [(&str, &str, &str); 6] = [
    ("combustor", procs::COMBUSTOR_PATH, "ua-sgi-4d340"),
    ("bypass duct", procs::DUCT_PATH, "lerc-cray-ymp"),
    ("tailpipe duct", procs::DUCT_PATH, "lerc-cray-ymp"),
    ("nozzle", procs::NOZZLE_PATH, "lerc-sgi-4d420"),
    ("low speed shaft", procs::SHAFT_PATH, "lerc-rs6000"),
    ("high speed shaft", procs::SHAFT_PATH, "lerc-rs6000"),
];

/// The assembled F100 network.
pub struct F100Network {
    /// The Network Editor workspace.
    pub editor: NetworkEditor,
    /// The dataflow scheduler.
    pub scheduler: Scheduler,
    /// Shared executive services.
    pub services: Arc<ExecutiveServices>,
    /// Reader for the thrust monitor probe wired to the system module
    /// (absent on restored networks, whose probes get fresh handles).
    pub thrust_monitor: Option<avs::ProbeHandle>,
    ids: HashMap<String, ModuleId>,
}

impl F100Network {
    /// Install the adapted-module executables on every testbed machine
    /// and build the network. `avs_host` is the machine the executive
    /// (AVS) runs on.
    pub fn build(schooner: Arc<Schooner>, avs_host: &str) -> Result<Self, String> {
        // Install executables (the files the pathname widgets point at).
        let hosts: Vec<String> =
            schooner.ctx().park.hosts().iter().map(|s| s.to_string()).collect();
        let host_refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        for (path, image) in [
            (procs::SHAFT_PATH, procs::shaft_image()),
            (procs::DUCT_PATH, procs::duct_image()),
            (procs::DUCT2_PATH, procs::duct2_image()),
            (procs::COMBUSTOR_PATH, procs::combustor_image()),
            (procs::NOZZLE_PATH, procs::nozzle_image()),
        ] {
            // Registering the same path twice across executives is fine;
            // the registry replaces the image.
            schooner.install_program(path, image, &host_refs).map_err(|e| e.to_string())?;
        }

        let services = ExecutiveServices::new(schooner, avs_host);
        let mut editor = NetworkEditor::new();
        let mut ids = HashMap::new();

        let add = |editor: &mut NetworkEditor,
                   ids: &mut HashMap<String, ModuleId>,
                   name: &str,
                   type_name: &str|
         -> Result<(), String> {
            let id = editor.add_module(
                name,
                Box::new(ComponentModule::new(name, type_name, services.clone())),
            )?;
            ids.insert(name.to_owned(), id);
            Ok(())
        };

        add(&mut editor, &mut ids, "inlet", "inlet")?;
        add(&mut editor, &mut ids, "low pressure compressor", "compressor")?;
        add(&mut editor, &mut ids, "splitter", "splitter")?;
        add(&mut editor, &mut ids, "bypass duct", "duct")?;
        add(&mut editor, &mut ids, "high pressure compressor", "compressor")?;
        add(&mut editor, &mut ids, "bleed", "bleed")?;
        add(&mut editor, &mut ids, "combustor", "combustor")?;
        add(&mut editor, &mut ids, "high pressure turbine", "turbine")?;
        add(&mut editor, &mut ids, "low pressure turbine", "turbine")?;
        add(&mut editor, &mut ids, "mixing volume", "mixing volume")?;
        add(&mut editor, &mut ids, "tailpipe duct", "duct")?;
        add(&mut editor, &mut ids, "nozzle", "nozzle")?;
        add(&mut editor, &mut ids, "low speed shaft", "shaft")?;
        add(&mut editor, &mut ids, "high speed shaft", "shaft")?;

        let system = editor.add_module("system", Box::new(SystemModule::new(services.clone())))?;
        ids.insert("system".to_owned(), system);

        // Air path.
        let id = |name: &str| ids[name];
        editor.connect(id("inlet"), "out", id("low pressure compressor"), "in")?;
        editor.connect(id("low pressure compressor"), "out", id("splitter"), "in")?;
        editor.connect(id("splitter"), "bypass", id("bypass duct"), "in")?;
        editor.connect(id("splitter"), "core", id("high pressure compressor"), "in")?;
        editor.connect(id("high pressure compressor"), "out", id("bleed"), "in")?;
        editor.connect(id("bleed"), "out", id("combustor"), "in")?;
        editor.connect(id("combustor"), "out", id("high pressure turbine"), "in")?;
        editor.connect(id("high pressure turbine"), "out", id("low pressure turbine"), "in")?;
        editor.connect(id("low pressure turbine"), "out", id("mixing volume"), "core")?;
        editor.connect(id("bypass duct"), "out", id("mixing volume"), "bypass")?;
        editor.connect(id("mixing volume"), "out", id("tailpipe duct"), "in")?;
        editor.connect(id("tailpipe duct"), "out", id("nozzle"), "in")?;
        editor.connect(id("nozzle"), "out", id("system"), "in")?;
        // Shaft data paths (compressor and turbine feed each shaft).
        editor.connect(id("low pressure compressor"), "out", id("low speed shaft"), "comp")?;
        editor.connect(id("low pressure turbine"), "out", id("low speed shaft"), "turb")?;
        editor.connect(id("high pressure compressor"), "out", id("high speed shaft"), "comp")?;
        editor.connect(id("high pressure turbine"), "out", id("high speed shaft"), "turb")?;
        editor.connect(id("low speed shaft"), "out", id("system"), "lpshaft")?;
        editor.connect(id("high speed shaft"), "out", id("system"), "hpshaft")?;

        // Monitoring: a probe on the system module's thrust output (the
        // "monitoring particular values" capability).
        let (probe, thrust_monitor) = avs::Probe::new("scalar");
        let monitor = editor.add_module("thrust monitor", Box::new(probe))?;
        editor.connect(id("system"), "thrust", monitor, "in")?;

        Ok(Self {
            editor,
            scheduler: Scheduler::new(),
            services,
            thrust_monitor: Some(thrust_monitor),
            ids,
        })
    }

    /// Module id by instance name.
    pub fn id(&self, name: &str) -> ModuleId {
        self.ids[name]
    }

    /// Select a different engine cycle for the next run — the "choice of
    /// complete or partial engine simulations" (e.g.
    /// `tess::CycleDesign::high_bypass_class()`).
    pub fn set_cycle(&self, cycle: tess::CycleDesign) {
        self.services.set_cycle(cycle);
    }

    /// Select the remote machine for an adapted module (as the user would
    /// with the radio buttons); `"local"` restores the local version.
    pub fn place(&mut self, slot: &str, machine: &str) -> Result<(), String> {
        let Some(&id) = self.ids.get(slot) else {
            let mut known: Vec<&str> = self.ids.keys().map(String::as_str).collect();
            known.sort_unstable();
            return Err(format!("unknown module slot '{slot}' (known: {})", known.join(", ")));
        };
        self.editor.set_widget(id, "remote machine", WidgetInput::Choice(machine.to_owned()))
    }

    /// Apply a whole placement.
    pub fn apply_placement(&mut self, placement: &RemotePlacement) -> Result<(), String> {
        for (slot, machine) in &placement.entries {
            self.place(slot, machine)?;
        }
        Ok(())
    }

    /// Select the call scheduling for the next run, as the user would
    /// with the system module's radio buttons: `"sequential"` (the
    /// baseline) or `"wave-parallel"` (level-parallel dataflow waves).
    pub fn set_scheduling(&mut self, mode: &str) -> Result<(), String> {
        let system = self.id("system");
        self.editor.set_widget(system, "scheduling", WidgetInput::Choice(mode.to_owned()))
    }

    /// The execution waves of the current network: the AVS leveling pass
    /// over the graph, restricted to the adapted-module slots and grouped
    /// into antichains.
    pub fn wave_plan(&self) -> Result<WavePlan, String> {
        WavePlan::derive(&self.editor, &ADAPTED_SLOTS)
    }

    /// Configure the system module and execute the network: balances the
    /// engine and runs the transient. Returns the transient trace.
    pub fn run(
        &mut self,
        transient_method: &str,
        t_end: f64,
        dt: f64,
    ) -> Result<TransientResult, String> {
        let system = self.id("system");
        self.editor.set_widget(
            system,
            "transient method",
            WidgetInput::Choice(transient_method.to_owned()),
        )?;
        self.editor.set_widget(system, "transient seconds", WidgetInput::Number(t_end))?;
        self.editor.set_widget(system, "time step", WidgetInput::Text(format!("{dt}")))?;
        // Re-derive the execution waves from the graph as it stands now,
        // so module insertions/removals since the last run are honoured.
        self.services.set_wave_plan(self.wave_plan()?);
        self.editor.set_widget(system, "run", WidgetInput::Bool(true))?;
        self.scheduler.settle(&mut self.editor, 50).map_err(|e| e.to_string())?;
        // Disarm so widget fiddling doesn't re-trigger long runs.
        self.editor.set_widget(system, "run", WidgetInput::Bool(false))?;
        self.services.result().ok_or_else(|| "system module produced no result".to_owned())
    }

    /// Executor statistics of the most recent run.
    pub fn report(&self) -> Vec<ExecReportRow> {
        self.services.report()
    }

    /// Render the network structure (the headless Figure 2).
    pub fn render(&self) -> String {
        self.editor.render()
    }

    /// Save the network — modules, widget settings, wires — as the
    /// Network Editor would write it to a `.net` file.
    pub fn save(&self) -> NetworkDescription {
        NetworkDescription::capture(&self.editor)
    }

    /// The module library that can rebuild saved NPSS networks for the
    /// given executive services: one entry per component type in the
    /// services' registry, plus the system module and the probe.
    pub(crate) fn module_library(services: Arc<ExecutiveServices>) -> ModuleLibrary {
        let mut lib = ModuleLibrary::new();
        for type_name in services.registry().type_names() {
            let services = services.clone();
            let tn = type_name.clone();
            lib.register_named(&type_name, move |name| {
                Box::new(ComponentModule::new(name, &tn, services.clone()))
            });
        }
        let services_sys = services;
        lib.register_named("system", move |_| Box::new(SystemModule::new(services_sys.clone())));
        lib.register_named("probe", |_| Box::new(avs::Probe::new("scalar").0));
        lib
    }

    /// Reload a saved network into a fresh workspace — the "re-loading
    /// the same or a different engine model into AVS" case the persistent
    /// Manager supports.
    pub fn restore(
        saved: &NetworkDescription,
        schooner: Arc<Schooner>,
        avs_host: &str,
    ) -> Result<Self, String> {
        let services = ExecutiveServices::new(schooner, avs_host);
        let library = Self::module_library(services.clone());
        let mut editor = NetworkEditor::new();
        let restored = saved.restore(&library, &mut editor)?;
        Ok(Self {
            editor,
            scheduler: Scheduler::new(),
            services,
            thrust_monitor: None,
            ids: restored,
        })
    }
}
