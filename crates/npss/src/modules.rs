//! The TESS engine components as AVS modules.
//!
//! Each principal engine component is an AVS module; an engine is
//! constructed in the Network Editor by connecting the modules to
//! represent the airflow through the engine. Which modules exist — their
//! ports, physics widgets, and remote-execution affordances — is no
//! longer hard-coded: every [`ComponentModule`] is driven by the
//! [`tess::ComponentRegistry`] entry for its component type. The typed
//! [`tess::ComponentSpec`] supplies the port list, the widget hints
//! (dials, sliders, file browsers), and — for components that declare a
//! `remote_path` — the two **adapted-module** widgets from the paper:
//! radio buttons selecting the machine on which to execute the remote
//! procedure, and a type-in for its executable pathname. Registering a
//! new component type with [`ExecutiveServices::register_component`]
//! makes it buildable in the Network Editor with no changes here.
//!
//! The **system** module provides the solver-selection widgets (steady
//! state: Newton–Raphson or Fourth-order Runge–Kutta; transient: Modified
//! Euler, Fourth-order Runge–Kutta, Adams, or Gear) and overall control of
//! the simulation run: when executed, it balances the engine at the
//! initial operating point and runs the transient, invoking each adapted
//! module's procedures locally or remotely according to the placements
//! the user's widgets selected.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use avs::{AvsModule, ComputeCtx, ModuleSpec, Widget};
use schooner::Schooner;
use std::sync::{Mutex, RwLock};
use tess::component::{
    ComponentFactory, ComponentRegistry, ComponentSpec, PortDirection, WidgetHint,
};
use tess::engine::Turbofan;
use tess::schedules::Schedule;
use tess::transient::{TransientMethod, TransientResult};
use uts::Value;

use crate::engine_exec::{ExecReportRow, ExecutiveEngine, Scheduling, WavePlan};
use crate::exec::RemoteExec;

/// The adapted-module placement slots of the F100 network.
pub const ADAPTED_SLOTS: [&str; 6] =
    ["bypass duct", "tailpipe duct", "combustor", "nozzle", "low speed shaft", "high speed shaft"];

/// Shared state connecting the modules of one executive instance.
///
/// The mutable pieces — the selected cycle, widget-driven placements and
/// parameters, the latest result and report — live behind accessors, so
/// every cross-module data flow is an explicit method call rather than a
/// lock on a public field.
pub struct ExecutiveServices {
    /// The Schooner world.
    pub schooner: Arc<Schooner>,
    /// Host the executive (the "AVS machine") runs on.
    pub avs_host: String,
    registry: RwLock<ComponentRegistry>,
    cycle: Mutex<tess::CycleDesign>,
    /// slot → (machine, path); machine `"local"` means the original
    /// local-compute-only version.
    placements: Mutex<BTreeMap<String, (String, String)>>,
    /// (slot, widget) → value.
    params: Mutex<HashMap<(String, String), f64>>,
    /// slot → registered component type name, for live modules.
    module_types: Mutex<HashMap<String, String>>,
    /// Execution waves derived from the network graph's leveling pass;
    /// empty until the network publishes one, which keeps the system
    /// module on the sequential sweep.
    wave_plan: Mutex<WavePlan>,
    result: Mutex<Option<TransientResult>>,
    report: Mutex<Vec<ExecReportRow>>,
}

impl ExecutiveServices {
    /// Fresh services over a Schooner world, with the built-in component
    /// registry.
    pub fn new(schooner: Arc<Schooner>, avs_host: &str) -> Arc<Self> {
        Self::with_registry(schooner, avs_host, ComponentRegistry::builtin())
    }

    /// Fresh services with an explicit component registry.
    pub(crate) fn with_registry(
        schooner: Arc<Schooner>,
        avs_host: &str,
        registry: ComponentRegistry,
    ) -> Arc<Self> {
        Arc::new(Self {
            schooner,
            avs_host: avs_host.to_owned(),
            registry: RwLock::new(registry),
            cycle: Mutex::new(tess::CycleDesign::f100_class()),
            placements: Mutex::new(BTreeMap::new()),
            params: Mutex::new(HashMap::new()),
            module_types: Mutex::new(HashMap::new()),
            wave_plan: Mutex::new(WavePlan::default()),
            result: Mutex::new(None),
            report: Mutex::new(Vec::new()),
        })
    }

    /// The execution waves the network last published.
    pub fn wave_plan(&self) -> WavePlan {
        self.wave_plan.lock().unwrap().clone()
    }

    /// Publish the execution waves derived from the current network.
    pub(crate) fn set_wave_plan(&self, plan: WavePlan) {
        *self.wave_plan.lock().unwrap() = plan;
    }

    /// The machine-selection radio choices: "local" plus every testbed
    /// host (the strings between colons in the paper's widget call).
    pub(crate) fn machine_choices(&self) -> Vec<String> {
        let mut v = vec!["local".to_owned()];
        v.extend(self.schooner.ctx().park.hosts().iter().map(|s| s.to_string()));
        v
    }

    /// A snapshot of the component registry.
    pub(crate) fn registry(&self) -> ComponentRegistry {
        self.registry.read().unwrap().clone()
    }

    /// Register an additional component type; modules of that type can
    /// then be added to networks served by these services. Returns the
    /// registered type name.
    pub fn register_component(&self, factory: ComponentFactory) -> Result<String, String> {
        let type_name = factory().spec().type_name;
        self.registry.write().unwrap().register(factory)?;
        Ok(type_name)
    }

    /// The typed spec of a registered component type.
    pub(crate) fn component_spec(&self, type_name: &str) -> Option<ComponentSpec> {
        self.registry.read().unwrap().spec(type_name)
    }

    /// The engine cycle selected for the next run.
    pub(crate) fn cycle(&self) -> tess::CycleDesign {
        self.cycle.lock().unwrap().clone()
    }

    /// Select the engine cycle to simulate — the "choice of complete
    /// engine simulations" (defaults to the F100 class).
    pub fn set_cycle(&self, cycle: tess::CycleDesign) {
        *self.cycle.lock().unwrap() = cycle;
    }

    /// Current widget-driven placements: slot → (machine, path), in
    /// sorted slot order — the order their lines are opened in, which
    /// the journal and every line id depend on.
    pub(crate) fn placements(&self) -> BTreeMap<String, (String, String)> {
        self.placements.lock().unwrap().clone()
    }

    /// Record where a slot's computation runs and which executable serves
    /// it (machine `"local"` selects the in-process version).
    pub(crate) fn set_placement(&self, slot: &str, machine: &str, path: &str) {
        self.placements
            .lock()
            .unwrap()
            .insert(slot.to_owned(), (machine.to_owned(), path.to_owned()));
    }

    /// Forget a slot's placement (its module left the network).
    pub(crate) fn remove_placement(&self, slot: &str) {
        self.placements.lock().unwrap().remove(slot);
    }

    /// Snapshot of all published physics-widget values.
    pub(crate) fn params(&self) -> HashMap<(String, String), f64> {
        self.params.lock().unwrap().clone()
    }

    /// Publish a physics-widget value.
    pub(crate) fn set_param(&self, slot: &str, widget: &str, value: f64) {
        self.params.lock().unwrap().insert((slot.to_owned(), widget.to_owned()), value);
    }

    /// Most recent simulation result, if a run has completed.
    pub(crate) fn result(&self) -> Option<TransientResult> {
        self.result.lock().unwrap().clone()
    }

    /// Store the result of a completed run.
    pub(crate) fn set_result(&self, result: TransientResult) {
        *self.result.lock().unwrap() = Some(result);
    }

    /// Executor statistics of the most recent run.
    pub fn report(&self) -> Vec<ExecReportRow> {
        self.report.lock().unwrap().clone()
    }

    /// Store the executor statistics of a completed run.
    pub(crate) fn set_report(&self, rows: Vec<ExecReportRow>) {
        *self.report.lock().unwrap() = rows;
    }

    /// The component type a live module slot was built from.
    pub(crate) fn module_type_of(&self, slot: &str) -> Option<String> {
        self.module_types.lock().unwrap().get(slot).cloned()
    }

    /// The default executable pathname of a slot: the `remote_path` its
    /// component type declares (`None` for types without one, which never
    /// show placement widgets).
    pub(crate) fn default_path_of_slot(&self, slot: &str) -> Option<String> {
        let type_name = self.module_type_of(slot)?;
        self.component_spec(&type_name)?.remote_path
    }

    fn note_module_type(&self, slot: &str, type_name: &str) {
        self.module_types.lock().unwrap().insert(slot.to_owned(), type_name.to_owned());
    }

    fn forget_module_type(&self, slot: &str) {
        self.module_types.lock().unwrap().remove(slot);
    }
}

/// A component module instance, entirely described by the registered
/// [`ComponentSpec`] of its type: ports, widgets, and remote-execution
/// affordances all come from the spec, so a freshly registered component
/// type is immediately buildable with no per-kind code.
pub struct ComponentModule {
    /// Placement slot / instance role (e.g. "bypass duct").
    pub slot: String,
    type_name: String,
    services: Arc<ExecutiveServices>,
}

impl ComponentModule {
    /// Build a module for `slot` backed by the registered component
    /// `type_name`. The spec is resolved through the services' registry
    /// on every use, so types registered after the module was created
    /// (e.g. when restoring a saved network) still resolve.
    pub fn new(slot: &str, type_name: &str, services: Arc<ExecutiveServices>) -> Self {
        services.note_module_type(slot, type_name);
        Self { slot: slot.to_owned(), type_name: type_name.to_owned(), services }
    }

    /// The registered component type this module instantiates.
    pub fn type_name(&self) -> &str {
        &self.type_name
    }

    fn component_spec(&self) -> Option<ComponentSpec> {
        self.services.component_spec(&self.type_name)
    }

    fn descriptor(&self) -> Value {
        Value::Record(vec![
            ("name".to_owned(), Value::String(self.slot.clone())),
            ("kind".to_owned(), Value::String(self.type_name.clone())),
        ])
    }
}

/// Concatenate the descriptor chains arriving on the given input ports
/// and append `extra`.
fn chain(ctx: &ComputeCtx<'_>, inputs: &[&str], extra: Value) -> Value {
    let mut items = Vec::new();
    for port in inputs {
        if let Some(Value::Array(xs)) = ctx.input(port) {
            items.extend(xs.iter().cloned());
        }
    }
    items.push(extra);
    Value::Array(items)
}

impl AvsModule for ComponentModule {
    fn spec(&self) -> ModuleSpec {
        let mut spec = ModuleSpec::new(&self.type_name);
        let Some(cspec) = self.component_spec() else {
            // Unknown type: an empty panel; compute() reports the error.
            return spec;
        };
        for port in &cspec.ports {
            spec = match port.direction {
                PortDirection::Input => spec.input(&port.name, "engine-flow"),
                PortDirection::Output => spec.output(&port.name, "engine-flow"),
            };
        }
        if let Some(default_path) = &cspec.remote_path {
            // The two widgets the paper's adaptation added, for every
            // component type that declares a remote executable.
            let machines = self.services.machine_choices();
            let refs: Vec<&str> = machines.iter().map(String::as_str).collect();
            spec = spec
                .widget(Widget::radio("remote machine", &refs, 0))
                .widget(Widget::type_in("pathname", default_path));
        }
        // Physics widgets straight from the spec's typed hints (the shaft
        // control panel of Figure 2 shows moment inertia / spool speed /
        // spool speed-op).
        for p in &cspec.params {
            spec = spec.widget(match &p.hint {
                WidgetHint::Dial { min, max, default } => {
                    Widget::dial(&p.name, *min, *max, *default)
                }
                WidgetHint::Slider { min, max, default } => {
                    Widget::slider(&p.name, *min, *max, *default)
                }
                WidgetHint::File { default } => Widget::file_browser(&p.name, default),
            });
        }
        spec
    }

    fn compute(&mut self, ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
        let cspec = self
            .component_spec()
            .ok_or_else(|| format!("no registered component type '{}'", self.type_name))?;
        // Record placement from the remote-machine widgets.
        if cspec.remote_path.is_some() {
            let machine = ctx.widget_choice("remote machine")?.to_owned();
            let path = ctx.widget_text("pathname")?.to_owned();
            self.services.set_placement(&self.slot, &machine, &path);
        }
        // Publish every numeric physics-widget value the spec declares.
        for p in &cspec.params {
            if let Some(v) = ctx.widget(&p.name).and_then(Widget::as_number) {
                self.services.set_param(&self.slot, &p.name, v);
            }
        }
        // Pass the descriptor chain downstream, fanning out to every
        // declared output port.
        let input_ports: Vec<&str> = cspec
            .ports
            .iter()
            .filter(|p| p.direction == PortDirection::Input)
            .map(|p| p.name.as_str())
            .collect();
        let out = chain(ctx, &input_ports, self.descriptor());
        let output_ports: Vec<&str> = cspec
            .ports
            .iter()
            .filter(|p| p.direction == PortDirection::Output)
            .map(|p| p.name.as_str())
            .collect();
        for port in &output_ports {
            ctx.set_output(port, out.clone());
        }
        Ok(())
    }

    fn destroy(&mut self) {
        // Module removed from the network: its placement disappears (the
        // Manager tears the line down when the system module's engine is
        // rebuilt or shut down).
        self.services.remove_placement(&self.slot);
        self.services.forget_module_type(&self.slot);
    }
}

/// The system module: solver selection and overall run control.
pub struct SystemModule {
    services: Arc<ExecutiveServices>,
}

impl SystemModule {
    /// Build the system module.
    pub fn new(services: Arc<ExecutiveServices>) -> Self {
        Self { services }
    }

    /// Build the executive engine from the current placements and
    /// operating conditions.
    fn build_engine(
        &self,
        altitude_m: f64,
        mach: f64,
        scheduling: Scheduling,
    ) -> Result<ExecutiveEngine, String> {
        let params = self.services.params();
        let mut cycle = self.services.cycle();
        if let Some(i) = params.get(&("low speed shaft".to_owned(), "moment inertia".to_owned())) {
            cycle.i1 = *i;
        }
        if let Some(i) = params.get(&("high speed shaft".to_owned(), "moment inertia".to_owned())) {
            cycle.i2 = *i;
        }
        if let Some(eta) = params.get(&("combustor".to_owned(), "efficiency".to_owned())) {
            cycle.comb_eta = *eta;
        }
        if let Some(dp) = params.get(&("combustor".to_owned(), "pressure loss".to_owned())) {
            cycle.comb_dp = *dp;
        }
        let mut engine = Turbofan::from_design(cycle)?;
        // Operating conditions: high or low altitude, flight Mach.
        let amb = tess::atmosphere::isa(altitude_m);
        engine.flight = tess::engine::FlightCondition { t_amb: amb.t, p_amb: amb.p, mach };
        let mut exec = ExecutiveEngine::all_local(engine)?;
        exec.scheduling = scheduling;
        exec.wave_plan = self.services.wave_plan();

        for (slot, (machine, path)) in self.services.placements() {
            if machine == "local" {
                // The pathname widget still selects the *code*: a
                // non-default path substitutes a different local
                // implementation for this component.
                let default = self.services.default_path_of_slot(&slot);
                if default.as_deref() != Some(path.as_str()) {
                    let image = self
                        .services
                        .schooner
                        .ctx()
                        .registry
                        .get(&path)
                        .ok_or_else(|| format!("no program registered at '{path}'"))?;
                    exec.set_local(&slot, crate::exec::LocalExec::new(&image)?)?;
                }
                continue;
            }
            let line = self
                .services
                .schooner
                .open_line(&slot, &self.services.avs_host)
                .map_err(|e| e.to_string())?;
            let remote = RemoteExec::start(line, &path, &machine)?;
            exec.set_remote(&slot, remote)?;
        }
        Ok(exec)
    }
}

impl AvsModule for SystemModule {
    fn spec(&self) -> ModuleSpec {
        ModuleSpec::new("system")
            .input("in", "engine-flow")
            .input("lpshaft", "engine-flow")
            .input("hpshaft", "engine-flow")
            .output("thrust", "scalar")
            .output("n1", "scalar")
            .widget(Widget::radio(
                "steady-state method",
                &["Newton-Raphson", "Fourth-order Runge-Kutta"],
                0,
            ))
            .widget(Widget::radio(
                "transient method",
                &["Modified Euler", "Fourth-order Runge-Kutta", "Adams", "Gear"],
                0,
            ))
            .widget(Widget::radio("scheduling", &["sequential", "wave-parallel"], 0))
            .widget(Widget::slider("transient seconds", 0.0, 5.0, 1.0))
            .widget(Widget::type_in("time step", "0.02"))
            .widget(Widget::slider("initial fuel fraction", 0.5, 1.0, 0.92))
            .widget(Widget::slider("altitude", 0.0, 15_000.0, 0.0))
            .widget(Widget::slider("mach", 0.0, 1.5, 0.0))
            .widget(Widget::toggle("run", false))
    }

    fn compute(&mut self, ctx: &mut ComputeCtx<'_>) -> Result<(), String> {
        // Verify the network actually delivers a complete engine.
        let chain = ctx.require_input("in")?;
        let kinds: Vec<String> = match chain {
            Value::Array(items) => items
                .iter()
                .filter_map(|v| match v {
                    Value::Record(fields) => fields.iter().find_map(|(k, v)| {
                        (k == "kind").then(|| v.to_string().trim_matches('"').to_owned())
                    }),
                    _ => None,
                })
                .collect(),
            _ => return Err("system: malformed engine chain".into()),
        };
        for needed in ["inlet", "compressor", "combustor", "turbine", "nozzle"] {
            if !kinds.iter().any(|k| k == needed) {
                return Err(format!("system: engine chain is missing a {needed}"));
            }
        }

        if !ctx.widget_bool("run")? {
            // Not armed: report idle outputs.
            ctx.set_output("thrust", Value::Double(0.0));
            ctx.set_output("n1", Value::Double(0.0));
            return Ok(());
        }

        // The executive balances with Newton-Raphson only (it has no RK4
        // relaxation), so any other choice fails the run.
        let steady = ctx.widget_choice("steady-state method")?;
        if steady != "Newton-Raphson" {
            return Err(format!(
                "system: steady-state method '{steady}' is not available in the executive \
                 (it balances with Newton-Raphson)"
            ));
        }
        let method = match ctx.widget_choice("transient method")? {
            "Fourth-order Runge-Kutta" => TransientMethod::RungeKutta4,
            "Adams" => TransientMethod::Adams,
            "Gear" => TransientMethod::Gear,
            _ => TransientMethod::ImprovedEuler,
        };
        let scheduling = match ctx.widget_choice("scheduling")? {
            "wave-parallel" => Scheduling::WaveParallel,
            _ => Scheduling::Sequential,
        };
        let t_end = ctx.widget_number("transient seconds")?;
        let dt: f64 = ctx
            .widget_text("time step")?
            .trim()
            .parse()
            .map_err(|e| format!("bad time step: {e}"))?;
        let fuel_frac = ctx.widget_number("initial fuel fraction")?;
        let altitude = ctx.widget_number("altitude")?;
        let mach = ctx.widget_number("mach")?;

        let mut exec = self.build_engine(altitude, mach, scheduling)?;
        // Fuel scales with ambient pressure (δ) so the throttle schedule
        // stays meaningful at altitude.
        let delta = exec.engine.flight.p_amb / tess::gas::P_STD;
        let wf_ref = exec.engine.design.wf * delta;
        let fuel = Schedule::new(vec![
            (0.0, fuel_frac * wf_ref),
            (0.1 * t_end.max(0.1), fuel_frac * wf_ref),
            (0.4 * t_end.max(0.1), wf_ref),
        ])?;
        let result = exec.run_transient(&fuel, method, dt, t_end);
        // Always capture stats, then tear down remote lines.
        self.services.set_report(exec.report_rows());
        exec.shutdown();
        let result = result?;

        ctx.set_output("thrust", Value::Double(result.last().thrust));
        ctx.set_output("n1", Value::Double(result.last().n1));
        self.services.set_result(result);
        Ok(())
    }
}
