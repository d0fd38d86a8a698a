//! Bridging registered engine components onto the Schooner RPC path.
//!
//! A [`tess::EngineComponent`] describes itself with a typed
//! [`ComponentSpec`]; this module turns that description into everything
//! the distributed runtime needs, with no per-component glue:
//!
//! * [`ComponentProcedure`] adapts a component instance to the
//!   [`schooner::Procedure`] trait — compute calls, the virtual work
//!   model, and `state(...)` capture/restore all come straight from the
//!   component's own entry points.
//! * [`component_image`] renders the spec as a UTS `export` declaration
//!   (via [`ProgramImage::from_procs`]) and attaches the registry factory,
//!   producing an installable executable image. The Manager compiles its
//!   stubs from that declaration, so an out-of-process component is
//!   indistinguishable from a compiled-in one.
//! * [`RemoteComponent`] is the caller's side: it implements
//!   `EngineComponent` itself over a Schooner line, so hosts can hold a
//!   `Box<dyn EngineComponent>` without knowing whether it computes
//!   in-process or three networks away.
//!
//! Because the rendered declaration carries the component's state table,
//! checkpoints of registry-built components round-trip through the
//! existing [`schooner::CheckpointStore`] and supervised recovery works
//! unchanged.

use schooner::{ProcFault, ProcResult, Procedure, ProgramImage, Schooner};
use tess::component::{ComponentRegistry, ComponentSpec, EngineComponent};
use uts::Value;

use crate::exec::ExecError;

/// The UTS procedure name every component image exports.
pub const COMPONENT_PROC: &str = "compute";

/// A registered component serving as a Schooner [`Procedure`].
pub struct ComponentProcedure {
    component: Box<dyn EngineComponent>,
    spec: ComponentSpec,
}

impl ComponentProcedure {
    /// Wrap a component instance. The spec is captured once; per the ABI
    /// it is stable for the instance's lifetime.
    pub fn new(component: Box<dyn EngineComponent>) -> Self {
        let spec = component.spec();
        Self { component, spec }
    }
}

impl Procedure for ComponentProcedure {
    fn call(&mut self, args: &[Value], out: &mut Vec<Value>) -> ProcResult<()> {
        out.extend(self.component.compute(args).map_err(ProcFault::Failed)?);
        Ok(())
    }

    fn flops(&self, _args: &[Value]) -> f64 {
        self.spec.work_flops
    }

    fn get_state(&self) -> Vec<Value> {
        self.component.get_state()
    }

    fn set_state(&mut self, state: Vec<Value>) -> ProcResult<()> {
        self.component.set_state(state).map_err(ProcFault::BadState)
    }
}

/// The installation path for a component type: its declared
/// `remote_path`, or `/npss/components/<slug>` when it does not name one.
pub fn component_path(spec: &ComponentSpec) -> String {
    spec.remote_path.clone().unwrap_or_else(|| format!("/npss/components/{}", spec.slug()))
}

/// Build the executable image for a registered component type: the
/// component's `spec()` rendered as a UTS export named
/// [`COMPONENT_PROC`], implemented by fresh instances from the registry
/// factory.
pub fn component_image(
    registry: &ComponentRegistry,
    type_name: &str,
) -> Result<ProgramImage, ExecError> {
    let spec = registry
        .spec(type_name)
        .ok_or_else(|| ExecError::Config(format!("no registered component type {type_name:?}")))?;
    let factory = registry.factory(type_name).expect("spec() implies factory").clone();
    ProgramImage::from_procs(spec.slug(), &[spec.proc_spec(COMPONENT_PROC)])
        .and_then(|image| {
            image.with_procedure(COMPONENT_PROC, move || {
                Box::new(ComponentProcedure::new(factory()))
            })
        })
        .map_err(ExecError::Sch)
}

/// Register and install a component type's image on `hosts`; returns the
/// installation path for subsequent `start_remote` requests.
pub fn install_component(
    schooner: &Schooner,
    registry: &ComponentRegistry,
    type_name: &str,
    hosts: &[&str],
) -> Result<String, ExecError> {
    let image = component_image(registry, type_name)?;
    let path =
        component_path(&registry.spec(type_name).ok_or_else(|| {
            ExecError::Config(format!("no registered component type {type_name:?}"))
        })?);
    schooner.install_program(&path, image, hosts).map_err(ExecError::Sch)?;
    Ok(path)
}

/// A component instance running out-of-process, reached over a Schooner
/// line — the caller-side half of the bridge.
///
/// `RemoteComponent` implements [`EngineComponent`] itself: `compute`
/// forwards over the line, `destroy` quits it. The *authoritative* state
/// lives in the remote process (captured by the Manager on
/// [`checkpoint`](RemoteComponent::checkpoint) and restored on supervised
/// recovery), so the local `get_state` mirror reports the spec it was
/// started with and `set_state` is rejected — mutate remote state through
/// `compute`, or restart the component.
pub struct RemoteComponent {
    line: schooner::LineHandle,
    spec: ComponentSpec,
    host: String,
}

impl RemoteComponent {
    /// Start the component image at `path` on `machine` inside a freshly
    /// opened line, binding the caller-side stub from the component spec.
    pub fn start(
        mut line: schooner::LineHandle,
        registry: &ComponentRegistry,
        type_name: &str,
        path: &str,
        machine: &str,
    ) -> Result<Self, ExecError> {
        let spec = registry.spec(type_name).ok_or_else(|| {
            ExecError::Config(format!("no registered component type {type_name:?}"))
        })?;
        line.start_remote(path, machine).map_err(ExecError::Sch)?;
        Ok(Self { line, spec, host: machine.to_owned() })
    }

    /// The machine the component runs on.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Ask the Manager to checkpoint the remote instance's `state(...)`
    /// variables. Returns the snapshot size in bytes.
    pub fn checkpoint(&mut self) -> Result<u64, ExecError> {
        self.line.checkpoint(COMPONENT_PROC).map_err(ExecError::Sch)
    }

    /// Migrate the remote instance (with its state) to another machine.
    pub fn move_to(&mut self, machine: &str) -> Result<(), ExecError> {
        self.line.move_procedure(COMPONENT_PROC, machine).map_err(ExecError::Sch)?;
        self.host = machine.to_owned();
        Ok(())
    }

    /// Transport statistics from the underlying line.
    pub fn stats(&self) -> schooner::LineStats {
        self.line.stats()
    }

    /// The underlying line, e.g. for supervision-policy plumbing.
    pub fn line_mut(&mut self) -> &mut schooner::LineHandle {
        &mut self.line
    }
}

impl EngineComponent for RemoteComponent {
    fn spec(&self) -> ComponentSpec {
        self.spec.clone()
    }

    fn compute(&mut self, args: &[Value]) -> Result<Vec<Value>, String> {
        self.line.call(COMPONENT_PROC, args).map_err(|e| e.to_string())
    }

    fn get_state(&self) -> Vec<Value> {
        // The authoritative state is remote; the Manager owns its
        // checkpointed copy. An empty mirror keeps the distinction sharp.
        Vec::new()
    }

    fn set_state(&mut self, state: Vec<Value>) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err("remote component state is owned by the remote process; \
                 restart or recover it through the Manager"
                .into())
        }
    }

    fn destroy(&mut self) {
        let _ = self.line.quit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_image_serves_compute_in_process() {
        let reg = ComponentRegistry::builtin();
        let image = component_image(&reg, "duct").unwrap();
        assert!(image.spec_src().contains("export compute"), "{}", image.spec_src());
        assert!(image.spec_src().contains("state(\"dp frac\" double)"), "{}", image.spec_src());

        let mut procs = image.instantiate().unwrap();
        let spec = reg.spec("duct").unwrap();
        let mut out = Vec::new();
        procs.get_mut(COMPONENT_PROC).unwrap().call(&spec.examples, &mut out).unwrap();
        // Must agree with a direct in-process compute on a fresh instance.
        let mut local = reg.create("duct").unwrap();
        assert_eq!(out, local.compute(&spec.examples).unwrap());
    }

    #[test]
    fn component_path_prefers_declared_remote_path() {
        let reg = ComponentRegistry::builtin();
        assert_eq!(component_path(&reg.spec("duct").unwrap()), "/npss/npss-duct");
        assert_eq!(
            component_path(&reg.spec("mixing volume").unwrap()),
            "/npss/components/mixing-volume"
        );
    }

    #[test]
    fn unknown_type_is_a_config_error() {
        let reg = ComponentRegistry::builtin();
        assert!(matches!(component_image(&reg, "warp drive"), Err(ExecError::Config(_))));
    }
}
