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
//! * [`RemoteComponent`] is the caller's side: an `EngineComponent` view
//!   over the same [`RemoteExec`] client the adapted modules use, so
//!   hosts can hold a `Box<dyn EngineComponent>` without knowing whether
//!   it computes in-process or three networks away — and the component
//!   gets the executor's call policy, failover, local fallback and
//!   split-phase calls.
//!
//! Because the rendered declaration carries the component's state table,
//! checkpoints of registry-built components round-trip through the
//! existing [`schooner::CheckpointStore`] and supervised recovery works
//! unchanged.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use schooner::{ProcFault, ProcResult, Procedure, ProgramImage, Schooner};
use tess::component::{ComponentFactory, ComponentRegistry, ComponentSpec, EngineComponent};
use uts::Value;

use crate::exec::{ExecError, RemoteExec};

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

/// The factory of the registered component type `type_name` (its spec
/// comes from a probe instance), or a configuration error naming it.
fn registered<'r>(
    registry: &'r ComponentRegistry,
    type_name: &str,
) -> Result<&'r ComponentFactory, ExecError> {
    registry
        .factory(type_name)
        .ok_or_else(|| ExecError::Config(format!("no registered component type {type_name:?}")))
}

/// Build the executable image for a registered component type: the
/// component's `spec()` rendered as a UTS export named
/// [`COMPONENT_PROC`], implemented by fresh instances from the registry
/// factory.
pub fn component_image(
    registry: &ComponentRegistry,
    type_name: &str,
) -> Result<ProgramImage, ExecError> {
    let factory = registered(registry, type_name)?.clone();
    let spec = factory().spec();
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
    let path = component_path(&registered(registry, type_name)?().spec());
    schooner.install_program(&path, image, hosts).map_err(ExecError::Sch)?;
    Ok(path)
}

/// A component instance running out-of-process — the caller-side half
/// of the bridge: an [`EngineComponent`] view over a [`RemoteExec`]
/// started on the component's image.
///
/// `compute` is a [`COMPONENT_PROC`] call through the executor, under
/// its [`CallPolicy`](schooner::CallPolicy) and with its local fallback;
/// `destroy` quits the line. Checkpoints and moves go through
/// [`RemoteComponent::exec_mut`]. The *authoritative* state lives in the
/// remote process (captured by the Manager on checkpoint and restored on
/// supervised recovery), so the local `get_state` mirror is empty and
/// `set_state` is rejected — mutate remote state through `compute`, or
/// restart the component.
pub struct RemoteComponent {
    exec: RemoteExec,
    spec: ComponentSpec,
}

impl RemoteComponent {
    /// View `exec`, started on the image of the registered component type
    /// `type_name`, as that component.
    pub fn new(
        exec: RemoteExec,
        registry: &ComponentRegistry,
        type_name: &str,
    ) -> Result<Self, ExecError> {
        Ok(Self { exec, spec: registered(registry, type_name)?().spec() })
    }

    /// The executor the component runs through: its location, statistics,
    /// checkpoints, line and split-phase calls.
    pub fn exec_mut(&mut self) -> &mut RemoteExec {
        &mut self.exec
    }
}

impl EngineComponent for RemoteComponent {
    fn spec(&self) -> ComponentSpec {
        self.spec.clone()
    }

    fn compute(&mut self, args: &[Value]) -> Result<Vec<Value>, String> {
        let mut out = Vec::new();
        self.exec.call(COMPONENT_PROC, args, &mut out).map_err(|e| e.to_string())?;
        Ok(out)
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
        self.exec.quit();
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
