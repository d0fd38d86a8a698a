//! Mixing volume: inter-component plenum where streams merge.

use crate::component::{
    flow_from_value, flow_type, flow_value, state_scalars, ComponentSpec, EngineComponent,
};
use crate::gas::GasState;
use uts::{Type, Value};

/// A plenum joining two streams.
///
/// Steady behaviour is conservative mixing (mass, enthalpy, fuel) with a
/// flow-weighted total-pressure blend and a mixing loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixingVolume {
    /// Plenum volume, m³ (carried as state; the steady mix ignores it).
    pub volume: f64,
    /// Total-pressure mixing loss fraction.
    pub dp_frac: f64,
}

impl MixingVolume {
    /// Build a mixing volume.
    pub fn new(volume: f64, dp_frac: f64) -> Self {
        Self { volume, dp_frac }
    }

    /// Steady mix of two streams.
    pub fn mix(&self, a: &GasState, b: &GasState) -> GasState {
        let mut out = a.mix_with(b);
        out.pt *= 1.0 - self.dp_frac;
        out
    }
}

impl EngineComponent for MixingVolume {
    fn spec(&self) -> ComponentSpec {
        ComponentSpec::new("mixing volume")
            .port_in("core")
            .port_in("bypass")
            .port_out("out")
            .input("core flow", flow_type(), flow_value(&GasState::new(60.0, 900.0, 2.4e5, 0.02)))
            .input("bypass flow", flow_type(), flow_value(&GasState::new(42.0, 390.0, 2.5e5, 0.0)))
            .output("mixed flow", flow_type())
            .state_var("volume", Type::Double)
            .state_var("dp frac", Type::Double)
            .flops(30_000.0)
    }

    fn compute(&mut self, args: &[Value]) -> Result<Vec<Value>, String> {
        let core = flow_from_value(args.first().ok_or("missing core flow argument")?)?;
        let bypass = flow_from_value(args.get(1).ok_or("missing bypass flow argument")?)?;
        Ok(vec![flow_value(&self.mix(&core, &bypass))])
    }

    fn get_state(&self) -> Vec<Value> {
        vec![Value::Double(self.volume), Value::Double(self.dp_frac)]
    }

    fn set_state(&mut self, state: Vec<Value>) -> Result<(), String> {
        let [volume, dp] = state_scalars::<2>(&state)?;
        if volume <= 0.0 || !(0.0..1.0).contains(&dp) {
            return Err(format!("mixing volume state out of range: V={volume} dp={dp}"));
        }
        self.volume = volume;
        self.dp_frac = dp;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixing_conserves_mass_and_applies_loss() {
        let mv = MixingVolume::new(0.5, 0.01);
        let core = GasState::new(60.0, 900.0, 2.4e5, 0.02);
        let bypass = GasState::new(42.0, 390.0, 2.5e5, 0.0);
        let out = mv.mix(&core, &bypass);
        assert!((out.w - 102.0).abs() < 1e-12);
        assert!(out.tt < core.tt && out.tt > bypass.tt);
        let blend = (60.0 * 2.4e5 + 42.0 * 2.5e5) / 102.0;
        assert!((out.pt - blend * 0.99).abs() < 1.0);
    }
}
