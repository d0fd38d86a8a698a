//! Heat exchanger: effectiveness-based counterflow transfer between a hot
//! and a cold stream.
//!
//! This component is deliberately *stateful*: it tracks a wall-metal
//! temperature that relaxes toward the stream temperatures over successive
//! calls, plus a transfer counter. Both live in the UTS state vector, so a
//! heat exchanger served out-of-process exercises the checkpoint/restore
//! and migration paths end to end — exactly the proof the component ABI
//! needs beyond the stateless gas-path models.

use crate::component::{flow_from_value, flow_type, flow_value, ComponentSpec, EngineComponent};
use crate::gas::{cp_gas, temperature_from_enthalpy, GasState, T_STD};
use uts::{Type, Value};

/// An effectiveness-NTU style heat exchanger.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatExchanger {
    /// Transfer effectiveness: fraction of the thermodynamic maximum heat
    /// actually exchanged (0..1).
    pub effectiveness: f64,
    /// Hot-side total-pressure loss fraction.
    pub dp_hot: f64,
    /// Cold-side total-pressure loss fraction.
    pub dp_cold: f64,
    /// Wall-metal temperature, K — relaxes toward the exit streams over
    /// successive transfers.
    wall_tt: f64,
    /// Number of transfers computed since construction (or last restore).
    transfers: i64,
}

impl HeatExchanger {
    /// Build a heat exchanger starting with a standard-day cold wall.
    pub fn new(effectiveness: f64, dp_hot: f64, dp_cold: f64) -> Self {
        assert!((0.0..=1.0).contains(&effectiveness), "effectiveness out of range");
        Self { effectiveness, dp_hot, dp_cold, wall_tt: T_STD, transfers: 0 }
    }

    /// Exchange heat between the hot and cold streams. Returns
    /// (hot exit, cold exit, heat transferred in W).
    pub fn transfer(&mut self, hot: &GasState, cold: &GasState) -> (GasState, GasState, f64) {
        // Capacity rates at the inlet temperatures; the minimum bounds the
        // achievable transfer.
        let c_hot = hot.w * cp_gas(hot.tt, hot.far);
        let c_cold = cold.w * cp_gas(cold.tt, cold.far);
        let q = self.effectiveness * c_hot.min(c_cold) * (hot.tt - cold.tt);

        let h_hot = hot.h() - q / hot.w;
        let hot_out = GasState::new(
            hot.w,
            temperature_from_enthalpy(h_hot, hot.far),
            hot.pt * (1.0 - self.dp_hot),
            hot.far,
        );
        let h_cold = cold.h() + q / cold.w;
        let cold_out = GasState::new(
            cold.w,
            temperature_from_enthalpy(h_cold, cold.far),
            cold.pt * (1.0 - self.dp_cold),
            cold.far,
        );

        // The wall relaxes toward the mean exit temperature: a first-order
        // thermal lag, one step per call.
        self.wall_tt = 0.8 * self.wall_tt + 0.2 * 0.5 * (hot_out.tt + cold_out.tt);
        self.transfers += 1;
        (hot_out, cold_out, q)
    }
}

impl EngineComponent for HeatExchanger {
    fn spec(&self) -> ComponentSpec {
        ComponentSpec::new("heat exchanger")
            .port_in("hot")
            .port_in("cold")
            .port_out("hot out")
            .port_out("cold out")
            .slider("effectiveness", 0.3, 0.95, 0.75)
            .input("hot flow", flow_type(), flow_value(&GasState::new(70.0, 900.0, 2.5e5, 0.02)))
            .input("cold flow", flow_type(), flow_value(&GasState::new(30.0, 400.0, 4.0e5, 0.0)))
            .output("hot flow out", flow_type())
            .output("cold flow out", flow_type())
            .output("q", Type::Double)
            .output("wall tt", Type::Double)
            .state_var("effectiveness", Type::Double)
            .state_var("dp hot", Type::Double)
            .state_var("dp cold", Type::Double)
            .state_var("wall tt", Type::Double)
            .state_var("transfers", Type::Integer)
            .flops(90_000.0)
            .remote("/npss/components/heat-exchanger")
    }

    fn compute(&mut self, args: &[Value]) -> Result<Vec<Value>, String> {
        let hot = flow_from_value(args.first().ok_or("missing hot flow argument")?)?;
        let cold = flow_from_value(args.get(1).ok_or("missing cold flow argument")?)?;
        let (hot_out, cold_out, q) = self.transfer(&hot, &cold);
        Ok(vec![
            flow_value(&hot_out),
            flow_value(&cold_out),
            Value::Double(q),
            Value::Double(self.wall_tt),
        ])
    }

    fn get_state(&self) -> Vec<Value> {
        vec![
            Value::Double(self.effectiveness),
            Value::Double(self.dp_hot),
            Value::Double(self.dp_cold),
            Value::Double(self.wall_tt),
            Value::Integer(self.transfers),
        ]
    }

    fn set_state(&mut self, state: Vec<Value>) -> Result<(), String> {
        if state.len() != 5 {
            return Err(format!("heat exchanger state has {} values, expected 5", state.len()));
        }
        let num = |i: usize, name: &str| {
            state[i].as_f64().ok_or_else(|| format!("state value {name} not numeric"))
        };
        let eff = num(0, "effectiveness")?;
        let dp_hot = num(1, "dp hot")?;
        let dp_cold = num(2, "dp cold")?;
        let wall_tt = num(3, "wall tt")?;
        let transfers = match &state[4] {
            Value::Integer(n) => *n,
            v => return Err(format!("transfers must be an integer, got {v:?}")),
        };
        if !(0.0..=1.0).contains(&eff)
            || !(0.0..1.0).contains(&dp_hot)
            || !(0.0..1.0).contains(&dp_cold)
        {
            return Err(format!(
                "heat exchanger state out of range: eff={eff} dp_hot={dp_hot} dp_cold={dp_cold}"
            ));
        }
        self.effectiveness = eff;
        self.dp_hot = dp_hot;
        self.dp_cold = dp_cold;
        self.wall_tt = wall_tt;
        self.transfers = transfers;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams() -> (GasState, GasState) {
        (GasState::new(70.0, 900.0, 2.5e5, 0.02), GasState::new(30.0, 400.0, 4.0e5, 0.0))
    }

    #[test]
    fn transfer_moves_heat_from_hot_to_cold() {
        let mut hx = HeatExchanger::new(0.75, 0.02, 0.03);
        let (hot, cold) = streams();
        let (hot_out, cold_out, q) = hx.transfer(&hot, &cold);
        assert!(q > 0.0);
        assert!(hot_out.tt < hot.tt);
        assert!(cold_out.tt > cold.tt);
        assert!(hot_out.pt < hot.pt && cold_out.pt < cold.pt);
        // Energy balance: what the hot side loses the cold side gains.
        let lost = hot.w * hot.h() - hot_out.w * hot_out.h();
        let gained = cold_out.w * cold_out.h() - cold.w * cold.h();
        assert!((lost - gained).abs() / lost.abs() < 1e-9);
    }

    #[test]
    fn effectiveness_bounds_the_transfer() {
        let mut full = HeatExchanger::new(1.0, 0.0, 0.0);
        let (hot, cold) = streams();
        let (_, cold_out, _) = full.transfer(&hot, &cold);
        // Cold is the minimum-capacity stream; at effectiveness 1 it can
        // approach (not exceed) the hot inlet temperature.
        assert!(cold_out.tt <= hot.tt + 1.0, "cold exit {}", cold_out.tt);

        let mut half = HeatExchanger::new(0.5, 0.0, 0.0);
        let (_, cold_half, q_half) = half.transfer(&hot, &cold);
        assert!(cold_half.tt < cold_out.tt);
        assert!(q_half > 0.0);
    }

    #[test]
    fn wall_temperature_relaxes_over_calls() {
        let mut hx = HeatExchanger::new(0.75, 0.02, 0.03);
        let (hot, cold) = streams();
        let t0 = hx.wall_tt;
        hx.transfer(&hot, &cold);
        let t1 = hx.wall_tt;
        assert!(t1 > t0, "wall warms toward the streams");
        for _ in 0..50 {
            hx.transfer(&hot, &cold);
        }
        let t_settled = hx.wall_tt;
        hx.transfer(&hot, &cold);
        assert!((hx.wall_tt - t_settled).abs() < 0.5, "wall settles");
        assert_eq!(hx.transfers, 52);
    }
}
