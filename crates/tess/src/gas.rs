//! Working-fluid thermodynamics.
//!
//! Air and combustion products are modeled as ideal gases with a
//! temperature-dependent specific heat:
//!
//! * `cp_air(T)` is a cubic fit through standard dry-air table values at
//!   300 K (1005), 800 K (1099), 1500 K (1216), and 2000 K (1338 J/kg·K);
//!   the fit is monotone increasing over 250–2300 K and within ~1.5% of
//!   the tables between the knots;
//! * combustion products add a fuel-air-ratio correction,
//!   `cp = cp_air + far/(1+far) · (180 + 0.6·T)`, a calibration to typical
//!   kerosene-products data;
//! * enthalpy `h(T)` and the entropy function `φ(T) = ∫ cp/T dT` are the
//!   exact analytic integrals of the fit, so isentropic processes satisfy
//!   `φ(T₂) − φ(T₁) = R ln(P₂/P₁)` without constant-γ approximations.
//!
//! All units SI: K, Pa, kg/s, J/kg, W.

/// Gas constant of air and (approximately) of lean combustion products.
pub const R_GAS: f64 = 287.05;

/// Lower heating value of kerosene-type jet fuel, J/kg.
pub const FUEL_LHV: f64 = 43.1e6;

/// Reference temperature for enthalpy (h(T_REF) = 0).
pub(crate) const T_REF: f64 = 300.0;

/// Sea-level static standard day.
pub const P_STD: f64 = 101_325.0;
/// Standard-day temperature.
pub const T_STD: f64 = 288.15;

// Cubic cp fit coefficients (see module docs).
const CP_A: f64 = 927.184_873_949_579_8;
const CP_B: f64 = 0.297_648_459_383_753_5;
const CP_C: f64 = -1.419_187_675_070_028_5e-4;
const CP_D: f64 = 4.789_915_966_386_556_5e-8;

/// Specific heat of dry air at temperature `t` (K), J/kg·K.
pub(crate) fn cp_air(t: f64) -> f64 {
    CP_A + t * (CP_B + t * (CP_C + t * CP_D))
}

/// Specific heat of combustion products at fuel-air ratio `far`.
pub fn cp_gas(t: f64, far: f64) -> f64 {
    cp_air(t) + far / (1.0 + far) * (180.0 + 0.6 * t)
}

/// Ratio of specific heats at temperature `t` and fuel-air ratio `far`.
pub fn gamma(t: f64, far: f64) -> f64 {
    let cp = cp_gas(t, far);
    cp / (cp - R_GAS)
}

/// Specific enthalpy (J/kg) relative to `T_REF`, analytic integral of cp.
pub fn enthalpy(t: f64, far: f64) -> f64 {
    fn h_air(t: f64) -> f64 {
        t * (CP_A + t * (CP_B / 2.0 + t * (CP_C / 3.0 + t * CP_D / 4.0)))
    }
    fn h_fuel_corr(t: f64) -> f64 {
        t * (180.0 + 0.3 * t)
    }
    let base = h_air(t) - h_air(T_REF);
    let corr = far / (1.0 + far) * (h_fuel_corr(t) - h_fuel_corr(T_REF));
    base + corr
}

/// Entropy function φ(T) = ∫ cp/T dT (J/kg·K), analytic integral.
pub fn phi(t: f64, far: f64) -> f64 {
    fn phi_air(t: f64) -> f64 {
        CP_A * t.ln() + t * (CP_B + t * (CP_C / 2.0 + t * CP_D / 3.0))
    }
    fn phi_fuel_corr(t: f64) -> f64 {
        180.0 * t.ln() + 0.6 * t
    }
    phi_air(t) + far / (1.0 + far) * phi_fuel_corr(t)
}

/// Invert `enthalpy`: the temperature with specific enthalpy `h`.
pub fn temperature_from_enthalpy(h: f64, far: f64) -> f64 {
    // Newton from a linear initial guess; cp > 900 everywhere, so this
    // converges in a handful of iterations.
    let mut t = (T_REF + h / 1050.0).clamp(150.0, 3500.0);
    for _ in 0..50 {
        let f = enthalpy(t, far) - h;
        let df = cp_gas(t, far);
        let step = f / df;
        t -= step;
        t = t.clamp(150.0, 3500.0);
        if step.abs() < 1e-10 * t.max(1.0) {
            break;
        }
    }
    t
}

/// Exit temperature of an **isentropic** process from (`t1`) across total
/// pressure ratio `pr = p2/p1` (compression `pr > 1`, expansion `< 1`).
pub fn isentropic_temperature(t1: f64, pr: f64, far: f64) -> f64 {
    let target = phi(t1, far) + R_GAS * pr.ln();
    // Newton on φ(T) = target; dφ/dT = cp/T > 0, strictly monotone.
    let g = gamma(t1, far);
    let mut t = (t1 * pr.powf((g - 1.0) / g)).clamp(150.0, 3500.0);
    for _ in 0..50 {
        let f = phi(t, far) - target;
        let df = cp_gas(t, far) / t;
        let step = f / df;
        t -= step;
        t = t.clamp(150.0, 3500.0);
        if step.abs() < 1e-10 * t.max(1.0) {
            break;
        }
    }
    t
}

/// A gas-path station state: what flows between engine components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GasState {
    /// Mass flow, kg/s.
    pub w: f64,
    /// Total temperature, K.
    pub tt: f64,
    /// Total pressure, Pa.
    pub pt: f64,
    /// Fuel-air ratio (fuel flow / air flow upstream of this station).
    pub far: f64,
}

impl GasState {
    /// A station state.
    pub fn new(w: f64, tt: f64, pt: f64, far: f64) -> Self {
        Self { w, tt, pt, far }
    }

    /// Specific total enthalpy of this stream.
    pub fn h(&self) -> f64 {
        enthalpy(self.tt, self.far)
    }

    /// cp at this station.
    pub fn cp(&self) -> f64 {
        cp_gas(self.tt, self.far)
    }

    /// γ at this station.
    pub fn gamma(&self) -> f64 {
        gamma(self.tt, self.far)
    }

    /// Corrected (referred) mass flow `W√θ/δ` used by map lookups.
    pub fn corrected_flow(&self) -> f64 {
        let theta = self.tt / T_STD;
        let delta = self.pt / P_STD;
        self.w * theta.sqrt() / delta
    }

    /// Enthalpy-conserving merge of two streams (constant-pressure mixing
    /// of totals; the mixing-volume component applies its own pressure
    /// rule on top of this).
    pub fn mix_with(&self, other: &GasState) -> GasState {
        let w = self.w + other.w;
        if w <= 0.0 {
            return *self;
        }
        // Mix fuel and air books separately so far stays consistent.
        let air_a = self.w / (1.0 + self.far);
        let air_b = other.w / (1.0 + other.far);
        let fuel = (self.w - air_a) + (other.w - air_b);
        let far = if air_a + air_b > 0.0 { fuel / (air_a + air_b) } else { 0.0 };
        let h = (self.w * self.h() + other.w * other.h()) / w;
        let tt = temperature_from_enthalpy(h, far);
        let pt = (self.w * self.pt + other.w * other.pt) / w;
        GasState { w, tt, pt, far }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cp_matches_fit_knots() {
        assert!((cp_air(300.0) - 1005.0).abs() < 0.5);
        assert!((cp_air(800.0) - 1099.0).abs() < 0.5);
        assert!((cp_air(1500.0) - 1216.0).abs() < 0.5);
        assert!((cp_air(2000.0) - 1338.0).abs() < 0.5);
    }

    #[test]
    fn cp_monotone_increasing_over_working_range() {
        let mut prev = cp_air(250.0);
        let mut t = 260.0;
        while t < 2300.0 {
            let c = cp_air(t);
            assert!(c > prev, "cp not monotone at {t}");
            prev = c;
            t += 10.0;
        }
    }

    #[test]
    fn fuel_raises_cp() {
        assert!(cp_gas(1400.0, 0.02) > cp_gas(1400.0, 0.0));
        assert_eq!(cp_gas(1400.0, 0.0), cp_air(1400.0));
    }

    #[test]
    fn gamma_in_physical_range() {
        for t in [250.0, 500.0, 1000.0, 1800.0] {
            let g = gamma(t, 0.0);
            assert!((1.25..1.42).contains(&g), "gamma({t}) = {g}");
        }
        assert!(gamma(300.0, 0.0) > gamma(1800.0, 0.0), "gamma falls with T");
    }

    #[test]
    fn enthalpy_reference_and_derivative() {
        assert_eq!(enthalpy(T_REF, 0.0), 0.0);
        // dh/dT == cp, checked by central differences.
        for t in [350.0, 700.0, 1400.0] {
            let dh = (enthalpy(t + 0.5, 0.0) - enthalpy(t - 0.5, 0.0)) / 1.0;
            assert!((dh - cp_air(t)).abs() < 0.05, "at {t}: {dh} vs {}", cp_air(t));
        }
    }

    #[test]
    fn temperature_inverts_enthalpy() {
        for t in [250.0, 400.0, 900.0, 1600.0, 2200.0] {
            for far in [0.0, 0.02, 0.05] {
                let h = enthalpy(t, far);
                let back = temperature_from_enthalpy(h, far);
                assert!((back - t).abs() < 1e-6, "t={t} far={far}: got {back}");
            }
        }
    }

    #[test]
    fn phi_derivative_is_cp_over_t() {
        for t in [350.0, 900.0, 1700.0] {
            let dphi = (phi(t + 0.5, 0.01) - phi(t - 0.5, 0.01)) / 1.0;
            let expect = cp_gas(t, 0.01) / t;
            assert!((dphi - expect).abs() < 1e-4, "at {t}");
        }
    }

    #[test]
    fn isentropic_compression_and_expansion_are_inverse() {
        let t1 = 288.15;
        let t2 = isentropic_temperature(t1, 8.0, 0.0);
        assert!(t2 > t1);
        let back = isentropic_temperature(t2, 1.0 / 8.0, 0.0);
        assert!((back - t1).abs() < 1e-6, "round trip gave {back}");
    }

    #[test]
    fn isentropic_matches_constant_gamma_for_small_pr() {
        // For a tiny pressure ratio the variable-cp result approaches the
        // constant-γ formula.
        let t1 = 288.15;
        let pr: f64 = 1.02;
        let g = gamma(t1, 0.0);
        let expect = t1 * pr.powf((g - 1.0) / g);
        let got = isentropic_temperature(t1, pr, 0.0);
        assert!((got - expect).abs() < 0.05, "{got} vs {expect}");
    }

    #[test]
    fn corrected_flow_is_physical() {
        let std = GasState::new(100.0, T_STD, P_STD, 0.0);
        assert!((std.corrected_flow() - 100.0).abs() < 1e-9);
        // Hot, low-pressure flow corrects upward.
        let hot = GasState::new(100.0, 2.0 * T_STD, 0.5 * P_STD, 0.0);
        assert!((hot.corrected_flow() - 100.0 * 2.0f64.sqrt() / 0.5).abs() < 1e-9);
    }

    #[test]
    fn mixing_conserves_mass_and_enthalpy() {
        let a = GasState::new(60.0, 800.0, 4.0e5, 0.02);
        let b = GasState::new(40.0, 350.0, 4.2e5, 0.0);
        let m = a.mix_with(&b);
        assert!((m.w - 100.0).abs() < 1e-12);
        let h_in = a.w * a.h() + b.w * b.h();
        // Mixed enthalpy must match: recompute from mixed state.
        let h_out = m.w * m.h();
        assert!((h_in - h_out).abs() / h_in.abs() < 1e-9);
        assert!(m.tt < a.tt && m.tt > b.tt);
        assert!(m.far > 0.0 && m.far < a.far);
    }

    #[test]
    fn mixing_with_empty_stream_is_identity() {
        let a = GasState::new(60.0, 800.0, 4.0e5, 0.02);
        let empty = GasState::new(0.0, 300.0, 1.0e5, 0.0);
        let m = a.mix_with(&empty);
        assert!((m.tt - a.tt).abs() < 1e-9);
        assert!((m.w - a.w).abs() < 1e-12);
    }
}
