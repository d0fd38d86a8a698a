//! Transient control schedules.
//!
//! For the compressor, combustor, and nozzle modules, TESS provides
//! transient control schedules: the user specifies values (e.g. stator
//! angles, fuel flow) at certain times during the transient, and TESS
//! interpolates at other times. A [`Schedule`] is exactly that —
//! piecewise-linear interpolation through user breakpoints, held constant
//! beyond the ends.

/// A piecewise-linear time schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Breakpoints `(t, value)` in strictly ascending time order.
    points: Vec<(f64, f64)>,
}

impl Schedule {
    /// A constant schedule.
    pub fn constant(value: f64) -> Self {
        Self { points: vec![(0.0, value)] }
    }

    /// Build from breakpoints; times must be strictly ascending and
    /// non-empty.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, String> {
        if points.is_empty() {
            return Err("schedule needs at least one breakpoint".into());
        }
        if !points.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("schedule breakpoints must be strictly ascending in time".into());
        }
        Ok(Self { points })
    }

    /// A ramp from `(t0, v0)` to `(t1, v1)`, held outside.
    pub fn ramp(t0: f64, v0: f64, t1: f64, v1: f64) -> Self {
        Self::new(vec![(t0, v0), (t1, v1)]).expect("t0 < t1 required")
    }

    /// Interpolated value at time `t` (end values held beyond range).
    pub fn at(&self, t: f64) -> f64 {
        let pts = &self.points;
        if t <= pts[0].0 {
            return pts[0].1;
        }
        if t >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for w in pts.windows(2) {
            let (t0, v0) = w[0];
            let (t1, v1) = w[1];
            if t <= t1 {
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
            }
        }
        unreachable!("covered by range checks")
    }

    /// The breakpoints.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_everywhere() {
        let s = Schedule::constant(5.0);
        assert_eq!(s.at(-1.0), 5.0);
        assert_eq!(s.at(0.0), 5.0);
        assert_eq!(s.at(100.0), 5.0);
    }

    #[test]
    fn interpolates_between_breakpoints() {
        let s = Schedule::new(vec![(0.0, 1.0), (1.0, 3.0), (2.0, 0.0)]).unwrap();
        assert_eq!(s.at(0.5), 2.0);
        assert_eq!(s.at(1.0), 3.0);
        assert_eq!(s.at(1.5), 1.5);
    }

    #[test]
    fn holds_ends() {
        let s = Schedule::ramp(1.0, 10.0, 2.0, 20.0);
        assert_eq!(s.at(0.0), 10.0);
        assert_eq!(s.at(3.0), 20.0);
    }

    #[test]
    fn rejects_bad_breakpoints() {
        assert!(Schedule::new(vec![]).is_err());
        assert!(Schedule::new(vec![(0.0, 1.0), (0.0, 2.0)]).is_err());
        assert!(Schedule::new(vec![(1.0, 1.0), (0.5, 2.0)]).is_err());
    }

    #[test]
    fn exact_at_breakpoints() {
        let pts = vec![(0.0, 1.0), (0.25, -2.0), (0.9, 7.5)];
        let s = Schedule::new(pts.clone()).unwrap();
        for (t, v) in pts {
            assert_eq!(s.at(t), v);
        }
    }
}
