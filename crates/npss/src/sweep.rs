//! Flood scenario: seeded flight-profile parameter sweeps over wide waves.
//!
//! The Table 2 engine makes a handful of remote calls per solver step; a
//! design-space sweep makes thousands. [`SweepDriver`] opens `lines`
//! parallel Schooner lines on the UA Sparc 10, binds each to the adapted
//! duct procedure on the LeRC RS6000, and floods seeded [`flight_profile`]
//! variants across the link wave-style: every round syncs the lines to a
//! common instant, issues one request per line in slot order, then
//! collects in slot order — the same split-phase discipline the wave
//! scheduler applies to the engine graph. Every message is small (one
//! flow quadruple plus two scalars), which is exactly the traffic shape
//! link batching exists for: with [`SchoonerConfig::link_batching`]
//! installed, all of a round's requests coalesce into shared frames and
//! the route's latency is paid once per frame instead of once per call.
//!
//! [`SchoonerConfig::link_batching`]: schooner::SchoonerConfig

use schooner::Schooner;
use testkit::SplitMix64;
use uts::Value;

use crate::exec::{PendingCall, RemoteExec};
use crate::procs;

/// Installed path of the duct executable the sweep floods.
pub(crate) const SWEEP_PROC_PATH: &str = "/npss/npss-duct";

/// One seeded flight-profile variant: a duct inlet condition and loss
/// fraction, the argument set of one `duct` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightPoint {
    /// Mass flow, lbm/s.
    pub w: f32,
    /// Total temperature, °R.
    pub tt: f32,
    /// Total pressure, psia.
    pub pt: f32,
    /// Fuel/air ratio.
    pub far: f32,
    /// Duct pressure-loss fraction.
    pub dp: f32,
}

impl FlightPoint {
    /// The `duct` call arguments for this point.
    pub fn duct_args(&self) -> Vec<Value> {
        vec![
            Value::floats(&[self.w, self.tt, self.pt, self.far]),
            Value::Float(self.dp),
            Value::Float(0.0),
        ]
    }
}

/// `n` seeded flight-profile variants. Pure function of `(seed, n)`:
/// the same arguments produce the same sweep on every platform, so a
/// flood's traffic — message sizes, issue order, payload bytes — is
/// reproducible and two runs of it are comparable byte for byte.
pub fn flight_profile(seed: u64, n: usize) -> Vec<FlightPoint> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| FlightPoint {
            w: (60.0 + 90.0 * rng.unit()) as f32,
            tt: (420.0 + 400.0 * rng.unit()) as f32,
            pt: (16.0 + 48.0 * rng.unit()) as f32,
            far: (0.02 * rng.unit()) as f32,
            dp: (0.01 + 0.07 * rng.unit()) as f32,
        })
        .collect()
}

/// Host the sweep's module lines run on (the sending side): The
/// University of Arizona, the paper's wide-area shape.
const MODULE_HOST: &str = "ua-sparc10";
/// Host the duct processes run on (the receiving side): the LeRC RS6000,
/// over the Internet link — maximum latency per message, so coalescing
/// has the most to amortize.
const TARGET_HOST: &str = "lerc-rs6000";

/// Configuration of a flood sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Parallel lines — the wave width. Every round issues one call per
    /// line before collecting any, so all of a round's requests share
    /// the `MODULE_HOST -> TARGET_HOST` link at the same instant.
    pub lines: usize,
    /// Total flight-profile variants to evaluate.
    pub variants: usize,
    /// Seed for [`flight_profile`].
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self { lines: 8, variants: 256, seed: 0x5EED_F100 }
    }
}

/// Outcome of one flood sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Variants evaluated.
    pub variants: usize,
    /// Order-sensitive digest of every result's f32 bit patterns, in
    /// slot-collect order. Two runs that delivered the same results in
    /// the same order — batched or not — have equal checksums.
    pub checksum: u64,
    /// Largest line virtual clock when the sweep finished.
    pub makespan_s: f64,
}

/// The flood driver: `lines` split-phase executors over one link.
pub struct SweepDriver {
    execs: Vec<RemoteExec>,
    /// One output vector per executor, kept across rounds.
    outs: Vec<Vec<Value>>,
    cfg: SweepConfig,
}

impl SweepDriver {
    /// Install the duct image on the target host and open the sweep's
    /// lines. The world decides the transport: install a
    /// [`schooner::SchoonerConfig::link_batching`] configuration to run
    /// the same flood batched.
    pub fn start(world: &Schooner, cfg: SweepConfig) -> Result<Self, String> {
        world
            .install_program(SWEEP_PROC_PATH, procs::duct_image(), &[TARGET_HOST])
            .map_err(|e| e.to_string())?;
        let mut execs = Vec::with_capacity(cfg.lines);
        for k in 0..cfg.lines {
            let line =
                world.open_line(&format!("sweep-{k}"), MODULE_HOST).map_err(|e| e.to_string())?;
            execs.push(RemoteExec::start(line, SWEEP_PROC_PATH, TARGET_HOST)?);
        }
        Ok(Self { outs: vec![Vec::new(); execs.len()], execs, cfg })
    }

    /// Run the flood: issue wave-wide rounds until every variant has
    /// been evaluated. Fails on the first delivery error, reported in
    /// slot order within the failing round (never by reply arrival
    /// order), so a faulted run fails deterministically.
    pub fn run(&mut self) -> Result<SweepReport, String> {
        let points = flight_profile(self.cfg.seed, self.cfg.variants);
        let width = self.execs.len().max(1);
        let mut checksum = self.cfg.seed;
        for round in points.chunks(width) {
            let t0 = self.execs.iter_mut().fold(0.0_f64, |t, e| t.max(e.line_mut().now()));
            for e in &mut self.execs {
                e.line_mut().sync_to(t0);
            }
            let mut pending: Vec<PendingCall> = Vec::with_capacity(round.len());
            for ((e, out), p) in self.execs.iter_mut().zip(&mut self.outs).zip(round) {
                pending.push(e.begin("duct", &p.duct_args(), out).map_err(|err| err.to_string())?);
            }
            for (slot, ((e, out), p)) in
                self.execs.iter_mut().zip(&mut self.outs).zip(pending).enumerate()
            {
                e.finish(p, out).map_err(|err| format!("sweep slot {slot}: {err}"))?;
                for v in out.drain(..) {
                    if let Some(fs) = v.as_floats() {
                        for f in fs.iter() {
                            checksum =
                                SplitMix64::new(checksum ^ u64::from(f.to_bits())).next_u64();
                        }
                    }
                }
            }
        }
        let makespan_s = self.execs.iter_mut().fold(0.0_f64, |t, e| t.max(e.line_mut().now()));
        Ok(SweepReport { variants: points.len(), checksum, makespan_s })
    }

    /// Tear down every line (`sch_i_quit`).
    pub fn shutdown(&mut self) {
        for e in &mut self.execs {
            e.quit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_profile_is_seed_deterministic_and_in_range() {
        let a = flight_profile(7, 64);
        let b = flight_profile(7, 64);
        assert_eq!(a, b);
        let c = flight_profile(8, 64);
        assert_ne!(a, c);
        for p in &a {
            assert!(p.w >= 60.0 && p.w <= 150.0);
            assert!(p.dp > 0.0 && p.dp < 0.1);
        }
    }

    #[test]
    fn batched_flood_matches_unbatched_checksum() {
        let cfg = SweepConfig { lines: 3, variants: 12, ..SweepConfig::default() };
        let run = |world: &Schooner| {
            let mut driver = SweepDriver::start(world, cfg.clone()).unwrap();
            let report = driver.run().unwrap();
            driver.shutdown();
            report
        };
        let plain = Schooner::standard().unwrap();
        let base = run(&plain);
        plain.shutdown();
        let batched_world = Schooner::standard_with(
            schooner::SchoonerConfig::builder().link_batching(netsim::LinkConfig).build(),
        )
        .unwrap();
        let batched = run(&batched_world);
        batched_world.shutdown();
        assert_eq!(base.variants, batched.variants);
        assert_eq!(base.checksum, batched.checksum, "coalescing changed a result");
    }
}
