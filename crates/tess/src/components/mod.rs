//! Engine component models.
//!
//! Each principal component of the engine is a small, pure thermodynamic
//! model operating on gas-path states — the computational content behind
//! the TESS AVS modules of the same names: inlet, compressor (fan/LPC/
//! HPC), splitter, duct, bleed, combustor, turbine (HPT/LPT), mixing
//! volume, nozzle, and shaft.

pub mod afterburner;
pub mod bleed;
pub mod combustor;
pub mod compressor;
pub mod duct;
pub(crate) mod heat_exchanger;
pub mod inlet;
pub(crate) mod mixing_volume;
pub mod nozzle;
pub mod shaft;
pub mod splitter;
pub mod stage_stack;
pub mod turbine;

pub use afterburner::AfterburnerDuct;
pub use bleed::Bleed;
pub use combustor::Combustor;
pub use compressor::{Compressor, CompressorResult};
pub use duct::Duct;
pub use heat_exchanger::HeatExchanger;
pub use inlet::Inlet;
pub use mixing_volume::MixingVolume;
pub use nozzle::{Nozzle, NozzleResult};
pub use shaft::Shaft;
pub use splitter::Splitter;
pub use stage_stack::{StageStack, StageState};
pub use turbine::{Turbine, TurbineResult};
