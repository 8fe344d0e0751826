//! A compact SPICE-class analog circuit simulator.
//!
//! This crate is the substrate that replaces HSPICE in the reproduction of
//! the 10 Gb/s CML I/O interface paper: the paper's entire evaluation is
//! circuit simulation, so the simulator itself had to be built. It
//! implements the same algorithm family production simulators use:
//!
//! * **Modified nodal analysis (MNA)** — node voltages plus branch currents
//!   for voltage-defined elements ([`circuit::Circuit`] / [`element`]),
//! * **DC operating point** — damped Newton-Raphson with voltage step
//!   limiting, gmin stepping and source stepping fallbacks
//!   ([`analysis::op`]),
//! * **DC sweep** — operating points along a swept source value
//!   ([`analysis::dc`]),
//! * **AC small-signal analysis** — complex MNA linearized around the
//!   operating point ([`analysis::ac`]),
//! * **Transient analysis** — trapezoidal (default) or backward-Euler
//!   companion models with per-step Newton iteration ([`analysis::tran`]),
//!   streaming accepted samples through columnar [`analysis::sink`]s
//!   into in-memory accumulators, so run length is not bounded by
//!   memory.
//!
//! Device models: resistor, capacitor, inductor, independent V/I sources
//! (DC / pulse / sine / PWL waveforms), VCVS/VCCS controlled sources, a
//! junction diode, and a Level-1 MOSFET with channel-length modulation and
//! Meyer-style terminal capacitances — adequate for first-order 0.18 µm
//! design work (the process parameters live in `cml-pdk`).
//!
//! # Example
//!
//! A resistive divider:
//!
//! ```
//! use cml_spice::prelude::*;
//!
//! # fn main() -> Result<(), cml_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 2.0));
//! ckt.add(Resistor::new("R1", vin, out, 1.0e3));
//! ckt.add(Resistor::new("R2", out, Circuit::GROUND, 1.0e3));
//! let op = cml_spice::analysis::op::solve(&ckt)?;
//! assert!((op.voltage(out) - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod circuit;
pub mod devices;
pub mod element;
pub mod elements;
mod error;
pub mod flight;
pub mod lint;
pub mod waveform;

pub use circuit::{Circuit, NodeId};
pub use error::SpiceError;

// Solver instrumentation: every analysis has a `*_traced` variant taking
// a `telemetry::Telemetry` handle (see `cml-telemetry`). Re-exported so
// downstream crates need no extra dependency edge to use it.
pub use cml_telemetry as telemetry;

/// Convenient glob-import surface for building and simulating circuits.
pub mod prelude {
    pub use crate::analysis::ac::{self, AcResult};
    pub use crate::analysis::batch::{self, BatchOpResult};
    pub use crate::analysis::dc::{self, DcSweepResult};
    pub use crate::analysis::op::{self, OpResult};
    pub use crate::analysis::sink::{
        DenseSink, Tee, TranMeta, TranProbes, TranStats, WaveChunk, WaveSink,
    };
    pub use crate::analysis::tran::{self, TranConfig, TranResult};
    pub use crate::circuit::{Circuit, NodeId};
    pub use crate::devices::diode::{Diode, DiodeParams};
    pub use crate::devices::mosfet::{MosParams, MosType, Mosfet};
    pub use crate::elements::controlled::{Vccs, Vcvs};
    pub use crate::elements::sources::{Isource, Vsource};
    pub use crate::elements::two_terminal::{Capacitor, Inductor, Resistor};
    pub use crate::waveform::Waveform;
}

/// Thermal voltage `kT/q` at the given temperature, in volts.
///
/// Used by the diode and subthreshold models.
///
/// ```
/// let vt = cml_spice::thermal_voltage(27.0);
/// assert!((vt - 0.02585).abs() < 2e-4);
/// ```
#[must_use]
pub fn thermal_voltage(temp_celsius: f64) -> f64 {
    const K_OVER_Q: f64 = 8.617_333_262e-5; // eV/K
    K_OVER_Q * (temp_celsius + 273.15)
}

#[cfg(test)]
mod tests {
    #[test]
    fn thermal_voltage_at_room_temp() {
        let vt = super::thermal_voltage(27.0);
        assert!((vt - 0.02585).abs() < 2e-4, "vt = {vt}");
    }

    #[test]
    fn thermal_voltage_scales_with_temperature() {
        assert!(super::thermal_voltage(125.0) > super::thermal_voltage(-40.0));
    }
}
