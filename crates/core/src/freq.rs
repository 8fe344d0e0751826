//! Frequency-response helpers shared by the cell reproductions.
//!
//! Every transistor-level figure in this crate is an AC sweep of a
//! generated netlist followed by a differential probe: the equalizer's
//! tunable zero (Fig. 5), the wide-band buffer's voltage peaking
//! (Fig. 7), the limiting amplifier's gain/bandwidth and the full input
//! interface. These helpers route all of them through one entry point so
//! they share the sparse complex AC engine and its deterministic
//! parallel sweep — `CML_THREADS` governs every frequency-response
//! reproduction from here.

use crate::cells::DiffPort;
use cml_sig::Bode;
use cml_spice::analysis::ac::{self, AcResult};
use cml_spice::analysis::NewtonOptions;
use cml_spice::telemetry::Telemetry;
use cml_spice::{Circuit, SpiceError};

/// Runs an AC sweep of `ckt` over `freqs` (Hz): operating point, then
/// the sparse/parallel sweep engine with default options and
/// `CML_THREADS` workers. Returns the raw [`AcResult`]
/// for callers that probe single-ended quantities (e.g. the equalizer's
/// input impedance).
///
/// # Errors
///
/// Propagates operating-point and AC solve failures.
pub fn response(ckt: &Circuit, freqs: &[f64]) -> Result<AcResult, SpiceError> {
    response_traced(ckt, freqs, &Telemetry::disabled())
}

/// [`response`] recording solver telemetry into `tel` (see
/// `cml_spice::telemetry`): every figure-reproduction sweep can attach a
/// counter report without changing its own plumbing.
///
/// # Errors
///
/// Propagates operating-point and AC solve failures.
pub fn response_traced(
    ckt: &Circuit,
    freqs: &[f64],
    tel: &Telemetry,
) -> Result<AcResult, SpiceError> {
    ac::sweep_auto_traced(
        ckt,
        freqs,
        &NewtonOptions::default(),
        cml_runner::threads(None),
        tel,
    )
}

/// [`response`] followed by a differential probe of `output`: the Bode
/// curve of `v(out.p) − v(out.n)` across the sweep — the shape every
/// cell-level figure reduces to.
///
/// # Errors
///
/// Propagates operating-point and AC solve failures.
pub fn differential_bode(
    ckt: &Circuit,
    output: DiffPort,
    freqs: &[f64],
) -> Result<Bode, SpiceError> {
    differential_bode_traced(ckt, output, freqs, &Telemetry::disabled())
}

/// [`differential_bode`] recording solver telemetry into `tel`.
///
/// # Errors
///
/// Propagates operating-point and AC solve failures.
pub fn differential_bode_traced(
    ckt: &Circuit,
    output: DiffPort,
    freqs: &[f64],
    tel: &Telemetry,
) -> Result<Bode, SpiceError> {
    let ac = response_traced(ckt, freqs, tel)?;
    Ok(Bode::new(
        freqs.to_vec(),
        ac.differential_trace(output.p, output.n),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_spice::prelude::*;

    #[test]
    fn differential_bode_matches_manual_probe() {
        // Differential RC: the helper must agree with probing the raw
        // sweep by hand.
        let mut ckt = Circuit::new();
        let input = DiffPort::named(&mut ckt, "in");
        let output = DiffPort::named(&mut ckt, "out");
        ckt.add(Vsource::dc("VP", input.p, Circuit::GROUND, 0.9).with_ac(0.5));
        ckt.add(Vsource::dc("VN", input.n, Circuit::GROUND, 0.9).with_ac(-0.5));
        ckt.add(Resistor::new("RP", input.p, output.p, 1e3));
        ckt.add(Resistor::new("RN", input.n, output.n, 1e3));
        ckt.add(Capacitor::new("CP", output.p, Circuit::GROUND, 1e-12));
        ckt.add(Capacitor::new("CN", output.n, Circuit::GROUND, 1e-12));
        let freqs = cml_numeric::logspace(1e6, 10e9, 25);
        let bode = differential_bode(&ckt, output, &freqs).unwrap();
        let raw = response(&ckt, &freqs).unwrap();
        for (i, g) in bode.gains().iter().enumerate() {
            let manual = raw.voltage(output.p, i) - raw.voltage(output.n, i);
            assert_eq!(g.re.to_bits(), manual.re.to_bits());
            assert_eq!(g.im.to_bits(), manual.im.to_bits());
        }
        // Unity differential drive into a single-pole RC: 0 dB at DC.
        assert!(bode.gains()[0].abs() > 0.99);
    }
}
