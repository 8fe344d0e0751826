//! DC operating-point analysis.
//!
//! Plain Newton from a zero guess, with two homotopy fallbacks when it
//! fails: **gmin stepping** (start with heavy conductance to ground and
//! relax it decade by decade) and **source stepping** (ramp all independent
//! sources from zero), both warm-starting each stage from the previous
//! solution — the same ladder ngspice climbs.

use super::{NewtonOptions, NewtonWorkspace, System};
use crate::circuit::{Circuit, NodeId};
use crate::element::StampMode;
use crate::SpiceError;
use cml_telemetry::{EventKind, Phase, Telemetry};
use std::collections::HashMap;

/// Result of an operating-point solve.
#[derive(Debug, Clone)]
pub struct OpResult {
    x: Vec<f64>,
    n_nodes: usize,
    branch_names: HashMap<String, usize>,
}

impl OpResult {
    /// Node voltage at the operating point (0 for ground).
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> f64 {
        super::voltage_from(&self.x, node)
    }

    /// Branch current of a named voltage-defined element (voltage source
    /// or inductor).
    ///
    /// # Errors
    ///
    /// [`SpiceError::NotFound`] if no such branch exists.
    pub fn current(&self, element: &str) -> Result<f64, SpiceError> {
        self.branch_names
            .get(element)
            .map(|&i| self.x[i])
            .ok_or_else(|| SpiceError::NotFound {
                what: "branch element",
                name: element.to_string(),
            })
    }

    /// The full solution vector (node voltages then branch currents).
    #[must_use]
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Number of non-ground nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Total power delivered by sources = total power dissipated, in watts.
    ///
    /// Computed as −Σ(dc_power of sources); element `dc_power` reports
    /// absorbed power, so a delivering source contributes negatively.
    #[must_use]
    pub fn total_power(&self, ckt: &Circuit) -> f64 {
        let sys_names = &self.branch_names;
        let mut delivered = 0.0;
        for e in ckt.elements() {
            let bb = sys_names.get(e.name()).copied().unwrap_or(0);
            if let Some(p) = e.dc_power(&self.x, bb) {
                if p < 0.0 {
                    delivered -= p;
                }
            }
        }
        delivered
    }
}

/// Solves the DC operating point of a circuit.
///
/// # Errors
///
/// [`SpiceError::NoConvergence`] if all homotopies fail,
/// [`SpiceError::Singular`] for structurally singular netlists.
pub fn solve(ckt: &Circuit) -> Result<OpResult, SpiceError> {
    solve_with(ckt, &NewtonOptions::default(), None)
}

/// Solves the operating point with custom Newton options and an optional
/// source evaluation time (used by transient analysis, which wants the
/// waveform values at `t = 0` rather than the DC values).
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with(
    ckt: &Circuit,
    opts: &NewtonOptions,
    at_time: Option<f64>,
) -> Result<OpResult, SpiceError> {
    solve_traced(ckt, opts, at_time, &Telemetry::disabled())
}

/// [`solve_with`] recording solver telemetry (spans, Newton/homotopy
/// counters, lint-precheck time) into `tel`.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_traced(
    ckt: &Circuit,
    opts: &NewtonOptions,
    at_time: Option<f64>,
    tel: &Telemetry,
) -> Result<OpResult, SpiceError> {
    let res = solve_traced_impl(ckt, opts, at_time, tel);
    if let Err(e) = &res {
        // Forensic dump on the failure path only; a no-op unless a
        // flight directory is configured (see `crate::flight`).
        crate::flight::record_failure(ckt, opts, "op", e, tel);
    }
    res
}

fn solve_traced_impl(
    ckt: &Circuit,
    opts: &NewtonOptions,
    at_time: Option<f64>,
    tel: &Telemetry,
) -> Result<OpResult, SpiceError> {
    let _span = tel.span("analysis", "op");
    {
        let _t = tel.timer(Phase::LintPrecheck);
        if let Err(e) = crate::lint::precheck(ckt) {
            if let SpiceError::LintRejected { diagnostics } = &e {
                let errors = diagnostics.len() as u32;
                tel.event(|| EventKind::LintRejected { errors });
            }
            return Err(e);
        }
    }
    tel.count(|c| c.lint_prechecks += 1);
    let sys = System::new(ckt);
    let x = solve_system(&sys, opts, at_time, tel)?;
    Ok(OpResult {
        x,
        n_nodes: sys.n_nodes(),
        branch_names: sys.branch_names().clone(),
    })
}

pub(crate) fn solve_system(
    sys: &System<'_>,
    opts: &NewtonOptions,
    at_time: Option<f64>,
    tel: &Telemetry,
) -> Result<Vec<f64>, SpiceError> {
    let x0 = vec![0.0; sys.dim()];
    let state: Vec<f64> = Vec::new();
    let mode = |scale: f64| StampMode::Dc {
        source_scale: scale,
        at_time,
    };
    // One workspace for the whole homotopy ladder: the sparse pattern,
    // its bound device slots and the matrix, RHS and LU buffers serve
    // every rung (only gmin and the source scale change between them).
    let mut ws = NewtonWorkspace::new();
    let mut newton = |mode: StampMode, x0: &[f64], o: &NewtonOptions| {
        sys.newton_with(mode, x0, &state, o, "op", &mut ws, tel)
            .map(<[f64]>::to_vec)
    };

    // 1. Plain Newton.
    if let Ok(x) = newton(mode(1.0), &x0, opts) {
        return Ok(x);
    }

    // 2. Gmin stepping: relax a heavy conditioning conductance.
    let _span = tel.span_fine("solver", "op_homotopy");
    let mut x = x0.clone();
    let mut ok = true;
    let mut gmin = 1e-2;
    while gmin >= opts.gmin {
        let staged = NewtonOptions { gmin, ..*opts };
        match newton(mode(1.0), &x, &staged) {
            Ok(next) => x = next,
            Err(_) => {
                ok = false;
                break;
            }
        }
        gmin /= 10.0;
    }
    if ok {
        return Ok(x);
    }

    // 3. Source stepping: ramp sources from 5 % to 100 %.
    let mut x = x0;
    let steps = 20;
    for k in 1..=steps {
        let scale = k as f64 / steps as f64;
        let staged = NewtonOptions {
            gmin: opts.gmin.max(1e-9),
            ..*opts
        };
        x = newton(mode(scale), &x, &staged)?;
    }
    // Final polish at full sources and nominal gmin.
    newton(mode(1.0), &x, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 3.0));
        ckt.add(Resistor::new("R1", vin, out, 2e3));
        ckt.add(Resistor::new("R2", out, Circuit::GROUND, 1e3));
        let op = solve(&ckt).unwrap();
        assert!((op.voltage(out) - 1.0).abs() < 1e-9);
        assert!((op.voltage(vin) - 3.0).abs() < 1e-9);
        // Branch current: 3 V / 3 kΩ = 1 mA flowing out of the source's
        // positive terminal → branch current is −1 mA (SPICE convention).
        assert!((op.current("V1").unwrap() + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        ckt.add(Isource::dc("I1", Circuit::GROUND, n1, 1e-3));
        ckt.add(Resistor::new("R1", n1, Circuit::GROUND, 1e3));
        let op = solve(&ckt).unwrap();
        assert!((op.voltage(n1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 1.0));
        ckt.add(Resistor::new("R1", a, b, 100.0));
        ckt.add(Inductor::new("L1", b, Circuit::GROUND, 1e-9));
        let op = solve(&ckt).unwrap();
        assert!(op.voltage(b).abs() < 1e-6);
        assert!((op.current("L1").unwrap() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 2.0));
        ckt.add(Resistor::new("R1", a, b, 1e3));
        ckt.add(Capacitor::new("C1", b, Circuit::GROUND, 1e-12));
        let op = solve(&ckt).unwrap();
        // No DC path through C: b floats up to a's potential via R.
        assert!((op.voltage(b) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn diode_clamp_forward_drop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Isource::dc("I1", Circuit::GROUND, a, 1e-3));
        ckt.add(Diode::new("D1", a, Circuit::GROUND, DiodeParams::default()));
        let op = solve(&ckt).unwrap();
        let v = op.voltage(a);
        assert!(v > 0.5 && v < 0.8, "diode drop = {v}");
    }

    #[test]
    fn nmos_common_source_bias() {
        // NMOS with RD load: check the op point sits where the load line
        // and square law intersect.
        let params = MosParams {
            mos_type: MosType::Nmos,
            w: 10e-6,
            l: 0.18e-6,
            vth0: 0.45,
            kp: 170e-6,
            lambda: 0.1,
            cox: 8.4e-3,
            cov: 3.0e-10,
            cj: 1.0e-3,
            ldiff: 0.5e-6,
        };
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, 1.8));
        ckt.add(Vsource::dc("VG", g, Circuit::GROUND, 0.8));
        ckt.add(Resistor::new("RD", vdd, d, 1e3));
        ckt.add(Mosfet::new(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            params.clone(),
        ));
        let op = solve(&ckt).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.0 && vd < 1.8, "vd = {vd}");
        // KCL: ID = (VDD − VD)/RD must equal the square-law current.
        let id_load = (1.8 - vd) / 1e3;
        let ev = crate::devices::mosfet::square_law(&params, 0.8, vd);
        assert!(
            (id_load - ev.ids).abs() / id_load < 1e-3,
            "load {id_load} vs device {}",
            ev.ids
        );
    }

    #[test]
    fn pmos_source_follower_converges() {
        let params = MosParams {
            mos_type: MosType::Pmos,
            w: 20e-6,
            l: 0.18e-6,
            vth0: 0.45,
            kp: 60e-6,
            lambda: 0.1,
            cox: 8.4e-3,
            cov: 3.0e-10,
            cj: 1.0e-3,
            ldiff: 0.5e-6,
        };
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, 1.8));
        ckt.add(Vsource::dc("VG", g, Circuit::GROUND, 0.9));
        ckt.add(Resistor::new("RD", d, Circuit::GROUND, 500.0));
        ckt.add(Mosfet::new("M1", d, g, vdd, vdd, params));
        let op = solve(&ckt).unwrap();
        let vd = op.voltage(d);
        // PMOS pulls the drain up from ground.
        assert!(vd > 0.1, "vd = {vd}");
    }

    #[test]
    fn total_power_of_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 2.0));
        ckt.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        let op = solve(&ckt).unwrap();
        // P = V²/R = 4 mW.
        assert!((op.total_power(&ckt) - 4e-3).abs() < 1e-9);
    }

    #[test]
    fn missing_branch_current_errors() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Isource::dc("I1", Circuit::GROUND, a, 1e-3));
        ckt.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        let op = solve(&ckt).unwrap();
        assert!(matches!(op.current("I1"), Err(SpiceError::NotFound { .. })));
    }
}
