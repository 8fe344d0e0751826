//! Resistors, capacitors and inductors.

use crate::circuit::NodeId;
use crate::element::{AcStamper, DcCoupling, Element, ElementKind, StampCtx, Stamper};
use crate::lint::LintCode;
use cml_numeric::Complex64;

/// A linear resistor between two nodes.
#[derive(Debug, Clone)]
pub struct Resistor {
    name: String,
    a: NodeId,
    b: NodeId,
    ohms: f64,
}

impl Resistor {
    /// Creates a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite — zero-ohm
    /// "resistors" should be voltage sources or node merges instead.
    #[must_use]
    pub fn new(name: &str, a: NodeId, b: NodeId, ohms: f64) -> Self {
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistor {name}: resistance must be positive and finite, got {ohms}"
        );
        Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        }
    }

    /// Resistance in ohms.
    #[must_use]
    pub fn ohms(&self) -> f64 {
        self.ohms
    }
}

impl Element for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn stamp(&self, _ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        out.conductance(self.a.index(), self.b.index(), 1.0 / self.ohms);
    }

    fn stamp_ac(&self, _x_op: &[f64], _bb: usize, _omega: f64, out: &mut AcStamper<'_>) {
        out.conductance(self.a.index(), self.b.index(), 1.0 / self.ohms);
    }

    fn dc_power(&self, x_op: &[f64], _bb: usize) -> Option<f64> {
        let va = self.a.index().map_or(0.0, |i| x_op[i]);
        let vb = self.b.index().map_or(0.0, |i| x_op[i]);
        Some((va - vb) * (va - vb) / self.ohms)
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Resistor
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        vec![DcCoupling::Conductive(self.a, self.b)]
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        let mut out = Vec::new();
        if self.a == self.b {
            out.push((
                LintCode::SelfLoop,
                format!(
                    "resistor '{}' has both terminals on the same node",
                    self.name
                ),
            ));
        }
        if let Some(msg) = crate::lint::extreme_value("resistance", self.ohms, self.kind()) {
            out.push((LintCode::ExtremeParameter, msg));
        }
        out
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "R{} {} {} {:.6e}",
            self.name,
            node_name(self.a),
            node_name(self.b),
            self.ohms
        )
    }
}

/// A linear capacitor between two nodes.
///
/// Its stamp is empty: open in DC, and in transient analysis its
/// capacitance reaches the companion model through `C`, the imaginary
/// part of its AC stamp (see the transient contract on [`Element`]).
#[derive(Debug, Clone)]
pub struct Capacitor {
    name: String,
    a: NodeId,
    b: NodeId,
    farads: f64,
}

impl Capacitor {
    /// Creates a capacitor of `farads` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive and finite.
    #[must_use]
    pub fn new(name: &str, a: NodeId, b: NodeId, farads: f64) -> Self {
        assert!(
            farads > 0.0 && farads.is_finite(),
            "capacitor {name}: capacitance must be positive and finite, got {farads}"
        );
        Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
        }
    }

    /// Capacitance in farads.
    #[must_use]
    pub fn farads(&self) -> f64 {
        self.farads
    }
}

impl Element for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn stamp(&self, _ctx: &StampCtx<'_>, _out: &mut Stamper<'_>) {}

    fn stamp_ac(&self, _x_op: &[f64], _bb: usize, omega: f64, out: &mut AcStamper<'_>) {
        out.capacitance(self.a.index(), self.b.index(), self.farads, omega);
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Capacitor
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        Vec::new() // open at DC
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        let mut out = Vec::new();
        if self.a == self.b {
            out.push((
                LintCode::SelfLoop,
                format!(
                    "capacitor '{}' has both terminals on the same node",
                    self.name
                ),
            ));
        }
        if let Some(msg) = crate::lint::extreme_value("capacitance", self.farads, self.kind()) {
            out.push((LintCode::ExtremeParameter, msg));
        }
        out
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "C{} {} {} {:.6e}",
            self.name,
            node_name(self.a),
            node_name(self.b),
            self.farads
        )
    }
}

/// A linear inductor between two nodes.
///
/// Adds one branch-current unknown. Its stamp is the DC short in every
/// mode; in transient analysis `C` adds `−L` on the branch diagonal, the
/// imaginary part of its AC stamp (see the transient contract on
/// [`Element`]).
#[derive(Debug, Clone)]
pub struct Inductor {
    name: String,
    a: NodeId,
    b: NodeId,
    henries: f64,
}

impl Inductor {
    /// Creates an inductor of `henries` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not strictly positive and finite.
    #[must_use]
    pub fn new(name: &str, a: NodeId, b: NodeId, henries: f64) -> Self {
        assert!(
            henries > 0.0 && henries.is_finite(),
            "inductor {name}: inductance must be positive and finite, got {henries}"
        );
        Inductor {
            name: name.to_string(),
            a,
            b,
            henries,
        }
    }

    /// Inductance in henries.
    #[must_use]
    pub fn henries(&self) -> f64 {
        self.henries
    }
}

impl Element for Inductor {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn num_branches(&self) -> usize {
        1
    }

    fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        let (a, b) = (self.a.index(), self.b.index());
        let br = out.branch(ctx.branch_base);
        // KCL: branch current leaves a, enters b; branch row v_a − v_b = 0.
        out.mat(a, Some(br), 1.0);
        out.mat(b, Some(br), -1.0);
        out.mat(Some(br), a, 1.0);
        out.mat(Some(br), b, -1.0);
    }

    fn stamp_ac(&self, _x_op: &[f64], bb: usize, omega: f64, out: &mut AcStamper<'_>) {
        let (a, b) = (self.a.index(), self.b.index());
        let br = out.branch(bb);
        out.mat(a, Some(br), Complex64::ONE);
        out.mat(b, Some(br), -Complex64::ONE);
        out.mat(Some(br), a, Complex64::ONE);
        out.mat(Some(br), b, -Complex64::ONE);
        out.mat(
            Some(br),
            Some(br),
            Complex64::new(0.0, -omega * self.henries),
        );
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Inductor
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        vec![DcCoupling::VoltageDefined(self.a, self.b)] // DC short
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        let mut out = Vec::new();
        if self.a == self.b {
            out.push((
                LintCode::SelfLoop,
                format!(
                    "inductor '{}' has both terminals on the same node",
                    self.name
                ),
            ));
        }
        if let Some(msg) = crate::lint::extreme_value("inductance", self.henries, self.kind()) {
            out.push((LintCode::ExtremeParameter, msg));
        }
        out
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "L{} {} {} {:.6e}",
            self.name,
            node_name(self.a),
            node_name(self.b),
            self.henries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::System;
    use crate::circuit::Circuit;
    use crate::element::{Integration, StampMode};
    use cml_telemetry::Telemetry;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resistance_rejected() {
        let _ = Resistor::new("R", NodeId::GROUND, NodeId::from_raw(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_capacitance_rejected() {
        let _ = Capacitor::new("C", NodeId::GROUND, NodeId::from_raw(1), -1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nan_inductance_rejected() {
        let _ = Inductor::new("L", NodeId::GROUND, NodeId::from_raw(1), f64::NAN);
    }

    #[test]
    fn resistor_power() {
        let r = Resistor::new("R", NodeId::from_raw(1), NodeId::GROUND, 100.0);
        let x = [5.0];
        assert!((r.dc_power(&x, 0).unwrap() - 0.25).abs() < 1e-12);
    }

    /// `G + (a/dt)·C` and the fixed RHS of a lone capacitor to ground
    /// (no gmin), from history voltage `v_prev` and current `i_prev`.
    fn companion(method: Integration, v_prev: f64, i_prev: f64) -> (f64, f64) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Capacitor::new("C", a, Circuit::GROUND, 1e-12));
        let sys = System::new(&ckt);
        sys.init_tran(&[0.0], 0.0, &Telemetry::disabled()).unwrap();
        // History `[q | d]`: the charge `C·v_prev` and the current `i_prev`.
        let state = [1e-12 * v_prev, i_prev];
        let mode = StampMode::Tran {
            time: 1e-9,
            dt: 1e-12,
            method,
        };
        let (m, rhs) = crate::analysis::tests::companion(&sys, &state, mode);
        (m[(0, 0)], rhs[0])
    }

    #[test]
    fn capacitor_companion_trapezoidal() {
        let (geq, ieq) = companion(Integration::Trapezoidal, 1.0, 0.5);
        assert!((geq - 2.0).abs() < 1e-12);
        assert!((ieq - 2.5).abs() < 1e-12);
    }

    #[test]
    fn capacitor_companion_backward_euler() {
        let (geq, ieq) = companion(Integration::BackwardEuler, 2.0, 9.9);
        assert!((geq - 1.0).abs() < 1e-12);
        assert!((ieq - 2.0).abs() < 1e-12); // i_prev ignored by BE
    }
}
