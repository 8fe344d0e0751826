//! Independent voltage and current sources.

use crate::circuit::NodeId;
use crate::element::{AcStamper, DcCoupling, Element, ElementKind, StampCtx, StampMode, Stamper};
use crate::lint::LintCode;
use crate::waveform::Waveform;
use cml_numeric::Complex64;

/// Value of a source's waveform under the given stamp mode.
fn source_value(w: &Waveform, mode: StampMode) -> f64 {
    match mode {
        StampMode::Dc {
            source_scale,
            at_time,
        } => source_scale * at_time.map_or_else(|| w.dc_value(), |t| w.eval(t)),
        StampMode::Tran { time, .. } => w.eval(time),
    }
}

/// An independent voltage source with an arbitrary [`Waveform`].
///
/// Positive terminal `a`, negative terminal `b`. Adds one branch-current
/// unknown; positive branch current flows from `a` through the source to
/// `b` (i.e. the source *delivers* power when the branch current is
/// negative, matching SPICE).
#[derive(Debug, Clone)]
pub struct Vsource {
    name: String,
    a: NodeId,
    b: NodeId,
    waveform: Waveform,
    ac_mag: f64,
}

impl Vsource {
    /// Creates a voltage source with the given waveform.
    #[must_use]
    pub fn new(name: &str, a: NodeId, b: NodeId, waveform: Waveform) -> Self {
        Vsource {
            name: name.to_string(),
            a,
            b,
            waveform,
            ac_mag: 0.0,
        }
    }

    /// Creates a DC voltage source.
    #[must_use]
    pub fn dc(name: &str, a: NodeId, b: NodeId, volts: f64) -> Self {
        Vsource::new(name, a, b, Waveform::dc(volts))
    }

    /// Marks this source as the AC excitation with the given magnitude
    /// (phase 0). AC analysis drives the circuit with every source whose
    /// magnitude is nonzero — conventionally exactly one, with magnitude 1.
    #[must_use]
    pub fn with_ac(mut self, magnitude: f64) -> Self {
        self.ac_mag = magnitude;
        self
    }

    /// The source waveform.
    #[must_use]
    pub fn waveform(&self) -> &Waveform {
        &self.waveform
    }
}

impl Element for Vsource {
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
        out.mat(a, Some(br), 1.0);
        out.mat(b, Some(br), -1.0);
        out.mat(Some(br), a, 1.0);
        out.mat(Some(br), b, -1.0);
        out.rhs(Some(br), source_value(&self.waveform, ctx.mode));
    }

    fn is_time_varying(&self) -> bool {
        !matches!(self.waveform, Waveform::Dc(_))
    }

    fn breakpoints(&self, t_stop: f64, out: &mut Vec<f64>) {
        self.waveform.breakpoints(t_stop, out);
    }

    fn stamp_ac(&self, _x_op: &[f64], bb: usize, _omega: f64, out: &mut AcStamper<'_>) {
        let (a, b) = (self.a.index(), self.b.index());
        let br = out.branch(bb);
        out.mat(a, Some(br), Complex64::ONE);
        out.mat(b, Some(br), -Complex64::ONE);
        out.mat(Some(br), a, Complex64::ONE);
        out.mat(Some(br), b, -Complex64::ONE);
        out.rhs(Some(br), Complex64::from_real(self.ac_mag));
    }

    fn dc_power(&self, x_op: &[f64], branch_base_abs: usize) -> Option<f64> {
        let va = self.a.index().map_or(0.0, |i| x_op[i]);
        let vb = self.b.index().map_or(0.0, |i| x_op[i]);
        let i = x_op[branch_base_abs];
        // Power absorbed by the source; negative when delivering.
        Some((va - vb) * i)
    }

    fn kind(&self) -> ElementKind {
        ElementKind::VoltageSource
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        vec![DcCoupling::VoltageDefined(self.a, self.b)]
    }

    fn dc_source_value(&self) -> Option<f64> {
        Some(self.waveform.dc_value())
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        if matches!(self.waveform, Waveform::Dc(v) if v == 0.0) && self.ac_mag == 0.0 {
            vec![(
                LintCode::DeadSource,
                format!(
                    "voltage source '{}' is 0 V DC with no AC magnitude",
                    self.name
                ),
            )]
        } else {
            Vec::new()
        }
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "V{} {} {} DC {:.6e}",
            self.name,
            node_name(self.a),
            node_name(self.b),
            self.waveform.dc_value()
        )
    }
}

/// An independent current source with an arbitrary [`Waveform`].
///
/// Positive current flows from `a` through the source into `b` (SPICE
/// convention), i.e. a positive DC value pulls current out of node `a` and
/// pushes it into node `b`.
#[derive(Debug, Clone)]
pub struct Isource {
    name: String,
    a: NodeId,
    b: NodeId,
    waveform: Waveform,
    ac_mag: f64,
}

impl Isource {
    /// Creates a current source with the given waveform.
    #[must_use]
    pub fn new(name: &str, a: NodeId, b: NodeId, waveform: Waveform) -> Self {
        Isource {
            name: name.to_string(),
            a,
            b,
            waveform,
            ac_mag: 0.0,
        }
    }

    /// Creates a DC current source.
    #[must_use]
    pub fn dc(name: &str, a: NodeId, b: NodeId, amps: f64) -> Self {
        Isource::new(name, a, b, Waveform::dc(amps))
    }

    /// Marks this source as the AC excitation with the given magnitude.
    #[must_use]
    pub fn with_ac(mut self, magnitude: f64) -> Self {
        self.ac_mag = magnitude;
        self
    }

    /// The source waveform.
    #[must_use]
    pub fn waveform(&self) -> &Waveform {
        &self.waveform
    }
}

impl Element for Isource {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        let i = source_value(&self.waveform, ctx.mode);
        out.current_source(self.a.index(), self.b.index(), i);
    }

    fn is_time_varying(&self) -> bool {
        !matches!(self.waveform, Waveform::Dc(_))
    }

    fn breakpoints(&self, t_stop: f64, out: &mut Vec<f64>) {
        self.waveform.breakpoints(t_stop, out);
    }

    fn stamp_ac(&self, _x_op: &[f64], _bb: usize, _omega: f64, out: &mut AcStamper<'_>) {
        let i = Complex64::from_real(self.ac_mag);
        out.rhs(self.a.index(), -i);
        out.rhs(self.b.index(), i);
    }

    fn dc_power(&self, x_op: &[f64], _bb: usize) -> Option<f64> {
        let va = self.a.index().map_or(0.0, |i| x_op[i]);
        let vb = self.b.index().map_or(0.0, |i| x_op[i]);
        Some((va - vb) * self.waveform.dc_value())
    }

    fn kind(&self) -> ElementKind {
        ElementKind::CurrentSource
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        vec![DcCoupling::CurrentInjection(self.a, self.b)]
    }

    fn dc_source_value(&self) -> Option<f64> {
        Some(self.waveform.dc_value())
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        if matches!(self.waveform, Waveform::Dc(v) if v == 0.0) && self.ac_mag == 0.0 {
            vec![(
                LintCode::DeadSource,
                format!(
                    "current source '{}' is 0 A DC with no AC magnitude",
                    self.name
                ),
            )]
        } else {
            Vec::new()
        }
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "I{} {} {} DC {:.6e}",
            self.name,
            node_name(self.a),
            node_name(self.b),
            self.waveform.dc_value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_source_value_scales() {
        let w = Waveform::dc(2.0);
        let v = source_value(
            &w,
            StampMode::Dc {
                source_scale: 0.25,
                at_time: None,
            },
        );
        assert_eq!(v, 0.5);
    }

    #[test]
    fn at_time_evaluates_waveform() {
        let w = Waveform::step(0.0, 1.0, 1e-9, 1e-10);
        let v = source_value(
            &w,
            StampMode::Dc {
                source_scale: 1.0,
                at_time: Some(5e-9),
            },
        );
        assert_eq!(v, 1.0);
    }

    #[test]
    fn tran_mode_uses_time() {
        let w = Waveform::step(0.0, 1.0, 1e-9, 1e-10);
        let v = source_value(
            &w,
            StampMode::Tran {
                time: 0.0,
                dt: 1e-12,
                method: crate::element::Integration::Trapezoidal,
            },
        );
        assert_eq!(v, 0.0);
    }

    #[test]
    fn builders_set_ac() {
        let v = Vsource::dc("V1", NodeId::from_raw(1), NodeId::GROUND, 1.0).with_ac(1.0);
        assert_eq!(v.ac_mag, 1.0);
        let i = Isource::dc("I1", NodeId::from_raw(1), NodeId::GROUND, 1.0);
        assert_eq!(i.ac_mag, 0.0);
    }
}
