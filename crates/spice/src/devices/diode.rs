//! Junction diode (Shockley model with junction capacitance).
//!
//! Used by the bandgap-style reference studies and available for ESD /
//! clamping structures. The exponential is argument-limited for Newton
//! robustness, the standard SPICE trick.

use crate::circuit::NodeId;
use crate::element::{AcStamper, DcCoupling, Element, ElementKind, StampCtx, Stamper};

/// Maximum exponent argument before linear extrapolation takes over.
const MAX_EXP_ARG: f64 = 40.0;

/// Diode model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DiodeParams {
    /// Saturation current, amps.
    pub is: f64,
    /// Emission coefficient (ideality factor).
    pub n: f64,
    /// Zero-bias junction capacitance, farads.
    pub cj0: f64,
    /// Operating temperature, °C (sets the thermal voltage).
    pub temp_c: f64,
}

impl Default for DiodeParams {
    fn default() -> Self {
        DiodeParams {
            is: 1e-14,
            n: 1.0,
            cj0: 0.0,
            temp_c: 27.0,
        }
    }
}

/// Exponential with linear continuation beyond [`MAX_EXP_ARG`] — value and
/// slope are continuous at the switchover.
fn limited_exp(x: f64) -> (f64, f64) {
    if x <= MAX_EXP_ARG {
        let e = x.exp();
        (e, e)
    } else {
        let e = MAX_EXP_ARG.exp();
        (e * (1.0 + (x - MAX_EXP_ARG)), e)
    }
}

/// A two-terminal junction diode, anode `a` → cathode `k`.
#[derive(Debug, Clone)]
pub struct Diode {
    name: String,
    a: NodeId,
    k: NodeId,
    params: DiodeParams,
}

impl Diode {
    /// Creates a diode with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `is <= 0` or `n <= 0`.
    #[must_use]
    pub fn new(name: &str, a: NodeId, k: NodeId, params: DiodeParams) -> Self {
        assert!(
            params.is > 0.0 && params.is.is_finite(),
            "diode {name}: saturation current must be positive"
        );
        assert!(
            params.n > 0.0 && params.n.is_finite(),
            "diode {name}: emission coefficient must be positive"
        );
        Diode {
            name: name.to_string(),
            a,
            k,
            params,
        }
    }

    /// Current and conductance at junction voltage `v`.
    #[must_use]
    pub fn iv(&self, v: f64) -> (f64, f64) {
        let p = &self.params;
        let vt = crate::thermal_voltage(p.temp_c) * p.n;
        let (e, de) = limited_exp(v / vt);
        let i = p.is * (e - 1.0);
        let g = p.is * de / vt;
        (i, g)
    }
}

impl Element for Diode {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.k]
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        // The junction capacitance is `C` (see the transient contract on
        // `Element`); the stamp is the junction's linearization alone.
        let (a, k) = (self.a.index(), self.k.index());
        let v = ctx.v(self.a) - ctx.v(self.k);
        let (i, g) = self.iv(v);
        out.conductance(a, k, g);
        out.current_source(a, k, i - g * v);
    }

    fn stamp_ac(&self, x_op: &[f64], _bb: usize, omega: f64, out: &mut AcStamper<'_>) {
        let va = self.a.index().map_or(0.0, |i| x_op[i]);
        let vk = self.k.index().map_or(0.0, |i| x_op[i]);
        let (_, g) = self.iv(va - vk);
        out.conductance(self.a.index(), self.k.index(), g);
        out.capacitance(self.a.index(), self.k.index(), self.params.cj0, omega);
    }

    fn dc_power(&self, x_op: &[f64], _bb: usize) -> Option<f64> {
        let va = self.a.index().map_or(0.0, |i| x_op[i]);
        let vk = self.k.index().map_or(0.0, |i| x_op[i]);
        let (i, _) = self.iv(va - vk);
        Some((va - vk) * i)
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Diode
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        vec![DcCoupling::Conductive(self.a, self.k)]
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "D{} {} {} IS={:.3e} N={:.3}",
            self.name,
            node_name(self.a),
            node_name(self.k),
            self.params.is,
            self.params.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_current_is_exponential() {
        let d = Diode::new(
            "D1",
            NodeId::from_raw(1),
            NodeId::GROUND,
            DiodeParams::default(),
        );
        let (i1, _) = d.iv(0.6);
        let (i2, _) = d.iv(0.66);
        // One decade per ~60 mV at n=1, T=27 °C.
        let ratio = i2 / i1;
        assert!(ratio > 8.0 && ratio < 12.5, "ratio = {ratio}");
    }

    #[test]
    fn reverse_current_saturates() {
        let d = Diode::new(
            "D1",
            NodeId::from_raw(1),
            NodeId::GROUND,
            DiodeParams::default(),
        );
        let (i, g) = d.iv(-1.0);
        assert!((i + 1e-14).abs() < 1e-16);
        assert!(g > 0.0, "conductance must stay positive for Newton");
    }

    #[test]
    fn limited_exp_is_continuous() {
        let below = limited_exp(MAX_EXP_ARG - 1e-9);
        let above = limited_exp(MAX_EXP_ARG + 1e-9);
        assert!((below.0 - above.0).abs() / below.0 < 1e-6);
        assert!((below.1 - above.1).abs() / below.1 < 1e-6);
    }

    #[test]
    fn limited_exp_grows_linearly_beyond_cap() {
        let (v1, _) = limited_exp(MAX_EXP_ARG + 1.0);
        let (v2, _) = limited_exp(MAX_EXP_ARG + 2.0);
        let (v3, _) = limited_exp(MAX_EXP_ARG + 3.0);
        assert!(((v3 - v2) - (v2 - v1)).abs() / v1 < 1e-12);
    }

    #[test]
    #[should_panic(expected = "saturation current")]
    fn invalid_is_panics() {
        let p = DiodeParams {
            is: 0.0,
            ..DiodeParams::default()
        };
        let _ = Diode::new("D1", NodeId::from_raw(1), NodeId::GROUND, p);
    }

    #[test]
    fn conductance_matches_numeric_derivative() {
        let d = Diode::new(
            "D1",
            NodeId::from_raw(1),
            NodeId::GROUND,
            DiodeParams::default(),
        );
        let v = 0.55;
        let h = 1e-8;
        let num = (d.iv(v + h).0 - d.iv(v - h).0) / (2.0 * h);
        let ana = d.iv(v).1;
        assert!((num - ana).abs() / ana < 1e-5);
    }
}
