//! Nonlinear semiconductor device models.

pub mod diode;
pub mod mosfet;

use crate::element::{Integration, StampCtx, StampMode, Stamper};

/// Shared companion-model helper for the fixed capacitances inside device
/// models (MOSFET terminal caps, diode junction cap).
///
/// State layout per capacitance: `[v_prev, i_prev]`.
pub(crate) struct DeviceCap;

impl DeviceCap {
    /// Stamps one internal capacitance for the current mode. `state` is the
    /// 2-slot state slice for this capacitance.
    pub(crate) fn stamp(
        ctx: &StampCtx<'_>,
        out: &mut Stamper<'_>,
        c: f64,
        a: Option<usize>,
        b: Option<usize>,
        state: &[f64],
    ) {
        if c <= 0.0 {
            return;
        }
        if let StampMode::Tran { dt, method, .. } = ctx.mode {
            let (geq, ieq) = Self::companion(c, dt, method, state[0], state[1]);
            out.conductance(a, b, geq);
            out.current_source(b, a, ieq);
        }
    }

    /// Writes next state for one internal capacitance after convergence.
    pub(crate) fn update(
        ctx: &StampCtx<'_>,
        c: f64,
        va: f64,
        vb: f64,
        state_prev: &[f64],
        state_next: &mut [f64],
    ) {
        if let StampMode::Tran { dt, method, .. } = ctx.mode {
            Self::advance(c, dt, method, va - vb, state_prev, state_next);
        }
    }

    /// Writes the next state of a capacitance whose voltage is now
    /// `v_new` after a step of `dt` by `method`: the voltage and the
    /// companion current `geq·v_new − ieq` of that step.
    pub(crate) fn advance(
        c: f64,
        dt: f64,
        method: Integration,
        v_new: f64,
        state_prev: &[f64],
        state_next: &mut [f64],
    ) {
        let (geq, ieq) = Self::companion(c, dt, method, state_prev[0], state_prev[1]);
        state_next[0] = v_new;
        state_next[1] = geq * v_new - ieq;
    }

    /// Initializes state from a DC solution.
    pub(crate) fn init(va: f64, vb: f64, state: &mut [f64]) {
        state[0] = va - vb;
        state[1] = 0.0;
    }

    /// Companion conductance and history current of capacitance `c`
    /// for a step of `dt` by `method` from state `[v_prev, i_prev]`.
    pub(crate) fn companion(
        c: f64,
        dt: f64,
        method: Integration,
        v_prev: f64,
        i_prev: f64,
    ) -> (f64, f64) {
        match method {
            Integration::Trapezoidal => {
                let geq = 2.0 * c / dt;
                (geq, geq * v_prev + i_prev)
            }
            Integration::BackwardEuler => {
                let geq = c / dt;
                (geq, geq * v_prev)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::diode::{Diode, DiodeParams};
    use super::mosfet::{MosParams, MosType, Mosfet};
    use crate::circuit::NodeId;
    use crate::element::{Element, Integration, StampCtx, StampMode, StampPart, Stamper};
    use cml_numeric::DenseMatrix;

    /// Unknowns of the test system: four non-ground nodes, no branches.
    const N: usize = 4;

    fn node(i: u32) -> NodeId {
        NodeId::from_raw(i + 1)
    }

    fn mosfet(mos_type: MosType) -> Mosfet {
        let card = MosParams {
            mos_type,
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
        // Drain, gate, source and body on MNA rows 0..4.
        Mosfet::new("M1", node(0), node(1), node(2), node(3), card)
    }

    fn diode() -> Diode {
        let params = DiodeParams {
            cj0: 50e-15,
            ..DiodeParams::default()
        };
        Diode::new("D1", node(0), node(1), params)
    }

    fn modes() -> [StampMode; 3] {
        let tran = |method| StampMode::Tran {
            time: 1e-9,
            dt: 5e-12,
            method,
        };
        [
            StampMode::dc(),
            tran(Integration::Trapezoidal),
            tran(Integration::BackwardEuler),
        ]
    }

    /// Every device under test with the guesses it is stamped at: NMOS
    /// and PMOS with normal and swapped drain/source, and the diode.
    fn cases() -> Vec<(Box<dyn Element>, [f64; N])> {
        vec![
            (Box::new(mosfet(MosType::Nmos)), [1.2, 1.0, 0.2, 0.0]),
            (Box::new(mosfet(MosType::Nmos)), [0.2, 1.0, 1.2, 0.0]),
            (Box::new(mosfet(MosType::Pmos)), [0.5, 0.6, 1.8, 1.8]),
            (Box::new(mosfet(MosType::Pmos)), [1.8, 0.6, 0.5, 1.8]),
            (Box::new(diode()), [0.65, 0.1, 0.0, 0.0]),
        ]
    }

    /// Previous-step state: `[v_prev, i_prev]` per device capacitance.
    const STATE: [f64; 6] = [0.8, 1e-5, -0.2, 2e-6, 1.0, -3e-6];

    fn ctx<'a>(e: &dyn Element, x: &'a [f64], mode: StampMode) -> StampCtx<'a> {
        StampCtx {
            x,
            state: &STATE[..e.state_size()],
            branch_base: 0,
            n_nodes: N,
            mode,
        }
    }

    /// Bit patterns of the matrix and RHS after `stamp` runs on a zeroed
    /// dense system.
    fn dense_bits(stamp: impl FnOnce(&mut Stamper<'_>)) -> Vec<u64> {
        let mut m = DenseMatrix::zeros(N, N);
        let mut rhs = vec![0.0; N];
        stamp(&mut Stamper::new(&mut m, &mut rhs, N));
        m.as_slice()
            .iter()
            .chain(&rhs)
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn guess_dependent_then_fixed_part_equals_whole_stamp() {
        for (e, x) in cases() {
            for mode in modes() {
                let whole = dense_bits(|out| e.stamp(&ctx(&*e, &x, mode), out));
                let split = dense_bits(|out| {
                    let part = StampPart::GuessDependent;
                    e.stamp_part(&ctx(&*e, &x, mode), None, part, out);
                    // The fixed part must not read the guess: an empty
                    // slice panics on any voltage lookup.
                    e.stamp_part(&ctx(&*e, &[], mode), None, StampPart::Fixed, out);
                });
                assert_eq!(split, whole, "{} at {x:?} in {mode:?}", e.name());
                let via_part = dense_bits(|out| {
                    e.stamp_part(&ctx(&*e, &x, mode), None, StampPart::Whole, out);
                });
                assert_eq!(via_part, whole, "{} at {x:?} in {mode:?}", e.name());
            }
        }
    }

    #[test]
    fn fixed_part_writes_nothing_in_dc() {
        for (e, _) in cases() {
            let fixed = dense_bits(|out| {
                e.stamp_part(&ctx(&*e, &[], StampMode::dc()), None, StampPart::Fixed, out);
            });
            assert!(fixed.iter().all(|&b| b == 0), "{}", e.name());
        }
    }

    #[test]
    fn mosfet_parts_write_six_and_twelve_matrix_entries_in_tran() {
        let mode = modes()[1];
        for (e, x) in cases().into_iter().take(4) {
            let count = |x: &[f64], part| {
                let mut positions = Vec::new();
                let mut rhs = vec![0.0; N];
                let mut out = Stamper::pattern(&mut positions, &mut rhs, N);
                e.stamp_part(&ctx(&*e, x, mode), None, part, &mut out);
                positions.len()
            };
            assert_eq!(count(&x, StampPart::GuessDependent), 6, "{x:?}");
            assert_eq!(count(&[], StampPart::Fixed), 12, "{x:?}");
            assert_eq!(count(&x, StampPart::Whole), 18, "{x:?}");
        }
    }
}
