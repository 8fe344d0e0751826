//! Nonlinear semiconductor device models.

pub mod diode;
pub mod mosfet;

#[cfg(test)]
mod tests {
    use super::diode::{Diode, DiodeParams};
    use super::mosfet::{MosParams, MosType, Mosfet};
    use crate::circuit::NodeId;
    use crate::element::{AcStamper, Element, Integration, StampCtx, StampMode, Stamper};
    use cml_numeric::{Complex64, ComplexMatrix, DenseMatrix};

    /// Unknowns of the test system: four non-ground nodes, no branches.
    const N: usize = 4;

    fn node(i: u32) -> NodeId {
        NodeId::from_raw(i + 1)
    }

    /// A MOSFET card; `caps` false zeroes `cgs`, `cgd` and `cjunc` and
    /// leaves the channel as it is.
    fn mosfet(mos_type: MosType, caps: bool) -> Mosfet {
        let on = if caps { 1.0 } else { 0.0 };
        let card = MosParams {
            mos_type,
            w: 10e-6,
            l: 0.18e-6,
            vth0: 0.45,
            kp: 170e-6,
            lambda: 0.1,
            cox: 8.4e-3 * on,
            cov: 3.0e-10 * on,
            cj: 1.0e-3 * on,
            ldiff: 0.5e-6,
        };
        // Drain, gate, source and body on MNA rows 0..4.
        Mosfet::new("M1", node(0), node(1), node(2), node(3), card)
    }

    fn diode(caps: bool) -> Diode {
        let params = DiodeParams {
            cj0: if caps { 50e-15 } else { 0.0 },
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
        cases_with(true)
    }

    /// [`cases`], with or without the devices' capacitances.
    fn cases_with(caps: bool) -> Vec<(Box<dyn Element>, [f64; N])> {
        vec![
            (Box::new(mosfet(MosType::Nmos, caps)), [1.2, 1.0, 0.2, 0.0]),
            (Box::new(mosfet(MosType::Nmos, caps)), [0.2, 1.0, 1.2, 0.0]),
            (Box::new(mosfet(MosType::Pmos, caps)), [0.5, 0.6, 1.8, 1.8]),
            (Box::new(mosfet(MosType::Pmos, caps)), [1.8, 0.6, 0.5, 1.8]),
            (Box::new(diode(caps)), [0.65, 0.1, 0.0, 0.0]),
        ]
    }

    fn ctx<'a>(x: &'a [f64], mode: StampMode) -> StampCtx<'a> {
        StampCtx {
            x,
            state: &[],
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

    /// A device's stamp is its resistive linearization alone, so it is the
    /// same in every mode: the step size and method of a transient mode
    /// reach it only through the compiled `C`.
    #[test]
    fn device_stamps_are_the_same_in_every_mode() {
        for (e, x) in cases() {
            let dc = dense_bits(|out| e.stamp(&ctx(&x, StampMode::dc()), out));
            for mode in modes() {
                let whole = dense_bits(|out| e.stamp(&ctx(&x, mode), out));
                assert_eq!(whole, dc, "{} at {x:?} in {mode:?}", e.name());
            }
        }
    }

    /// A device's capacitances write nothing into its stamp in any mode,
    /// DC included: they reach a transient only through the compiled `C`,
    /// so zeroing them leaves every stamp bit for bit as it was.
    #[test]
    fn device_capacitances_write_nothing_in_any_mode() {
        for ((e, x), (bare, _)) in cases().into_iter().zip(cases_with(false)) {
            for mode in modes() {
                let with_caps = dense_bits(|out| e.stamp(&ctx(&x, mode), out));
                let without = dense_bits(|out| bare.stamp(&ctx(&x, mode), out));
                assert_eq!(with_caps, without, "{} at {x:?} in {mode:?}", e.name());
            }
        }
    }

    /// A MOSFET stamps its six channel entries in every mode, and its
    /// three capacitances appear only in the imaginary part of its AC
    /// stamp: exactly `cgs` from gate to source, `cgd` from gate to drain
    /// and `cjunc` from drain to body.
    #[test]
    fn mosfet_stamps_six_entries_and_its_capacitances_only_in_c() {
        for (e, x) in cases().into_iter().take(4) {
            for mode in modes() {
                let mut positions = Vec::new();
                let mut rhs = vec![0.0; N];
                e.stamp(
                    &ctx(&x, mode),
                    &mut Stamper::pattern(&mut positions, &mut rhs, N),
                );
                assert_eq!(positions.len(), 6, "{x:?} in {mode:?}");
            }
            let mut m = ComplexMatrix::zeros(N, N);
            let mut rhs = vec![Complex64::ZERO; N];
            e.stamp_ac(&x, 0, 1.0, &mut AcStamper::new(&mut m, &mut rhs, N));
            let card = e.as_mosfet().expect("the first cases are MOSFETs").params();
            let mut want = DenseMatrix::zeros(N, N);
            let (d, g, s, b) = (0, 1, 2, 3);
            for (c, p, q) in [(card.cgs(), g, s), (card.cgd(), g, d), (card.cjunc(), d, b)] {
                want[(p, p)] += c;
                want[(q, q)] += c;
                want[(p, q)] -= c;
                want[(q, p)] -= c;
            }
            for r in 0..N {
                for c in 0..N {
                    assert_eq!(m[(r, c)].im, want[(r, c)], "C({r},{c}) at {x:?}");
                }
            }
        }
    }
}
