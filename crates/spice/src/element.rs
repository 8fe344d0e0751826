//! The element interface: how devices stamp themselves into the MNA system.
//!
//! Every circuit element implements [`Element`]. During each Newton
//! iteration the analysis drivers call [`Element::stamp`] with the current
//! solution guess; linear elements stamp constants, nonlinear elements stamp
//! their linearization (Norton companion form, exactly as SPICE does).
//! Reactive parts (capacitances, inductances) are never stamped there: they
//! are the imaginary parts of [`Element::stamp_ac`], which the transient
//! solver compiles once per circuit (see the transient contract on
//! [`Element`]).

use crate::circuit::NodeId;
use crate::devices::mosfet::Mosfet;
use cml_numeric::sparse::CsrMatrix;
use cml_numeric::{Complex64, ComplexMatrix, DenseMatrix};
use std::fmt;

/// Numerical integration method for transient companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integration {
    /// Trapezoidal rule — second-order, the SPICE default.
    #[default]
    Trapezoidal,
    /// Backward Euler — first-order, more damped; useful for circuits with
    /// trapezoidal ringing artifacts.
    BackwardEuler,
}

/// What kind of solve the current stamp call belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StampMode {
    /// DC solve (operating point, DC sweep, or transient initial condition).
    Dc {
        /// Scale factor applied to all independent sources (source
        /// stepping homotopy uses values < 1).
        source_scale: f64,
        /// When `Some(t)`, sources evaluate their waveform at `t` instead
        /// of their DC value (used for the transient initial solution).
        at_time: Option<f64>,
    },
    /// One timestep of transient analysis.
    Tran {
        /// Absolute time of the step being solved (end of the interval).
        time: f64,
        /// Step size.
        dt: f64,
        /// Companion-model integration method.
        method: Integration,
    },
}

impl StampMode {
    /// Plain DC mode with full sources.
    #[must_use]
    pub fn dc() -> Self {
        StampMode::Dc {
            source_scale: 1.0,
            at_time: None,
        }
    }
}

/// Per-element context for a stamp call.
#[derive(Debug)]
pub struct StampCtx<'a> {
    /// Current Newton guess: node voltages followed by branch currents.
    pub x: &'a [f64],
    /// This element's slice of previous-timestep state. The solvers keep
    /// transient history in node space and always pass an empty slice;
    /// see [`Element::state_size`].
    pub state: &'a [f64],
    /// First branch-current unknown allocated to this element (offset into
    /// the branch region; see [`Stamper::branch`]).
    pub branch_base: usize,
    /// Number of non-ground nodes in the system (`x[n_nodes..]` are the
    /// branch currents).
    pub n_nodes: usize,
    /// Analysis mode.
    pub mode: StampMode,
}

impl StampCtx<'_> {
    /// Voltage of `node` under the current guess (0 for ground).
    #[must_use]
    pub fn v(&self, node: NodeId) -> f64 {
        match node.index() {
            Some(i) => self.x[i],
            None => 0.0,
        }
    }

    /// Absolute index into `x` of this element's first branch current.
    #[must_use]
    pub fn branch_base_abs(&self) -> usize {
        self.n_nodes + self.branch_base
    }
}

/// One write of a recording [`Stamper`], in call order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StampWrite {
    /// `v` added at matrix position `(row, col)`.
    Mat(usize, usize, f64),
    /// `v` added to the RHS at `row`.
    Rhs(usize, f64),
}

/// Where matrix writes of a [`Stamper`] go.
#[derive(Debug)]
enum MatSink<'a> {
    /// Discard matrix writes (RHS-only assembly over a cached Jacobian).
    Discard,
    /// Accumulate into a dense MNA matrix.
    Dense(&'a mut DenseMatrix),
    /// Record `(row, col)` of every write; values are discarded. Used
    /// once per topology to discover the sparsity pattern.
    Pattern(&'a mut Vec<(usize, usize)>),
    /// Accumulate into the reserved slots of a fixed-pattern CSR matrix,
    /// each found by binary search. `missing` records a write outside
    /// the pattern.
    Sparse {
        mat: &'a mut CsrMatrix,
        missing: bool,
    },
    /// Record every matrix *and* RHS write, with its value, in call
    /// order; nothing is accumulated.
    Record(&'a mut Vec<StampWrite>),
}

/// Write access to the real MNA matrix and right-hand side, with
/// ground-aware indexing.
///
/// The matrix side is pluggable: analyses that need only the right-hand
/// side (the transient's source vector) construct the stamper with
/// [`Stamper::rhs_only`] and every matrix write is dropped; the sparse
/// solve path uses [`Stamper::pattern`] once per topology and
/// [`Stamper::sparse`] for every element outside the MOSFET device
/// table on each assembly.
#[derive(Debug)]
pub struct Stamper<'a> {
    matrix: MatSink<'a>,
    rhs: &'a mut [f64],
    n_nodes: usize,
}

impl<'a> Stamper<'a> {
    /// Creates a stamper over an MNA system with `n_nodes` non-ground nodes.
    pub fn new(matrix: &'a mut DenseMatrix, rhs: &'a mut [f64], n_nodes: usize) -> Self {
        Stamper {
            matrix: MatSink::Dense(matrix),
            rhs,
            n_nodes,
        }
    }

    /// Creates a stamper that assembles only the right-hand side,
    /// discarding matrix writes (used when a cached factorization of the
    /// unchanged Jacobian is being reused).
    pub fn rhs_only(rhs: &'a mut [f64], n_nodes: usize) -> Self {
        Stamper {
            matrix: MatSink::Discard,
            rhs,
            n_nodes,
        }
    }

    /// Creates a stamper that records the `(row, col)` position of every
    /// matrix write into `positions` instead of accumulating values —
    /// the pattern-discovery pass of the sparse solve path.
    pub fn pattern(
        positions: &'a mut Vec<(usize, usize)>,
        rhs: &'a mut [f64],
        n_nodes: usize,
    ) -> Self {
        Stamper {
            matrix: MatSink::Pattern(positions),
            rhs,
            n_nodes,
        }
    }

    /// Creates a stamper that accumulates matrix writes directly into the
    /// reserved nonzero slots of `matrix` (a fixed-pattern CSR built by
    /// the analysis). A write outside the pattern is dropped and
    /// reported by [`Stamper::missed_pattern`].
    pub fn sparse(matrix: &'a mut CsrMatrix, rhs: &'a mut [f64], n_nodes: usize) -> Self {
        Stamper {
            matrix: MatSink::Sparse {
                mat: matrix,
                missing: false,
            },
            rhs,
            n_nodes,
        }
    }

    /// Whether a write of a [`sparse`](Self::sparse) stamper hit a
    /// position absent from the matrix pattern.
    #[must_use]
    pub fn missed_pattern(&self) -> bool {
        matches!(self.matrix, MatSink::Sparse { missing: true, .. })
    }

    /// Creates a stamper that records every non-ground matrix and RHS
    /// write into `writes`, in call order, without summing any two: how
    /// the batched solver replays a stamp write by write.
    pub(crate) fn record(writes: &'a mut Vec<StampWrite>, n_nodes: usize) -> Self {
        Stamper {
            matrix: MatSink::Record(writes),
            rhs: &mut [],
            n_nodes,
        }
    }

    /// Row/column index of a branch unknown.
    #[must_use]
    pub fn branch(&self, branch: usize) -> usize {
        self.n_nodes + branch
    }

    /// Adds `v` at matrix position (`r`, `c`); either index may be a ground
    /// node (`None`), in which case the write is dropped. In rhs-only mode
    /// all matrix writes are dropped.
    pub fn mat(&mut self, r: Option<usize>, c: Option<usize>, v: f64) {
        let (Some(r), Some(c)) = (r, c) else { return };
        match &mut self.matrix {
            MatSink::Discard => {}
            MatSink::Dense(m) => m[(r, c)] += v,
            MatSink::Pattern(p) => p.push((r, c)),
            MatSink::Record(w) => w.push(StampWrite::Mat(r, c, v)),
            MatSink::Sparse { mat, missing } => match mat.find(r, c) {
                Some(s) => mat.vals_mut()[s] += v,
                None => *missing = true,
            },
        }
    }

    /// Adds `v` to the RHS at row `r` (ignored for ground).
    pub fn rhs(&mut self, r: Option<usize>, v: f64) {
        if let Some(r) = r {
            match &mut self.matrix {
                MatSink::Record(w) => w.push(StampWrite::Rhs(r, v)),
                _ => self.rhs[r] += v,
            }
        }
    }

    /// Stamps a conductance `g` between nodes `a` and `b` (standard
    /// two-terminal pattern).
    pub fn conductance(&mut self, a: Option<usize>, b: Option<usize>, g: f64) {
        self.mat(a, a, g);
        self.mat(b, b, g);
        self.mat(a, b, -g);
        self.mat(b, a, -g);
    }

    /// Stamps a current source of value `i` flowing from node `a` through
    /// the element to node `b` (SPICE convention: `i` leaves `a`, enters `b`).
    pub fn current_source(&mut self, a: Option<usize>, b: Option<usize>, i: f64) {
        self.rhs(a, -i);
        self.rhs(b, i);
    }
}

/// Where matrix writes of an [`AcStamper`] go — the complex mirror of
/// [`MatSink`], minus the discard mode (AC has no RHS-only reuse: a
/// sweep stamps once, matrix and RHS together).
#[derive(Debug)]
enum AcMatSink<'a> {
    /// Accumulate into a dense complex MNA matrix.
    Dense(&'a mut ComplexMatrix),
    /// Record `(row, col)` of every write; values are discarded. Used
    /// once per topology to discover the frequency-independent union
    /// pattern of `G + jωC`.
    Pattern(&'a mut Vec<(usize, usize)>),
    /// Accumulate into the reserved slots of a fixed-pattern complex CSR
    /// matrix, each found by binary search. `missing` records a write
    /// outside the pattern.
    Sparse {
        mat: &'a mut CsrMatrix<Complex64>,
        missing: bool,
    },
}

/// Write access to the complex small-signal MNA system.
///
/// Like [`Stamper`], the matrix side is pluggable: the sparse AC path
/// discovers the stamp pattern once per topology via
/// [`AcStamper::pattern`] and then stamps values into the reserved CSR
/// slots via [`AcStamper::sparse`] once per sweep, at `ω = 1`; every
/// frequency point is rebuilt from that stamp as `G + jωC` (see
/// [`Element::stamp_ac`]).
#[derive(Debug)]
pub struct AcStamper<'a> {
    matrix: AcMatSink<'a>,
    rhs: &'a mut [Complex64],
    n_nodes: usize,
}

impl<'a> AcStamper<'a> {
    /// Creates an AC stamper over a system with `n_nodes` non-ground nodes.
    pub fn new(matrix: &'a mut ComplexMatrix, rhs: &'a mut [Complex64], n_nodes: usize) -> Self {
        AcStamper {
            matrix: AcMatSink::Dense(matrix),
            rhs,
            n_nodes,
        }
    }

    /// Creates an AC stamper that records the `(row, col)` position of
    /// every matrix write into `positions` instead of accumulating values
    /// — the pattern-discovery pass of the sparse AC path. The recorded
    /// union pattern is frequency-independent because every element
    /// writes its full `G + jωC` footprint regardless of `omega`.
    pub fn pattern(
        positions: &'a mut Vec<(usize, usize)>,
        rhs: &'a mut [Complex64],
        n_nodes: usize,
    ) -> Self {
        AcStamper {
            matrix: AcMatSink::Pattern(positions),
            rhs,
            n_nodes,
        }
    }

    /// Creates an AC stamper that accumulates matrix writes directly into
    /// the reserved nonzero slots of `matrix` (a fixed-pattern complex
    /// CSR built by the analysis). A write outside the pattern is
    /// dropped and reported by [`AcStamper::missed_pattern`].
    pub fn sparse(
        matrix: &'a mut CsrMatrix<Complex64>,
        rhs: &'a mut [Complex64],
        n_nodes: usize,
    ) -> Self {
        AcStamper {
            matrix: AcMatSink::Sparse {
                mat: matrix,
                missing: false,
            },
            rhs,
            n_nodes,
        }
    }

    /// Whether a write of a [`sparse`](Self::sparse) stamper hit a
    /// position absent from the matrix pattern.
    #[must_use]
    pub fn missed_pattern(&self) -> bool {
        matches!(self.matrix, AcMatSink::Sparse { missing: true, .. })
    }

    /// Row/column index of a branch unknown.
    #[must_use]
    pub fn branch(&self, branch: usize) -> usize {
        self.n_nodes + branch
    }

    /// Adds `v` at (`r`, `c`), dropping ground writes.
    pub fn mat(&mut self, r: Option<usize>, c: Option<usize>, v: Complex64) {
        let (Some(r), Some(c)) = (r, c) else { return };
        match &mut self.matrix {
            AcMatSink::Dense(m) => m[(r, c)] += v,
            AcMatSink::Pattern(p) => p.push((r, c)),
            AcMatSink::Sparse { mat, missing } => match mat.find(r, c) {
                Some(s) => mat.vals_mut()[s] += v,
                None => *missing = true,
            },
        }
    }

    /// Adds `v` to the RHS at `r` (dropped for ground).
    pub fn rhs(&mut self, r: Option<usize>, v: Complex64) {
        if let Some(r) = r {
            self.rhs[r] += v;
        }
    }

    /// Stamps a complex admittance `y` between nodes `a` and `b`.
    pub fn admittance(&mut self, a: Option<usize>, b: Option<usize>, y: Complex64) {
        self.mat(a, a, y);
        self.mat(b, b, y);
        self.mat(a, b, -y);
        self.mat(b, a, -y);
    }

    /// Stamps a real conductance between nodes `a` and `b`.
    pub fn conductance(&mut self, a: Option<usize>, b: Option<usize>, g: f64) {
        self.admittance(a, b, Complex64::from_real(g));
    }

    /// Stamps a capacitance `c` between `a` and `b` at angular frequency `omega`.
    pub fn capacitance(&mut self, a: Option<usize>, b: Option<usize>, c: f64, omega: f64) {
        self.admittance(a, b, Complex64::new(0.0, omega * c));
    }

    /// Stamps a transconductance: current `gm·(v_cp − v_cn)` flowing from
    /// `a` to `b`.
    pub fn transconductance(
        &mut self,
        a: Option<usize>,
        b: Option<usize>,
        cp: Option<usize>,
        cn: Option<usize>,
        gm: f64,
    ) {
        let g = Complex64::from_real(gm);
        self.mat(a, cp, g);
        self.mat(a, cn, -g);
        self.mat(b, cp, -g);
        self.mat(b, cn, g);
    }
}

/// Coarse element classification, used by the netlist linter
/// ([`crate::lint`]) and other diagnostics to reason about an element
/// without downcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementKind {
    /// Linear resistor.
    Resistor,
    /// Linear capacitor.
    Capacitor,
    /// Linear inductor.
    Inductor,
    /// Independent voltage source.
    VoltageSource,
    /// Independent current source.
    CurrentSource,
    /// Voltage-controlled voltage source.
    Vcvs,
    /// Voltage-controlled current source.
    Vccs,
    /// MOSFET device.
    Mosfet,
    /// Diode device.
    Diode,
    /// Anything else (custom or behavioural elements).
    Other,
}

/// How a pair of element terminals is coupled at DC, as seen by the
/// netlist linter's connectivity and loop analyses ([`crate::lint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcCoupling {
    /// A finite, generically nonzero DC conductance links the two nodes
    /// (resistor, diode, MOSFET channel, VCCS output that can hold its
    /// node).
    Conductive(NodeId, NodeId),
    /// The element forces the DC voltage difference between the two
    /// nodes through a branch-current unknown (voltage source, inductor
    /// as a DC short, VCVS output branch). Loops of such couplings make
    /// the MNA system singular.
    VoltageDefined(NodeId, NodeId),
    /// A guess-independent current is pushed between the nodes with no
    /// matrix entries at all (independent current source). Cutsets made
    /// only of such couplings leave the island's potential undefined.
    CurrentInjection(NodeId, NodeId),
}

/// A circuit element that can stamp itself into the MNA system.
///
/// Implementors live in [`crate::elements`] and [`crate::devices`]. The
/// trait is object-safe; circuits own elements as `Box<dyn Element>`.
///
/// # The transient contract
///
/// A transient step solves `G(x)·x + C·ẋ = b(t)` by trapezoidal or
/// backward-Euler companion models. The solver compiles the linear part
/// once per circuit from two methods every element already has, and adds
/// nothing per element:
///
/// * [`stamp_ac`](Element::stamp_ac) at `ω = 1`: the real parts of every
///   *linear* element's stamp are its part of `G`, and the imaginary parts
///   of *every* element's stamp are its part of `C`. So a linear
///   element's real part must equal the matrix its [`stamp`](Element::stamp)
///   writes, and the imaginary part of any element must not depend on the
///   operating point: every capacitance in the simulator is fixed.
/// * [`stamp`](Element::stamp), right-hand side only: the sources `b(t)`.
///   Linear elements whose right-hand side changes with time report it
///   through [`is_time_varying`](Element::is_time_varying); the rest are
///   summed once.
///
/// Each Newton iteration then loads `G + (a/dt)·C` (`a` = 2 for
/// trapezoidal, 1 for backward Euler) and adds the `stamp` of every
/// nonlinear element at the guess. So `stamp` never writes a reactive
/// part: a capacitor stamps nothing and an inductor stamps its DC short,
/// whose branch row `v_a − v_b = 0` becomes `v_a − v_b − (a·L/dt)·i`
/// once `C` adds `−L` on the branch diagonal.
pub trait Element: fmt::Debug + Send + Sync {
    /// Unique name of the element instance (used in diagnostics and for
    /// branch-current lookup).
    fn name(&self) -> &str;

    /// Nodes this element connects to (used for connectivity checks).
    fn nodes(&self) -> Vec<NodeId>;

    /// Number of extra branch-current unknowns this element adds to the
    /// MNA system (voltage sources and inductors need one).
    fn num_branches(&self) -> usize {
        0
    }

    /// Number of `f64` state slots the element needs across transient
    /// timesteps. No builtin element keeps any: the solver holds the
    /// transient history of the whole circuit in node space (see the
    /// transient contract above) and never allocates element state. The
    /// hook stays for outside callers that lay out a state arena, such as
    /// the benchmark's stamp probe.
    fn state_size(&self) -> usize {
        0
    }

    /// Initializes transient state from a converged DC solution `x`; see
    /// [`state_size`](Element::state_size).
    fn init_state(&self, _ctx: &StampCtx<'_>, _state: &mut [f64]) {}

    /// Whether this element's stamp depends on the Newton guess `ctx.x`.
    ///
    /// When this returns `false` (the default), the element promises that
    /// its **entire** stamp — matrix *and* RHS — is a function of
    /// `ctx.mode` only, never of `ctx.x`. The transient solver compiles
    /// such elements once per circuit and reuses the LU factorization of
    /// a linear circuit across timesteps; a violating element would
    /// silently converge to wrong answers, so nonlinear devices (MOSFET,
    /// diode) must override this to return `true`.
    fn is_nonlinear(&self) -> bool {
        false
    }

    /// Whether the right-hand side of this linear element's stamp changes
    /// with time: independent sources with a PWL, pulse or sine waveform.
    /// The transient solver evaluates these at every step and sums the
    /// right-hand side of every other linear element once per circuit.
    fn is_time_varying(&self) -> bool {
        false
    }

    /// Stamps the element's resistive contribution for the mode in
    /// `ctx.mode`: conductances, incidences and source values at the
    /// mode's time, linearized at `ctx.x` for nonlinear elements. The
    /// reactive part is never stamped here (see the transient contract
    /// above).
    fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>);

    /// The MOSFET behind this element, if it is one. The solver stamps
    /// MOSFETs from a device table built once per circuit rather than
    /// through [`Element::stamp`]; every other element keeps the `None`
    /// default.
    fn as_mosfet(&self) -> Option<&Mosfet> {
        None
    }

    /// Appends the times in `[0, t_stop]` at which this element's
    /// behaviour has a corner (PWL knots, pulse edges, …). The adaptive
    /// transient controller lands a step exactly on every breakpoint so
    /// sharp source edges are never straddled by a large step. Stateless
    /// smooth elements keep the empty default.
    fn breakpoints(&self, _t_stop: f64, _out: &mut Vec<f64>) {}

    /// Stamps the small-signal contribution at angular frequency `omega`,
    /// linearized around the operating point `x_op`.
    ///
    /// The matrix stamp must be affine in `omega`: it must equal
    /// `G + jωC` with `G` and `C` real matrices that do not depend on
    /// `omega`, and the RHS (the excitation) must not depend on `omega`
    /// at all. The sparse AC sweep relies on this: it stamps every
    /// element once, at `ω = 1`, takes `G` from the real parts and `C`
    /// from the imaginary parts, and rebuilds each frequency point as
    /// `G + jωC` without calling this method again. An element whose
    /// admittance is not affine in `omega` (a `1/(jωL)` two-terminal
    /// stamp, for example) must add a branch unknown instead, as
    /// [`Inductor`](crate::elements::two_terminal::Inductor) does. The
    /// transient solver reads the same `ω = 1` split for its `G` and `C`
    /// (see the transient contract on [`Element`]).
    fn stamp_ac(&self, x_op: &[f64], branch_base: usize, omega: f64, out: &mut AcStamper<'_>);

    /// DC power dissipated by the element at operating point `x_op`, in
    /// watts; `None` when the notion does not apply. Sources report the
    /// power they *deliver* as negative dissipation.
    fn dc_power(&self, _x_op: &[f64], _branch_base: usize) -> Option<f64> {
        None
    }

    /// Coarse classification of this element for diagnostics. Custom
    /// elements may keep the [`ElementKind::Other`] default.
    fn kind(&self) -> ElementKind {
        ElementKind::Other
    }

    /// DC couplings between this element's terminals, consumed by the
    /// netlist linter's connectivity, loop and cutset analyses.
    ///
    /// The default is deliberately generous — every terminal pair is
    /// reported [`DcCoupling::Conductive`] — so that unknown custom
    /// elements can never cause false-positive "no DC path" errors;
    /// genuinely broken topologies are still caught by the structural
    /// rank check, which works from the recorded stamp pattern alone.
    /// Built-in elements override this with their true couplings.
    fn dc_couplings(&self) -> Vec<DcCoupling> {
        let nodes = self.nodes();
        let mut out = Vec::new();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                out.push(DcCoupling::Conductive(nodes[i], nodes[j]));
            }
        }
        out
    }

    /// DC value of an independent source, `None` for everything else.
    /// Used by the linter's bias-path heuristics.
    fn dc_source_value(&self) -> Option<f64> {
        None
    }

    /// Element-local sanity findings (degenerate connections, dead
    /// sources, implausible parameter magnitudes) as `(code, message)`
    /// pairs; the linter wraps them into full diagnostics. The default
    /// reports nothing.
    fn lint_self(&self) -> Vec<(crate::lint::LintCode, String)> {
        Vec::new()
    }

    /// SPICE-netlist card for this element, using `node_name` to render
    /// node references. The default lists the name and nodes as a
    /// comment; concrete elements override with real SPICE syntax so
    /// [`crate::circuit::Circuit::netlist`] round-trips into other
    /// simulators.
    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        let nodes: Vec<String> = self.nodes().iter().map(|&n| node_name(n)).collect();
        format!("* {} {}", self.name(), nodes.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamper_ground_writes_are_dropped() {
        let mut m = DenseMatrix::zeros(2, 2);
        let mut rhs = vec![0.0; 2];
        let mut s = Stamper::new(&mut m, &mut rhs, 2);
        s.conductance(Some(0), None, 2.0);
        s.current_source(None, Some(1), 1.5);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(1, 1)], 0.0);
        assert_eq!(rhs, vec![0.0, 1.5]);
    }

    #[test]
    fn conductance_pattern_is_symmetric() {
        let mut m = DenseMatrix::zeros(2, 2);
        let mut rhs = vec![0.0; 2];
        let mut s = Stamper::new(&mut m, &mut rhs, 2);
        s.conductance(Some(0), Some(1), 3.0);
        assert_eq!(m[(0, 0)], 3.0);
        assert_eq!(m[(1, 1)], 3.0);
        assert_eq!(m[(0, 1)], -3.0);
        assert_eq!(m[(1, 0)], -3.0);
    }

    #[test]
    fn branch_indices_follow_nodes() {
        let mut m = DenseMatrix::zeros(5, 5);
        let mut rhs = vec![0.0; 5];
        let s = Stamper::new(&mut m, &mut rhs, 3);
        assert_eq!(s.branch(0), 3);
        assert_eq!(s.branch(1), 4);
    }

    #[test]
    fn ac_capacitance_is_imaginary() {
        let mut m = ComplexMatrix::zeros(1, 1);
        let mut rhs = vec![Complex64::ZERO; 1];
        let mut s = AcStamper::new(&mut m, &mut rhs, 1);
        s.capacitance(Some(0), None, 1e-12, 2.0 * std::f64::consts::PI * 1e9);
        assert_eq!(m[(0, 0)].re, 0.0);
        assert!(m[(0, 0)].im > 0.0);
    }

    #[test]
    fn transconductance_pattern() {
        let mut m = ComplexMatrix::zeros(4, 4);
        let mut rhs = vec![Complex64::ZERO; 4];
        let mut s = AcStamper::new(&mut m, &mut rhs, 4);
        s.transconductance(Some(0), Some(1), Some(2), Some(3), 0.01);
        assert_eq!(m[(0, 2)].re, 0.01);
        assert_eq!(m[(0, 3)].re, -0.01);
        assert_eq!(m[(1, 2)].re, -0.01);
        assert_eq!(m[(1, 3)].re, 0.01);
    }

    #[test]
    fn ac_sparse_sink_matches_dense() {
        // Record the pattern, then stamp the same contributions into a
        // dense matrix and into the fixed-pattern CSR: identical entries.
        let n = 3;
        let omega = 2.0 * std::f64::consts::PI * 1e9;
        let stamp_all = |s: &mut AcStamper<'_>| {
            s.conductance(Some(0), Some(1), 1e-3);
            s.capacitance(Some(1), Some(2), 2e-12, omega);
            s.transconductance(Some(2), None, Some(0), Some(1), 0.02);
            s.rhs(Some(0), Complex64::ONE);
        };

        let mut positions = Vec::new();
        let mut rhs_p = vec![Complex64::ZERO; n];
        let mut rec = AcStamper::pattern(&mut positions, &mut rhs_p, n);
        stamp_all(&mut rec);
        let mut csr = CsrMatrix::<Complex64>::from_pattern(n, n, &positions).unwrap();

        let mut dense = ComplexMatrix::zeros(n, n);
        let mut rhs_d = vec![Complex64::ZERO; n];
        let mut ds = AcStamper::new(&mut dense, &mut rhs_d, n);
        stamp_all(&mut ds);

        let mut rhs_s = vec![Complex64::ZERO; n];
        let mut ss = AcStamper::sparse(&mut csr, &mut rhs_s, n);
        stamp_all(&mut ss);
        assert!(!ss.missed_pattern());
        for r in 0..n {
            for c in 0..n {
                assert_eq!(csr.get(r, c), dense[(r, c)], "({r},{c})");
            }
        }
        assert_eq!(rhs_s, rhs_d);
    }

    #[test]
    fn ac_sparse_sink_flags_missing_position() {
        let mut positions = vec![(0usize, 0usize)];
        let mut csr = CsrMatrix::<Complex64>::from_pattern(2, 2, &positions).unwrap();
        positions.clear();
        let mut rhs = vec![Complex64::ZERO; 2];
        let mut s = AcStamper::sparse(&mut csr, &mut rhs, 2);
        s.mat(Some(0), Some(0), Complex64::ONE);
        assert!(!s.missed_pattern());
        s.mat(Some(1), Some(1), Complex64::ONE); // not in the pattern
        assert!(s.missed_pattern());
    }

    #[test]
    fn stamp_ctx_ground_voltage_is_zero() {
        let x = [1.5, 2.5];
        let ctx = StampCtx {
            x: &x,
            state: &[],
            branch_base: 0,
            n_nodes: 2,
            mode: StampMode::dc(),
        };
        assert_eq!(ctx.v(NodeId::GROUND), 0.0);
        assert_eq!(ctx.v(NodeId::from_raw(1)), 1.5);
    }

    /// Largest distance, in units in the last place, allowed between an
    /// imaginary part stamped at `ω` and `ω` times the one stamped at
    /// `ω = 1`. An entry sums at most two same-sign capacitive terms in
    /// the cases below, so the two orders of rounding differ by a couple
    /// of ulps at most.
    const AFFINE_ULPS: u64 = 4;

    /// Distance between two doubles in units in the last place (`+0` and
    /// `−0` coincide).
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |v: f64| {
            let i = v.to_bits() as i64;
            if i < 0 {
                i64::MIN.wrapping_sub(i)
            } else {
                i
            }
        };
        key(a).abs_diff(key(b))
    }

    /// Node `i` of the four-node test systems (index `i` into `x`).
    fn n(i: u32) -> NodeId {
        NodeId::from_raw(i + 1)
    }

    /// Every builtin `stamp_ac` implementor, each alone on four nodes
    /// plus one branch row, with the operating point it is stamped at.
    fn ac_cases() -> Vec<(Box<dyn Element>, [f64; 5])> {
        use crate::elements::controlled::{Vccs, Vcvs};
        use crate::elements::sources::{Isource, Vsource};
        use crate::elements::two_terminal::{Capacitor, Inductor, Resistor};
        let mut cases: Vec<(Box<dyn Element>, [f64; 5])> = vec![
            (Box::new(Resistor::new("R1", n(0), n(1), 50.0)), [0.0; 5]),
            (Box::new(Capacitor::new("C1", n(0), n(1), 20e-15)), [0.0; 5]),
            (Box::new(Inductor::new("L1", n(0), n(1), 1e-9)), [0.0; 5]),
            (
                Box::new(Vsource::dc("V1", n(0), n(1), 1.0).with_ac(0.5)),
                [0.0; 5],
            ),
            (
                Box::new(Isource::dc("I1", n(0), n(1), 1e-3).with_ac(2e-3)),
                [0.0; 5],
            ),
            (
                Box::new(Vcvs::new("E1", n(0), n(1), n(2), n(3), 3.0)),
                [0.0; 5],
            ),
            (
                Box::new(Vccs::new("G1", n(0), n(1), n(2), n(3), 1e-2)),
                [0.0; 5],
            ),
        ];
        cases.extend(device_cases(-1.0));
        cases
    }

    /// The nonlinear devices, each alone on four nodes plus one branch
    /// row, with the guess it is stamped at. The diodes sit in forward,
    /// zero and `reverse` bias. The MOSFETs cover every region in both
    /// polarities and both drain/source orientations, with the body
    /// separate and tied to the source; every point is well inside its
    /// region.
    fn device_cases(reverse: f64) -> Vec<(Box<dyn Element>, [f64; 5])> {
        use crate::devices::diode::{Diode, DiodeParams};
        use crate::devices::mosfet::{MosParams, MosRegion, MosType, Mosfet};
        let card = |mos_type| MosParams {
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
        let diode = Diode::new(
            "D1",
            n(0),
            n(1),
            DiodeParams {
                cj0: 50e-15,
                ..DiodeParams::default()
            },
        );
        let mut cases: Vec<(Box<dyn Element>, [f64; 5])> = vec![
            (Box::new(diode.clone()), [0.65, 0.0, 0.0, 0.0, 0.0]),
            (Box::new(diode.clone()), [0.3, 0.3, 0.0, 0.0, 0.0]),
            (Box::new(diode), [reverse, 0.0, 0.0, 0.0, 0.0]),
        ];
        // Drain, gate, source and body on nodes 0..4; then once more with
        // the body tied to the source, so junction and gate capacitances
        // share diagonal entries.
        let mos_points = [
            (MosType::Nmos, [1.2, 1.0, 0.2, 0.0], MosRegion::Saturation),
            (MosType::Nmos, [0.3, 1.5, 0.2, 0.0], MosRegion::Triode),
            (MosType::Nmos, [1.2, 0.3, 0.2, 0.0], MosRegion::Cutoff),
            (MosType::Nmos, [0.2, 1.0, 1.2, 0.0], MosRegion::Saturation),
            (MosType::Nmos, [0.2, 1.5, 0.3, 0.0], MosRegion::Triode),
            (MosType::Pmos, [0.5, 0.6, 1.8, 1.8], MosRegion::Saturation),
            (MosType::Pmos, [1.7, 0.3, 1.8, 1.8], MosRegion::Triode),
            (MosType::Pmos, [0.5, 1.6, 1.8, 1.8], MosRegion::Cutoff),
            (MosType::Pmos, [1.8, 0.6, 0.5, 1.8], MosRegion::Saturation),
            (MosType::Pmos, [1.8, 0.3, 1.7, 1.8], MosRegion::Triode),
        ];
        for (mos_type, [vd, vg, vs, vb], region) in mos_points {
            let x = [vd, vg, vs, vb, 0.0];
            for body in [n(3), n(2)] {
                let m = Mosfet::new("M1", n(0), n(1), n(2), body, card(mos_type));
                assert_eq!(m.small_signal(&x).region, region, "{mos_type:?} at {x:?}");
                cases.push((Box::new(m), x));
            }
        }
        cases
    }

    /// The `Element::stamp_ac` contract: each element's stamp at `ω`
    /// equals its `ω = 1` stamp split as `G + jωC` — real parts exactly,
    /// imaginary parts within `AFFINE_ULPS` — and its RHS is the same at
    /// every `ω`. Frequencies are drawn log-uniformly from 1e2..1e12
    /// rad/s by a fixed-seed generator, endpoints included.
    #[test]
    fn stamp_ac_is_affine_in_omega() {
        const DIM: usize = 5;
        let stamp = |e: &dyn Element, x: &[f64], omega: f64| {
            let mut m = ComplexMatrix::zeros(DIM, DIM);
            let mut rhs = vec![Complex64::ZERO; DIM];
            e.stamp_ac(x, 0, omega, &mut AcStamper::new(&mut m, &mut rhs, 4));
            (m, rhs)
        };
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut omegas = vec![1e2, 1e12];
        omegas.extend((0..62).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            10f64.powf(2.0 + 10.0 * (state >> 11) as f64 / (1u64 << 53) as f64)
        }));
        let mut worst = 0;
        for (e, x) in ac_cases() {
            let (gc, rhs1) = stamp(&*e, &x, 1.0);
            for &omega in &omegas {
                let (m, rhs) = stamp(&*e, &x, omega);
                assert_eq!(rhs, rhs1, "{} RHS at ω = {omega:e}", e.name());
                for r in 0..DIM {
                    for c in 0..DIM {
                        let (got, g, cap) = (m[(r, c)], gc[(r, c)].re, gc[(r, c)].im);
                        assert_eq!(got.re, g, "{} G({r},{c}) at ω = {omega:e}", e.name());
                        let d = ulps(got.im, omega * cap);
                        assert!(
                            d <= AFFINE_ULPS,
                            "{} C({r},{c}) at ω = {omega:e}: {} vs {} ({d} ulps)",
                            e.name(),
                            got.im,
                            omega * cap
                        );
                        worst = worst.max(d);
                    }
                }
            }
        }
        eprintln!("stamp_ac affine contract: worst imaginary-part distance {worst} ulps");
    }

    /// Largest `‖J_fd − J‖ / ‖J‖` (max norms) allowed between the
    /// central-difference Jacobian of a device's current and the
    /// Jacobian it stamps. The worst case measured is 1.42e-9, on the
    /// reverse-biased diode, where the rounding of its nearly constant
    /// current limits the difference quotient; the MOSFETs stay under
    /// 1.8e-10. A `gm` off by one part in 10⁸ already exceeds it.
    const JACOBIAN_REL_ERR: f64 = 2e-9;

    /// Finite-difference step, volts.
    const FD_STEP: f64 = 1e-6;

    /// Jacobian oracle: the DC stamp of every nonlinear device is its
    /// Newton linearization `J·x_new = J·x − i(x)`, so
    /// `f(x) = J(x)·x − rhs(x)` recovers the device current `i(x)` and
    /// its central differences must reproduce the stamped `J(x)`. The
    /// diode's reverse bias is −0.2 V: at −1 V its conductance (≈ 1e-29 S)
    /// is below the rounding of the −Is it is the slope of, so no
    /// difference quotient resolves it.
    #[test]
    fn guess_dependent_stamp_matches_finite_differences() {
        const DIM: usize = 5;
        let stamp = |e: &dyn Element, x: &[f64]| {
            let mut m = DenseMatrix::zeros(DIM, DIM);
            let mut rhs = vec![0.0; DIM];
            let ctx = StampCtx {
                x,
                state: &[],
                branch_base: 0,
                n_nodes: DIM - 1,
                mode: StampMode::dc(),
            };
            let mut out = Stamper::new(&mut m, &mut rhs, DIM - 1);
            e.stamp(&ctx, &mut out);
            (m, rhs)
        };
        let current = |e: &dyn Element, x: &[f64]| {
            let (m, rhs) = stamp(e, x);
            (0..DIM)
                .map(|r| (0..DIM).map(|c| m[(r, c)] * x[c]).sum::<f64>() - rhs[r])
                .collect::<Vec<f64>>()
        };
        let mut worst: f64 = 0.0;
        for (e, x) in device_cases(-0.2) {
            assert!(e.is_nonlinear(), "{}", e.name());
            let (jac, _) = stamp(&*e, &x);
            let mut jmax: f64 = 0.0;
            let mut err: f64 = 0.0;
            for c in 0..DIM {
                let (mut hi, mut lo) = (x, x);
                hi[c] += FD_STEP;
                lo[c] -= FD_STEP;
                let (fh, fl) = (current(&*e, &hi), current(&*e, &lo));
                for r in 0..DIM {
                    let fd = (fh[r] - fl[r]) / (2.0 * FD_STEP);
                    jmax = jmax.max(jac[(r, c)].abs());
                    err = err.max((fd - jac[(r, c)]).abs());
                }
            }
            // A device in cutoff stamps nothing and conducts nothing.
            let rel = if jmax == 0.0 { err } else { err / jmax };
            assert!(
                rel <= JACOBIAN_REL_ERR,
                "{} at {x:?}: relative Jacobian error {rel:e}",
                e.name()
            );
            worst = worst.max(rel);
        }
        eprintln!("DC Jacobian oracle: worst relative error {worst:e}");
    }
}
