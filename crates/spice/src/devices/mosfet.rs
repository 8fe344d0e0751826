//! Level-1 MOSFET with channel-length modulation and fixed terminal
//! capacitances.
//!
//! The model implements the square-law equations every 0.18 µm hand design
//! starts from. Second-order effects that matter to the paper's circuits —
//! output conductance (λ), gate capacitance loading, drain/source junction
//! capacitance — are included; velocity saturation and body effect are
//! approximated by parameter choice (see `cml-pdk` for calibration notes).
//! Terminal capacitances use the operating-region-independent Meyer
//! averages (`2/3·W·L·Cox` gate-source in saturation plus overlaps), kept
//! constant across the simulation for robustness.

use crate::circuit::NodeId;
use crate::element::{AcStamper, DcCoupling, Element, ElementKind, StampCtx, Stamper};
use crate::lint::LintCode;
use cml_numeric::{F64x8, LaneScalar, Scalar};
use std::fmt;

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosType {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

impl MosType {
    /// +1 for NMOS, −1 for PMOS.
    #[must_use]
    pub fn polarity(self) -> f64 {
        match self {
            MosType::Nmos => 1.0,
            MosType::Pmos => -1.0,
        }
    }
}

impl fmt::Display for MosType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MosType::Nmos => write!(f, "nmos"),
            MosType::Pmos => write!(f, "pmos"),
        }
    }
}

/// Level-1 model card plus geometry.
///
/// All voltages are magnitudes in the device's own polarity: `vth0` is
/// positive for both NMOS and PMOS.
#[derive(Debug, Clone, PartialEq)]
pub struct MosParams {
    /// Channel polarity.
    pub mos_type: MosType,
    /// Drawn channel width, meters.
    pub w: f64,
    /// Drawn channel length, meters.
    pub l: f64,
    /// Zero-bias threshold voltage magnitude, volts.
    pub vth0: f64,
    /// Transconductance parameter `µ·Cox`, A/V².
    pub kp: f64,
    /// Channel-length modulation, 1/V.
    pub lambda: f64,
    /// Gate-oxide capacitance per area, F/m².
    pub cox: f64,
    /// Gate-source/drain overlap capacitance per width, F/m.
    pub cov: f64,
    /// Junction capacitance per area, F/m² (drain/source to body).
    pub cj: f64,
    /// Source/drain diffusion length used for junction area, meters.
    pub ldiff: f64,
}

/// [`MosParams::validate`]'s rule for `kp`.
pub(crate) fn check_kp(kp: f64) -> Result<(), String> {
    if kp > 0.0 && kp.is_finite() {
        Ok(())
    } else {
        Err(format!("kp must be positive, got {kp}"))
    }
}

/// [`MosParams::validate`]'s rule for `vth0`.
pub(crate) fn check_vth0(vth0: f64) -> Result<(), String> {
    if vth0.is_finite() && vth0 >= 0.0 {
        Ok(())
    } else {
        Err(format!("vth0 must be a non-negative magnitude, got {vth0}"))
    }
}

impl MosParams {
    /// Validates the parameter set, returning a message on violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.w > 0.0 && self.w.is_finite()) {
            return Err(format!("width must be positive, got {}", self.w));
        }
        if !(self.l > 0.0 && self.l.is_finite()) {
            return Err(format!("length must be positive, got {}", self.l));
        }
        check_kp(self.kp)?;
        check_vth0(self.vth0)?;
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return Err(format!("lambda must be non-negative, got {}", self.lambda));
        }
        Ok(())
    }

    /// Device beta `kp·W/L`, A/V².
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.kp * self.w / self.l
    }

    /// Gate-source capacitance (Meyer saturation average + overlap).
    #[must_use]
    pub fn cgs(&self) -> f64 {
        2.0 / 3.0 * self.w * self.l * self.cox + self.cov * self.w
    }

    /// Gate-drain capacitance (overlap only, saturation assumption).
    #[must_use]
    pub fn cgd(&self) -> f64 {
        self.cov * self.w
    }

    /// Drain (or source) junction capacitance to body.
    #[must_use]
    pub fn cjunc(&self) -> f64 {
        self.cj * self.w * self.ldiff
    }
}

/// Large-signal evaluation in the normalized (NMOS, `vds ≥ 0`) frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Drain current, amps (≥ 0 in the normalized frame).
    pub ids: f64,
    /// `∂ids/∂vgs`, siemens.
    pub gm: f64,
    /// `∂ids/∂vds`, siemens.
    pub gds: f64,
    /// Operating region.
    pub region: MosRegion,
}

/// Operating region of the square-law model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosRegion {
    /// `vgs < vth`.
    Cutoff,
    /// `0 ≤ vds < vgs − vth`.
    Triode,
    /// `vds ≥ vgs − vth`.
    Saturation,
}

/// Square-law current and derivatives in the normalized frame.
///
/// `vgs`, `vds` must already be polarity-corrected with `vds ≥ 0`.
#[must_use]
pub fn square_law(params: &MosParams, vgs: f64, vds: f64) -> MosEval {
    Channel::of(params).square_law(vgs, vds)
}

/// The constants of a model card that the channel equations read:
/// polarity, `beta = kp·W/L`, `vth0` and `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Channel {
    p: f64,
    beta: f64,
    vth0: f64,
    lambda: f64,
}

impl Channel {
    pub(crate) fn of(card: &MosParams) -> Self {
        Channel {
            p: card.mos_type.polarity(),
            beta: card.beta(),
            vth0: card.vth0,
            lambda: card.lambda,
        }
    }

    /// [`square_law`] on these constants.
    fn square_law(&self, vgs: f64, vds: f64) -> MosEval {
        debug_assert!(vds >= 0.0, "square_law requires normalized vds");
        let beta = self.beta;
        let vov = vgs - self.vth0;
        if vov <= 0.0 {
            return MosEval {
                ids: 0.0,
                gm: 0.0,
                gds: 0.0,
                region: MosRegion::Cutoff,
            };
        }
        let clm = 1.0 + self.lambda * vds;
        if vds < vov {
            // Triode.
            let core = vov * vds - 0.5 * vds * vds;
            MosEval {
                ids: beta * core * clm,
                gm: beta * vds * clm,
                gds: beta * ((vov - vds) * clm + core * self.lambda),
                region: MosRegion::Triode,
            }
        } else {
            // Saturation.
            let core = 0.5 * vov * vov;
            MosEval {
                ids: beta * core * clm,
                gm: beta * vov * clm,
                gds: beta * core * self.lambda,
                region: MosRegion::Saturation,
            }
        }
    }

    /// Large-signal evaluation at the given terminal voltages (actual,
    /// un-normalized). Returns the evaluation in the normalized frame
    /// plus whether drain/source were swapped.
    fn eval(&self, vd: f64, vg: f64, vs: f64) -> (MosEval, bool) {
        let p = self.p;
        let vds_raw = p * (vd - vs);
        if vds_raw >= 0.0 {
            (self.square_law(p * (vg - vs), vds_raw), false)
        } else {
            // Effective drain and source swap.
            (self.square_law(p * (vg - vd), -vds_raw), true)
        }
    }

    /// The channel's Norton linearization at the given terminal voltages:
    /// whether drain and source swapped, the six matrix values in stamp
    /// order, and the equivalent current from the effective drain to the
    /// effective source. With `(nd, ns)` the effective drain and source,
    /// the values go to `(nd, g)`, `(nd, nd)`, `(nd, ns)`, `(ns, g)`,
    /// `(ns, nd)`, `(ns, ns)`, in that order.
    pub(crate) fn linearize(&self, vd: f64, vg: f64, vs: f64) -> (bool, [f64; 6], f64) {
        let (ev, swapped) = self.eval(vd, vg, vs);
        let (vde, vse) = if swapped { (vs, vd) } else { (vd, vs) };
        // Current from effective drain to effective source:
        // I = p · ids(vgs_eff, vds_eff), with vgs_eff = p(vg − vse),
        // vds_eff = p(vde − vse). Chain rule gives real-frame stamps:
        let (gm, gds) = (ev.gm, ev.gds);
        let vals = [gm, gds, -(gm + gds), -gm, -gds, gm + gds];
        let i_actual = self.p * ev.ids;
        let ieq = i_actual - gm * vg - gds * vde + (gm + gds) * vse;
        (swapped, vals, ieq)
    }
}

/// [`Channel`]'s constants in the eight lanes of a batch group: lane `l`
/// holds the channel of that lane's card.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LaneChannel {
    p: F64x8,
    beta: F64x8,
    vth0: F64x8,
    lambda: F64x8,
}

impl LaneChannel {
    /// `channel` in every lane.
    pub(crate) fn splat(channel: &Channel) -> Self {
        LaneChannel {
            p: F64x8::splat(channel.p),
            beta: F64x8::splat(channel.beta),
            vth0: F64x8::splat(channel.vth0),
            lambda: F64x8::splat(channel.lambda),
        }
    }

    /// Puts `channel` into lane `l`.
    pub(crate) fn set_lane(&mut self, l: usize, channel: &Channel) {
        self.p.set_lane(l, channel.p);
        self.beta.set_lane(l, channel.beta);
        self.vth0.set_lane(l, channel.vth0);
        self.lambda.set_lane(l, channel.lambda);
    }

    /// [`Channel::linearize`] in every lane at once: the swap, cutoff,
    /// triode and saturation branches become lane selects over the
    /// scalar's exact expressions, so each lane is bitwise the scalar
    /// linearization of its channel at its voltages. Returns the mask of
    /// swapped lanes, the six values in stamp order and the equivalent
    /// current.
    fn linearize(&self, vd: F64x8, vg: F64x8, vs: F64x8) -> (u64, [F64x8; 6], F64x8) {
        let zero = F64x8::ZERO;
        let p = self.p;
        let vds_raw = p * (vd - vs);
        let swapped = !vds_raw.mask(zero, |a, b| a >= b) & F64x8::LANE_MASK;
        let vgs = F64x8::select(swapped, p * (vg - vd), p * (vg - vs));
        let vds = F64x8::select(swapped, -vds_raw, vds_raw);
        // Square law, normalized frame.
        let (beta, lambda) = (self.beta, self.lambda);
        let vov = vgs - self.vth0;
        let on = !vov.mask(zero, |a, b| a <= b);
        let clm = F64x8::ONE + lambda * vds;
        let triode = vds.mask(vov, |a, b| a < b);
        let half = F64x8::splat(0.5);
        let core_t = vov * vds - half * vds * vds;
        let core_s = half * vov * vov;
        let core = F64x8::select(triode, core_t, core_s);
        let ids = F64x8::select(on, beta * core * clm, zero);
        let gm = F64x8::select(on, beta * F64x8::select(triode, vds, vov) * clm, zero);
        let gds_t = beta * ((vov - vds) * clm + core_t * lambda);
        let gds_s = beta * core_s * lambda;
        let gds = F64x8::select(on, F64x8::select(triode, gds_t, gds_s), zero);
        // Norton equivalent in the real frame.
        let vde = F64x8::select(swapped, vs, vd);
        let vse = F64x8::select(swapped, vd, vs);
        let vals = [gm, gds, -(gm + gds), -gm, -gds, gm + gds];
        let i_actual = p * ids;
        let ieq = i_actual - gm * vg - gds * vde + (gm + gds) * vse;
        (swapped, vals, ieq)
    }
}

/// A four-terminal MOSFET instance (body terminal accepted for netlist
/// fidelity; the Level-1 equations here use `gamma = 0`, so it only loads
/// the circuit through junction capacitance).
#[derive(Debug, Clone)]
pub struct Mosfet {
    name: String,
    d: NodeId,
    g: NodeId,
    s: NodeId,
    b: NodeId,
    params: MosParams,
}

impl Mosfet {
    /// Creates a MOSFET. Terminal order: drain, gate, source, body.
    ///
    /// # Panics
    ///
    /// Panics if the parameter card is invalid (non-positive W/L/KP, …).
    #[must_use]
    pub fn new(name: &str, d: NodeId, g: NodeId, s: NodeId, b: NodeId, params: MosParams) -> Self {
        if let Err(msg) = params.validate() {
            panic!("mosfet {name}: {msg}");
        }
        Mosfet {
            name: name.to_string(),
            d,
            g,
            s,
            b,
            params,
        }
    }

    /// The device's model card.
    pub(crate) fn params(&self) -> &MosParams {
        &self.params
    }

    /// Large-signal evaluation of `card` at the given terminal voltages
    /// (actual, un-normalized). Returns the evaluation in the normalized
    /// frame plus whether drain/source were swapped.
    fn eval_at(card: &MosParams, vd: f64, vg: f64, vs: f64) -> (MosEval, bool) {
        Channel::of(card).eval(vd, vg, vs)
    }

    /// Small-signal parameters at an operating point (gm, gds referred to
    /// the *actual* drain/source orientation).
    #[must_use]
    pub fn small_signal(&self, x_op: &[f64]) -> MosEval {
        let vd = self.d.index().map_or(0.0, |i| x_op[i]);
        let vg = self.g.index().map_or(0.0, |i| x_op[i]);
        let vs = self.s.index().map_or(0.0, |i| x_op[i]);
        Self::eval_at(&self.params, vd, vg, vs).0
    }

    /// Drain current at an operating point, in the device's own polarity
    /// (positive = conventional current into the drain for NMOS, out of
    /// the drain for PMOS).
    #[must_use]
    pub fn drain_current(&self, x_op: &[f64]) -> f64 {
        let vd = self.d.index().map_or(0.0, |i| x_op[i]);
        let vg = self.g.index().map_or(0.0, |i| x_op[i]);
        let vs = self.s.index().map_or(0.0, |i| x_op[i]);
        let (ev, swapped) = Self::eval_at(&self.params, vd, vg, vs);
        let p = self.params.mos_type.polarity();
        if swapped {
            -p * ev.ids
        } else {
            p * ev.ids
        }
    }

    /// This device's row of the device table, with its own card.
    pub(crate) fn device(&self) -> MosDevice {
        MosDevice {
            nodes: [self.d, self.g, self.s].map(NodeId::index),
            channel: Channel::of(&self.params),
        }
    }
}

/// Terminal positions in [`MosDevice::nodes`].
const D: usize = 0;
const G: usize = 1;
const S: usize = 2;

/// The matrix positions a MOSFET's channel stamp writes, as terminal
/// pairs, in [`MosSlots`] order.
const POSITIONS: [(usize, usize); 6] = [(D, G), (D, D), (D, S), (S, G), (S, D), (S, S)];

/// Slots the channel values go to when drain and source swap: the
/// effective drain is `S`, so `(nd, g)` is `(S, G)`, and so on. It is an
/// involution, so it also names the value a swapped stamp puts at each
/// slot, and it is increasing on the position pairs that can share a
/// slot — `(0, 1)` and `(3, 4)` when gate is drain, `(0, 2)` and
/// `(3, 5)` when gate is source.
const SWAPPED: [usize; 6] = [3, 5, 4, 0, 2, 1];

/// Value slot of a write with a grounded terminal: dropped.
const GROUND_SLOT: usize = usize::MAX;

/// Value slot of a write whose position the pattern lacks: a pattern
/// miss.
const ABSENT_SLOT: usize = usize::MAX - 1;

/// CSR value slots of one MOSFET's channel writes, in [`POSITIONS`]
/// order.
pub(crate) type MosSlots = [usize; 6];

/// One MOSFET's row of the device table: its drain, gate and source
/// unknowns and the card values its channel stamp reads, computed once
/// (or loaded by the batched solver for one variant's card).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MosDevice {
    /// Drain, gate and source unknowns (`None` for ground).
    nodes: [Option<usize>; 3],
    channel: Channel,
}

/// Adds `v` at value slot `slot`. Returns `false` when the pattern
/// lacks the position.
fn add(vals: &mut [f64], slot: usize, v: f64) -> bool {
    match vals.get_mut(slot) {
        Some(x) => {
            *x += v;
            true
        }
        None => slot != ABSENT_SLOT,
    }
}

/// Adds `v` to the RHS at `r` (dropped for ground).
fn add_rhs(rhs: &mut [f64], r: Option<usize>, v: f64) {
    if let Some(r) = r {
        rhs[r] += v;
    }
}

impl MosDevice {
    /// Binds the value slots of this device's writes, `find(r, c)`
    /// giving the slot of a position in the pattern.
    pub(crate) fn bind(&self, find: impl Fn(usize, usize) -> Option<usize>) -> MosSlots {
        POSITIONS.map(|(r, c)| match (self.nodes[r], self.nodes[c]) {
            (Some(r), Some(c)) => find(r, c).unwrap_or(ABSENT_SLOT),
            _ => GROUND_SLOT,
        })
    }

    /// The channel the row stamps with.
    pub(crate) fn channel(&self) -> Channel {
        self.channel
    }

    /// Replaces the channel the row stamps with.
    pub(crate) fn set_channel(&mut self, channel: Channel) {
        self.channel = channel;
    }

    fn v(&self, x: &[f64], t: usize) -> f64 {
        self.nodes[t].map_or(0.0, |i| x[i])
    }

    /// Stamps the channel's linearization at guess `x`, exactly as
    /// [`Mosfet`]'s stamp does, into the matrix values (CSR, or a dense
    /// row-major layout) and the RHS. Returns `false` on a pattern miss.
    pub(crate) fn stamp_channel(
        &self,
        slots: &MosSlots,
        x: &[f64],
        vals: &mut [f64],
        rhs: &mut [f64],
    ) -> bool {
        let channel = &self.channel;
        let (vd, vg, vs) = (self.v(x, D), self.v(x, G), self.v(x, S));
        let (swapped, stamp, ieq) = channel.linearize(vd, vg, vs);
        let (order, nd, ns) = if swapped {
            (SWAPPED, self.nodes[S], self.nodes[D])
        } else {
            ([0, 1, 2, 3, 4, 5], self.nodes[D], self.nodes[S])
        };
        let mut hit = true;
        for (k, v) in order.into_iter().zip(stamp) {
            hit &= add(vals, slots[k], v);
        }
        add_rhs(rhs, nd, -ieq);
        add_rhs(rhs, ns, ieq);
        hit
    }

    /// [`stamp_channel`](Self::stamp_channel) in all eight lanes of a
    /// lane-packed iterate, CSR values and RHS at once, lane `l` with
    /// lane `l` of `channel`; lanes outside `active` add zero. A swapped
    /// lane takes value `SWAPPED[j]` at slot position `j`. The writes go
    /// in position order, which is the scalar write order on every pair
    /// of positions that can share a slot (gate on drain or on source),
    /// so each lane sums exactly what a scalar stamp with its card would.
    /// Returns `false` on a pattern miss.
    pub(crate) fn stamp_lanes(
        &self,
        channel: &LaneChannel,
        slots: &MosSlots,
        x: &[F64x8],
        active: u64,
        vals: &mut [F64x8],
        rhs: &mut [F64x8],
    ) -> bool {
        let v = |t: usize| self.nodes[t].map_or(F64x8::ZERO, |i| x[i]);
        let (swapped, stamp, ieq) = channel.linearize(v(D), v(G), v(S));
        let live = |v: F64x8| F64x8::select(active, v, F64x8::ZERO);
        let mut hit = true;
        for (j, &slot) in slots.iter().enumerate() {
            let value = live(F64x8::select(swapped, stamp[SWAPPED[j]], stamp[j]));
            match vals.get_mut(slot) {
                Some(x) => *x += value,
                None => hit &= slot != ABSENT_SLOT,
            }
        }
        // The effective drain takes −ieq and the effective source +ieq.
        let ieq = live(ieq);
        if let Some(d) = self.nodes[D] {
            rhs[d] += F64x8::select(swapped, ieq, -ieq);
        }
        if let Some(s) = self.nodes[S] {
            rhs[s] += F64x8::select(swapped, -ieq, ieq);
        }
        hit
    }
}

impl Element for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.d, self.g, self.s, self.b]
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn as_mosfet(&self) -> Option<&Mosfet> {
        Some(self)
    }

    /// Stamps the channel's Norton linearization at the guess in `ctx`:
    /// the whole stamp (the capacitances are `C`, see the transient
    /// contract on [`Element`]).
    fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        let (vd, vg, vs) = (ctx.v(self.d), ctx.v(self.g), ctx.v(self.s));
        let (swapped, vals, ieq) = Channel::of(&self.params).linearize(vd, vg, vs);
        // Effective (normalized-frame) drain and source node indices.
        let (nd, ns) = if swapped {
            (self.s.index(), self.d.index())
        } else {
            (self.d.index(), self.s.index())
        };
        let ng = self.g.index();
        let [v_dg, v_dd, v_ds, v_sg, v_sd, v_ss] = vals;
        out.mat(nd, ng, v_dg);
        out.mat(nd, nd, v_dd);
        out.mat(nd, ns, v_ds);
        out.mat(ns, ng, v_sg);
        out.mat(ns, nd, v_sd);
        out.mat(ns, ns, v_ss);
        out.current_source(nd, ns, ieq);
    }

    fn stamp_ac(&self, x_op: &[f64], _bb: usize, omega: f64, out: &mut AcStamper<'_>) {
        let vd = self.d.index().map_or(0.0, |i| x_op[i]);
        let vg = self.g.index().map_or(0.0, |i| x_op[i]);
        let vs = self.s.index().map_or(0.0, |i| x_op[i]);
        let (ev, swapped) = Self::eval_at(&self.params, vd, vg, vs);
        let (nd, ns) = if swapped {
            (self.s.index(), self.d.index())
        } else {
            (self.d.index(), self.s.index())
        };
        let ng = self.g.index();
        // gm current from effective drain to effective source controlled
        // by (g, s_eff); gds between d_eff and s_eff.
        out.transconductance(nd, ns, ng, ns, ev.gm);
        out.conductance(nd, ns, ev.gds);
        // Capacitances at the physical terminals.
        let (g, d, s, b) = (
            self.g.index(),
            self.d.index(),
            self.s.index(),
            self.b.index(),
        );
        out.capacitance(g, s, self.params.cgs(), omega);
        out.capacitance(g, d, self.params.cgd(), omega);
        out.capacitance(d, b, self.params.cjunc(), omega);
    }

    fn dc_power(&self, x_op: &[f64], _bb: usize) -> Option<f64> {
        let vd = self.d.index().map_or(0.0, |i| x_op[i]);
        let vs = self.s.index().map_or(0.0, |i| x_op[i]);
        Some((vd - vs) * self.drain_current(x_op))
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Mosfet
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        // Only the channel conducts at DC: the gate is an open circuit
        // and the bulk junctions are modelled as capacitances only.
        vec![DcCoupling::Conductive(self.d, self.s)]
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        if self.d == self.s {
            vec![(
                LintCode::MosfetDegenerate,
                format!(
                    "mosfet '{}' has drain and source on the same node",
                    self.name
                ),
            )]
        } else {
            Vec::new()
        }
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "M{} {} {} {} {} {} W={:.3e} L={:.3e}",
            self.name,
            node_name(self.d),
            node_name(self.g),
            node_name(self.s),
            node_name(self.b),
            self.params.mos_type,
            self.params.w,
            self.params.l
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos_params() -> MosParams {
        MosParams {
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
        }
    }

    #[test]
    fn cutoff_below_threshold() {
        let ev = square_law(&nmos_params(), 0.3, 1.0);
        assert_eq!(ev.region, MosRegion::Cutoff);
        assert_eq!(ev.ids, 0.0);
        assert_eq!(ev.gm, 0.0);
    }

    #[test]
    fn saturation_current_matches_formula() {
        let p = nmos_params();
        let (vgs, vds) = (0.9, 1.5);
        let ev = square_law(&p, vgs, vds);
        assert_eq!(ev.region, MosRegion::Saturation);
        let vov = vgs - p.vth0;
        let want = 0.5 * p.beta() * vov * vov * (1.0 + p.lambda * vds);
        assert!((ev.ids - want).abs() / want < 1e-12);
    }

    #[test]
    fn triode_current_matches_formula() {
        let p = nmos_params();
        let (vgs, vds) = (1.2, 0.2);
        let ev = square_law(&p, vgs, vds);
        assert_eq!(ev.region, MosRegion::Triode);
        let vov = vgs - p.vth0;
        let want = p.beta() * (vov * vds - 0.5 * vds * vds) * (1.0 + p.lambda * vds);
        assert!((ev.ids - want).abs() / want < 1e-12);
    }

    #[test]
    fn current_is_continuous_at_sat_boundary() {
        let p = nmos_params();
        let vgs = 1.0;
        let vdsat = vgs - p.vth0;
        let below = square_law(&p, vgs, vdsat - 1e-9);
        let above = square_law(&p, vgs, vdsat + 1e-9);
        assert!((below.ids - above.ids).abs() < 1e-9 * p.beta());
        assert!((below.gm - above.gm).abs() < 1e-6);
    }

    #[test]
    fn gm_matches_numeric_derivative() {
        let p = nmos_params();
        let (vgs, vds) = (1.0, 1.2);
        let h = 1e-7;
        let num = (square_law(&p, vgs + h, vds).ids - square_law(&p, vgs - h, vds).ids) / (2.0 * h);
        let ana = square_law(&p, vgs, vds).gm;
        assert!((num - ana).abs() / ana < 1e-5);
    }

    #[test]
    fn gds_matches_numeric_derivative_in_triode() {
        let p = nmos_params();
        let (vgs, vds) = (1.4, 0.3);
        let h = 1e-7;
        let num = (square_law(&p, vgs, vds + h).ids - square_law(&p, vgs, vds - h).ids) / (2.0 * h);
        let ana = square_law(&p, vgs, vds).gds;
        assert!((num - ana).abs() / ana.abs() < 1e-5);
    }

    #[test]
    fn capacitances_scale_with_geometry() {
        let p = nmos_params();
        let mut wide = p.clone();
        wide.w *= 2.0;
        assert!(wide.cgs() > p.cgs());
        assert!((wide.cgd() - 2.0 * p.cgd()).abs() < 1e-20);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn invalid_width_panics() {
        let mut p = nmos_params();
        p.w = 0.0;
        let _ = Mosfet::new(
            "M1",
            NodeId::from_raw(1),
            NodeId::from_raw(2),
            NodeId::GROUND,
            NodeId::GROUND,
            p,
        );
    }

    #[test]
    fn pmos_polarity() {
        assert_eq!(MosType::Pmos.polarity(), -1.0);
        assert_eq!(MosType::Nmos.polarity(), 1.0);
    }

    #[test]
    fn drain_current_sign_for_pmos() {
        let mut p = nmos_params();
        p.mos_type = MosType::Pmos;
        // PMOS: s at 1.8, g at 0.9, d at 0.0 → conducting, current flows
        // source→drain; drain_current (into drain, NMOS convention flipped)
        // is negative of the normalized ids.
        let m = Mosfet::new(
            "MP",
            NodeId::from_raw(1), // d
            NodeId::from_raw(2), // g
            NodeId::from_raw(3), // s
            NodeId::from_raw(3), // b
            p,
        );
        let x = [0.0, 0.9, 1.8];
        let i = m.drain_current(&x);
        assert!(i < 0.0, "pmos drain current should be negative, got {i}");
    }

    #[test]
    fn eval_swaps_when_vds_negative() {
        let m = Mosfet::new(
            "M1",
            NodeId::from_raw(1),
            NodeId::from_raw(2),
            NodeId::from_raw(3),
            NodeId::GROUND,
            nmos_params(),
        );
        // vd < vs: effective terminals swap, current reverses.
        let x = [0.0, 1.5, 1.0];
        let i = m.drain_current(&x);
        assert!(i < 0.0);
    }
}
