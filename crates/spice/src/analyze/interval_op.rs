//! Pass 1: interval abstract interpretation of the DC operating point.
//!
//! Computes a per-node box `[lo, hi]` guaranteed to contain the converged
//! Newton operating point. Three rules run to a monotone fixpoint:
//!
//! * **Voltage propagation** — a voltage-defined branch `v_a − v_b = v`
//!   intersects each terminal's box with the other's shifted box.
//! * **Algebraic enclosure** — node `n`'s own KCL equation solved for `v_n`
//!   with every other term ranging over its box (interval Gauss–Seidel);
//!   contracts multiplicatively through conductance chains.
//! * **KCL feasibility pruning** — at a node `n` held only by modeled
//!   elements, the residual interval `R(v)` (possible net current injection
//!   when `v_n = v` and every neighbor ranges over its box) has *both*
//!   endpoints monotone non-increasing in `v`, because every modeled element
//!   is passive with respect to its own terminal: raising `v_n` can only
//!   reduce current flowing in. Hence `{v : R.hi(v) ≥ 0}` is a down-set and
//!   `{v : R.lo(v) ≤ 0}` is an up-set, and the feasible set (where KCL can
//!   possibly balance) is an interval found by two bisections. The true
//!   solution satisfies KCL exactly, so it is always feasible — pruning to
//!   the feasible set is sound.
//!
//! The passivity argument covers every [`DcTransfer`] variant: conductances
//! trivially, MOSFET channels because normalized `ids` is monotone in both
//! `vgs` and `vds` (so raising the drain voltage cannot push current *out of*
//! the drain, and symmetrically for the source via the swapped-terminal
//! evaluation), junctions by monotonicity of the Shockley curve, and the
//! solver's `gmin` shunt which is modeled explicitly.
//!
//! Circuits containing [`DcTransfer::Opaque`] elements start from the
//! unbounded box (the passivity argument does not survive controlled
//! sources); bounds then stay loose near the opaque region but remain sound
//! everywhere.
//!
//! Known precision limit: per-node boxes are a *non-relational* domain, so
//! correlations between node voltages are lost. The active-inductor load
//! idiom (drain and gate tied through a gate resistor that carries no DC
//! current) hinges on exactly such a correlation — legs behind a peaking
//! PMOS can stay supply-budget wide. That is looseness, not unsoundness:
//! every downstream consumer (conditioning, stiffness) gates on box width
//! before trusting a midpoint.

use super::{AnalyzeCode, AnalyzeOptions, Finding, MosPrediction};
use crate::circuit::{Circuit, NodeId};
use crate::devices::diode::{junction_iv, DiodeParams};
use crate::devices::mosfet::{square_law, MosParams};
use crate::element::DcTransfer;
use cml_numeric::Interval;

/// Raw node id (0 = ground) for attachment bookkeeping.
fn raw(n: NodeId) -> usize {
    n.index().map_or(0, |i| i + 1)
}

/// Result of the interval pass, in raw-node-id space.
pub(crate) struct IntervalDcResult {
    /// Bounds per raw node id; `bounds[0]` is ground `[0, 0]`.
    pub bounds: Vec<Interval>,
    /// Region envelopes per MOSFET, element order.
    pub mosfets: Vec<MosPrediction>,
    /// `A001` / `A002` findings.
    pub findings: Vec<Finding>,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Whether the fixpoint stabilized before the sweep cap.
    pub converged: bool,
    /// KCL feasibility conflicts (no feasible voltage found in a box).
    pub conflicts: usize,
}

/// How a node participates in a channel / junction.
#[derive(Clone, Copy)]
enum Role {
    /// Drain terminal (channel) or anode (junction).
    Pos,
    /// Source terminal (channel) or cathode (junction).
    Neg,
}

/// One element attachment at a node, used to evaluate the KCL residual.
#[derive(Clone, Copy)]
enum Attach {
    /// Linear conductance `g` to node `other`.
    Cond { other: usize, g: f64 },
    /// MOSFET channel `channels[idx]`; `Pos` = this node is the drain.
    Chan { idx: usize, role: Role },
    /// Junction `junctions[idx]`; `Pos` = this node is the anode.
    Junc { idx: usize, role: Role },
}

struct Channel {
    name: String,
    d: usize,
    g: usize,
    s: usize,
    params: MosParams,
}

struct Junction {
    a: usize,
    k: usize,
    params: DiodeParams,
}

/// Pads an interval outward by a relative epsilon, guarding the pointwise
/// (non-interval) f64 evaluation of device curves inside residuals.
fn pad_rel(i: Interval) -> Interval {
    let pad = |x: f64, dir: f64| {
        if x.is_finite() {
            x + dir * (1e-12 * x.abs() + 1e-18)
        } else {
            x
        }
    };
    Interval {
        lo: pad(i.lo, -1.0),
        hi: pad(i.hi, 1.0),
    }
}

/// Interval of possible current *into the drain terminal* of a channel, with
/// terminal voltages ranging over the given boxes. Sound because normalized
/// `ids(vgs, vds)` is monotone non-decreasing in both arguments (λ ≥ 0).
fn channel_current(params: &MosParams, vd: Interval, vg: Interval, vs: Interval) -> Interval {
    let p = params.mos_type.polarity();
    let vds = vd.sub(vs).scale(p);
    let vgs = vg.sub(vs).scale(p);
    let vgd = vg.sub(vd).scale(p);
    // Normalized magnitude helper; 0 outside the conducting quadrant.
    let f = |vgs: f64, vds: f64| -> f64 {
        if vds <= 0.0 || vgs <= params.vth0 {
            0.0
        } else {
            square_law(params, vgs, vds).ids
        }
    };
    // Normalized channel current (drain → source positive). Forward flow is
    // maximized at the (vgs.hi, vds.hi) corner; reverse flow (terminal swap,
    // gate-to-drain controlled) at the (vgd.hi, −vds.lo) corner.
    let hi_n = if vds.hi >= 0.0 {
        f(vgs.hi, vds.hi)
    } else {
        -f(vgd.lo, -vds.hi)
    };
    let lo_n = if vds.lo >= 0.0 {
        f(vgs.lo, vds.lo)
    } else {
        -f(vgd.hi, -vds.lo)
    };
    pad_rel(Interval::new(lo_n, hi_n)).scale(p)
}

/// Interval of junction current `a → k` with `v_ak` ranging over `vak`.
fn junction_current(params: &DiodeParams, vak: Interval) -> Interval {
    let f = |v: f64| {
        if v == f64::NEG_INFINITY {
            -params.is
        } else if v == f64::INFINITY {
            f64::INFINITY
        } else {
            junction_iv(params, v).0
        }
    };
    pad_rel(Interval::new(f(vak.lo), f(vak.hi)))
}

struct Model {
    n: usize,
    gmin: f64,
    bounds: Vec<Interval>,
    attach: Vec<Vec<Attach>>,
    const_inj: Vec<f64>,
    vdefs: Vec<(usize, usize, f64)>,
    /// Node may be pruned by KCL feasibility.
    prunable: Vec<bool>,
    channels: Vec<Channel>,
    junctions: Vec<Junction>,
    conflicts: usize,
}

impl Model {
    fn bv(&self, node: usize) -> Interval {
        self.bounds[node]
    }

    /// KCL residual interval at node `n` with `v_n = v` fixed and all
    /// neighbors ranging over their boxes. Both endpoints are monotone
    /// non-increasing in `v`.
    fn residual(&self, n: usize, v: f64) -> Interval {
        let vp = Interval::point(v);
        let mut r = Interval::point(self.const_inj[n]).add(vp.scale(-self.gmin));
        for at in &self.attach[n] {
            match *at {
                Attach::Cond { other, g } => {
                    r = r.add(self.bv(other).sub(vp).scale(g));
                }
                Attach::Chan { idx, role } => {
                    let ch = &self.channels[idx];
                    let sub = |t: usize| if t == n { vp } else { self.bv(t) };
                    let id = channel_current(&ch.params, sub(ch.d), sub(ch.g), sub(ch.s));
                    r = r.add(match role {
                        Role::Pos => id.neg(),
                        Role::Neg => id,
                    });
                }
                Attach::Junc { idx, role } => {
                    let j = &self.junctions[idx];
                    let sub = |t: usize| if t == n { vp } else { self.bv(t) };
                    let i = junction_current(&j.params, sub(j.a).sub(sub(j.k)));
                    r = r.add(match role {
                        Role::Pos => i.neg(),
                        Role::Neg => i,
                    });
                }
            }
        }
        r
    }

    /// Intersects each voltage-defined pair's boxes; chains settle within
    /// `len + 1` passes. Empty intersections (inconsistent constraints) are
    /// counted as conflicts and the old bound kept.
    fn propagate_vdefs(&mut self) {
        for _ in 0..=self.vdefs.len() {
            let mut moved = false;
            for k in 0..self.vdefs.len() {
                let (a, b, v) = self.vdefs[k];
                let vi = Interval::point(v);
                if a != 0 {
                    let cand = self.bounds[a].intersect(self.bv(b).add(vi));
                    moved |= self.update(a, cand);
                }
                if b != 0 {
                    let cand = self.bounds[b].intersect(self.bv(a).sub(vi));
                    moved |= self.update(b, cand);
                }
            }
            if !moved {
                break;
            }
        }
    }

    /// Replaces `bounds[n]` with `cand` if it is a genuine (non-empty)
    /// shrink; returns whether the bound moved meaningfully.
    fn update(&mut self, n: usize, cand: Interval) -> bool {
        if cand.is_empty() {
            self.conflicts += 1;
            return false;
        }
        let old = self.bounds[n];
        let eps = |x: f64| 1e-6 * (1.0 + x.abs());
        let moved = (old.lo.is_infinite() && cand.lo.is_finite())
            || (old.hi.is_infinite() && cand.hi.is_finite())
            || (cand.lo.is_finite() && cand.lo - old.lo > eps(cand.lo))
            || (cand.hi.is_finite() && old.hi - cand.hi > eps(cand.hi));
        self.bounds[n] = cand;
        moved
    }

    /// Algebraic interval enclosure of `v_n` from its own KCL equation:
    /// `0 = c − gmin·v + Σ g·(v_o − v) + Σ inj_nl(v)` solved for `v` gives
    /// `v = (c + Σ g·v_o + Σ inj_nl) / (Σ g + gmin)`, with every right-hand
    /// term ranging over its box. The true solution satisfies the equation
    /// exactly, so it lies in the enclosure. Unlike bisection feasibility,
    /// this contracts *multiplicatively* through conductance chains whose
    /// endpoints are both still wide.
    fn algebraic(&self, n: usize) -> Interval {
        let mut g_sum = self.gmin;
        let mut num = Interval::point(self.const_inj[n]);
        for at in &self.attach[n] {
            match *at {
                Attach::Cond { other, g } => {
                    g_sum += g;
                    num = num.add(self.bv(other).scale(g));
                }
                Attach::Chan { idx, role } => {
                    let ch = &self.channels[idx];
                    let id =
                        channel_current(&ch.params, self.bv(ch.d), self.bv(ch.g), self.bv(ch.s));
                    num = num.add(match role {
                        Role::Pos => id.neg(),
                        Role::Neg => id,
                    });
                }
                Attach::Junc { idx, role } => {
                    let j = &self.junctions[idx];
                    let i = junction_current(&j.params, self.bv(j.a).sub(self.bv(j.k)));
                    num = num.add(match role {
                        Role::Pos => i.neg(),
                        Role::Neg => i,
                    });
                }
            }
        }
        pad_rel(num.scale(1.0 / g_sum))
    }

    /// Shrinks node `n`'s box to the KCL-feasible set via the algebraic
    /// enclosure plus two monotone bisections. `slack` absorbs pointwise
    /// evaluation noise.
    fn prune(&mut self, n: usize, iters: usize) -> bool {
        let alg = self.bounds[n].intersect(self.algebraic(n));
        let mut moved = false;
        if !alg.is_empty() {
            moved |= self.update(n, alg);
        } else {
            self.conflicts += 1;
        }
        let cur = self.bounds[n];
        let slack = 1e-9 + 1e-6 * self.const_inj[n].abs();
        // Upper bound: feasible(v) := R.hi(v) ≥ −slack, a down-set in v.
        let (hi, c1) = self.prune_dir(n, cur, iters, |r| r.hi >= -slack, true);
        let cur = Interval {
            lo: cur.lo,
            hi: hi.min(cur.hi),
        };
        // Lower bound: feasible(v) := R.lo(v) ≤ slack, an up-set in v.
        let (lo, c2) = self.prune_dir(n, cur, iters, |r| r.lo <= slack, false);
        let cand = Interval {
            lo: lo.max(cur.lo),
            hi: cur.hi,
        };
        self.conflicts += usize::from(c1) + usize::from(c2);
        moved | self.update(n, cand)
    }

    /// One-sided prune. For `upper = true`, `feasible` must define a
    /// down-set `(-inf, v*]`; returns a safe outer estimate of `v*` (or the
    /// current endpoint when no progress is provable) plus a conflict flag
    /// set when the whole box turned out KCL-infeasible. For `upper = false`
    /// the set is an up-set and everything mirrors.
    fn prune_dir(
        &self,
        n: usize,
        cur: Interval,
        iters: usize,
        feasible: impl Fn(Interval) -> bool,
        upper: bool,
    ) -> (f64, bool) {
        // Mirror the lower-bound case so we always shrink from the top.
        let m = if upper { 1.0 } else { -1.0 };
        let fs = |v: f64| feasible(self.residual(n, m * v));
        let (c_lo, c_hi) = if upper {
            (cur.lo, cur.hi)
        } else {
            (-cur.hi, -cur.lo)
        };
        let fallback = if upper { cur.hi } else { cur.lo };

        // Bracket: a feasible, b infeasible, a < b.
        if c_hi.is_finite() && fs(c_hi) {
            return (fallback, false); // endpoint feasible: no shrink possible
        }
        let mut b = c_hi;
        if !c_hi.is_finite() {
            // Expand a finite probe upward until infeasibility appears.
            let mut p = 1.0;
            let mut found = None;
            for _ in 0..64 {
                if !fs(p) {
                    found = Some(p);
                    break;
                }
                p *= 8.0;
            }
            match found {
                Some(x) => b = x,
                None => return (fallback, false), // feasible arbitrarily far
            }
        }
        // Find a feasible point below b; the feasible set is a down-set, so
        // geometric descent cannot jump over it.
        let mut step = 1.0;
        let clamp_lo = |x: f64| if c_lo.is_finite() { c_lo.max(x) } else { x };
        let mut a = clamp_lo(b - step);
        let mut found = false;
        for _ in 0..64 {
            if fs(a) {
                found = true;
                break;
            }
            if a <= c_lo {
                break;
            }
            step *= 8.0;
            a = clamp_lo(b - step);
        }
        if !found {
            // The whole box is KCL-infeasible — either the circuit has no DC
            // solution under this model or slack was too tight. Keep the old
            // (sound) bound and flag the conflict.
            return (fallback, true);
        }
        // Bisect; return the infeasible end (safe outer bound).
        for _ in 0..iters {
            if b - a <= 1e-9 * (1.0 + a.abs().max(b.abs())) {
                break;
            }
            let mid = 0.5 * (a + b);
            if !mid.is_finite() || mid <= a || mid >= b {
                break;
            }
            if fs(mid) {
                a = mid;
            } else {
                b = mid;
            }
        }
        (if upper { b } else { -b }, false)
    }
}

/// Runs the interval fixpoint for `ckt`.
pub(crate) fn interval_dc(ckt: &Circuit, opts: &AnalyzeOptions) -> IntervalDcResult {
    let n = ckt.num_nodes();
    let gmin = opts.gmin.max(f64::MIN_POSITIVE);

    let mut attach: Vec<Vec<Attach>> = vec![Vec::new(); n];
    let mut const_inj = vec![0.0; n];
    let mut vdefs = Vec::new();
    let mut vdef_inc = vec![false; n];
    let mut opaque_inc = vec![false; n];
    let mut channels = Vec::new();
    let mut junctions = Vec::new();
    let mut findings = Vec::new();
    let mut sum_v = 0.0;
    let mut sum_i = 0.0;
    let mut has_opaque = false;

    for e in ckt.elements() {
        let mut opaque = |findings: &mut Vec<Finding>| {
            has_opaque = true;
            let nodes: Vec<String> = e
                .nodes()
                .iter()
                .map(|&id| ckt.node_name(id).to_string())
                .collect();
            for &id in &e.nodes() {
                opaque_inc[raw(id)] = true;
            }
            findings.push(Finding {
                code: AnalyzeCode::UnmodeledElement,
                element: Some(e.name().to_string()),
                nodes,
                message: format!(
                    "{:?} element has no DC transfer model; interval bounds \
                     near it are worst-case",
                    e.kind()
                ),
            });
        };
        match e.dc_transfer() {
            DcTransfer::Conductance { a, b, g } => {
                let (ra, rb) = (raw(a), raw(b));
                if !(g.is_finite() && g >= 0.0) {
                    opaque(&mut findings);
                } else if ra != rb {
                    attach[ra].push(Attach::Cond { other: rb, g });
                    attach[rb].push(Attach::Cond { other: ra, g });
                }
            }
            DcTransfer::VoltageDefined { a, b, v } => {
                let (ra, rb) = (raw(a), raw(b));
                vdef_inc[ra] = true;
                vdef_inc[rb] = true;
                vdefs.push((ra, rb, v));
                sum_v += v.abs();
            }
            DcTransfer::CurrentSource { a, b, i } => {
                const_inj[raw(a)] -= i;
                const_inj[raw(b)] += i;
                sum_i += i.abs();
            }
            DcTransfer::Open => {}
            DcTransfer::MosChannel { d, g, s, params } => {
                let (rd, rg, rs) = (raw(d), raw(g), raw(s));
                if rd != rs {
                    let idx = channels.len();
                    channels.push(Channel {
                        name: e.name().to_string(),
                        d: rd,
                        g: rg,
                        s: rs,
                        params,
                    });
                    attach[rd].push(Attach::Chan {
                        idx,
                        role: Role::Pos,
                    });
                    attach[rs].push(Attach::Chan {
                        idx,
                        role: Role::Neg,
                    });
                }
            }
            DcTransfer::Junction { a, k, params } => {
                let (ra, rk) = (raw(a), raw(k));
                if ra != rk {
                    let idx = junctions.len();
                    junctions.push(Junction {
                        a: ra,
                        k: rk,
                        params,
                    });
                    attach[ra].push(Attach::Junc {
                        idx,
                        role: Role::Pos,
                    });
                    attach[rk].push(Attach::Junc {
                        idx,
                        role: Role::Neg,
                    });
                }
            }
            DcTransfer::Opaque => opaque(&mut findings),
        }
    }

    // Initial box. With every element modeled and passive, the maximum
    // principle bounds every node by Σ|V| (voltage-source chains) plus
    // Σ|I|/gmin (worst case: all source current through one gmin shunt).
    // Opaque elements break the passivity argument, so those circuits start
    // from the unbounded box instead.
    let init = if has_opaque {
        Interval::TOP
    } else {
        Interval::symmetric(sum_v + sum_i / gmin + 1.0)
    };
    let mut bounds = vec![init; n];
    bounds[0] = Interval::point(0.0);

    let mut prunable = vec![true; n];
    prunable[0] = false;
    for i in 0..n {
        if vdef_inc[i] || opaque_inc[i] {
            // Voltage-defined branch currents are unbounded a priori, and
            // opaque elements inject unknown currents: KCL pruning is
            // unsound at such nodes. Voltage propagation still applies.
            prunable[i] = false;
        }
    }

    let mut model = Model {
        n,
        gmin,
        bounds,
        attach,
        const_inj,
        vdefs,
        prunable,
        channels,
        junctions,
        conflicts: 0,
    };

    let mut sweeps = 0;
    let mut converged = false;
    while sweeps < opts.max_sweeps {
        sweeps += 1;
        model.propagate_vdefs();
        let mut moved = false;
        for node in 1..model.n {
            if model.prunable[node] {
                moved |= model.prune(node, opts.bisect_iters);
            }
        }
        if !moved {
            converged = true;
            break;
        }
    }

    // Final outward pad: the Newton stop criterion tolerates a step of
    // `vntol + reltol·|x|`, so the *computed* solution may sit that far from
    // the exact model solution the feasibility argument bounds.
    let pad = |x: f64, dir: f64| {
        if x.is_finite() {
            x + dir * (1e-5 + 2e-3 * x.abs())
        } else {
            x
        }
    };
    for node in 1..model.n {
        let b = model.bounds[node];
        model.bounds[node] = Interval {
            lo: pad(b.lo, -1.0),
            hi: pad(b.hi, 1.0),
        };
    }

    // Region envelopes + definite-cutoff findings.
    let mut mosfets = Vec::new();
    for ch in &model.channels {
        let p = ch.params.mos_type.polarity();
        let (vd, vg, vs) = (model.bv(ch.d), model.bv(ch.g), model.bv(ch.s));
        let vds = vd.sub(vs).scale(p);
        let vgs = vg.sub(vs).scale(p);
        let vgd = vg.sub(vd).scale(p);
        let vth = ch.params.vth0;
        let definite_cutoff = vgs.hi <= vth && vgd.hi <= vth;
        let conducts = vgs.hi > vth || vgd.hi > vth;
        let vov_hi = vgs.hi - vth;
        let vov_lo = vgs.lo - vth;
        let may_saturation = conducts && vds.hi >= vov_lo.max(0.0);
        let may_triode = conducts && vds.hi > 0.0 && vov_hi > 0.0 && vds.lo < vov_hi;
        let pred = MosPrediction {
            element: ch.name.clone(),
            vgs: (vgs.lo, vgs.hi),
            vds: (vds.lo, vds.hi),
            may_cutoff: vgs.lo <= vth,
            may_triode,
            may_saturation,
            definite_cutoff,
        };
        if definite_cutoff {
            findings.push(Finding {
                code: AnalyzeCode::PredictedCutoff,
                element: Some(ch.name.clone()),
                nodes: vec![
                    ckt.node_name(node_id(ch.d)).to_string(),
                    ckt.node_name(node_id(ch.g)).to_string(),
                    ckt.node_name(node_id(ch.s)).to_string(),
                ],
                message: format!(
                    "provably cut off: vgs ≤ {:.3} V and vgd ≤ {:.3} V over \
                     the whole feasible box (vth = {:.3} V)",
                    vgs.hi, vgd.hi, vth
                ),
            });
        }
        mosfets.push(pred);
    }

    IntervalDcResult {
        bounds: model.bounds,
        mosfets,
        findings,
        sweeps,
        converged,
        conflicts: model.conflicts,
    }
}

/// Inverse of [`raw`].
fn node_id(r: usize) -> NodeId {
    if r == 0 {
        NodeId::GROUND
    } else {
        NodeId::from_raw(u32::try_from(r).unwrap_or(u32::MAX))
    }
}
