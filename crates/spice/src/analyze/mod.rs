//! Static circuit analysis: facts about a circuit *without* simulating it.
//!
//! Three passes over the MNA graph, each emitting typed [`Finding`]s with
//! stable `A###` codes (same severity model as [`crate::lint`]):
//!
//! 1. **Interval operating-point bounds** (`interval_op`) — a monotone
//!    fixpoint over per-node voltage intervals. Every element contributes a
//!    [`crate::element::DcTransfer`] model; nodes are pruned by *interval KCL
//!    feasibility*: since every modeled element's injection into a node is
//!    monotone non-increasing in that node's own voltage (passivity), the set
//!    of node voltages admitting `0 ∈ KCL residual` is itself an interval,
//!    computable by bisection. The converged Newton solution is guaranteed to
//!    lie inside the resulting box — the soundness contract checked by
//!    [`check_op_traced`].
//! 2. **Structural conditioning** (`conditioning`) — assembles the Jacobian
//!    at corner points of the interval box and inspects the per-row magnitude
//!    envelope: near-empty rows predict pivot death, huge row spreads predict
//!    ill-conditioning, and a summary records the Jacobian's dimension and
//!    fill.
//! 3. **Stiffness spectrum** (`stiffness`) — per-node RC time-constant
//!    bounds from the local G and C stamps, recommending an initial `dt` and
//!    flagging spectra wide enough to make LTE-adaptive stepping thrash.
//!
//! The analyzer is *advisory but sound*: it may return loose bounds (and
//! flags nodes it cannot bound via `A001`), but it must never exclude the
//! true operating point. `*_traced` entry points cross-check predictions
//! against runtime telemetry and surface violations as `A006`
//! prediction-violation findings — see `tests/analyze_soundness.rs`.
//!
//! Nothing in the solver calls the analyzer: it runs only when asked
//! (the `cml-lint analyze` CLI, the soundness tests), so it has no
//! switch of its own.

mod conditioning;
mod interval_op;
mod stiffness;

use crate::analysis::op::OpResult;
use crate::circuit::Circuit;
use crate::lint::Severity;
use cml_numeric::Interval;
use cml_telemetry::{Counters, Phase, Telemetry};

/// Stable analyzer diagnostic codes (`A001`…). Codes are append-only: once
/// published, a code keeps its meaning forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalyzeCode {
    /// A001: an element has no DC transfer model; incident nodes keep the
    /// worst-case global bound and downstream passes lose precision.
    UnmodeledElement,
    /// A002: a MOSFET is provably cut off at every point of the interval box
    /// (both `vgs` and `vgd` upper bounds below threshold).
    PredictedCutoff,
    /// A003: the magnitude spread within one Jacobian row exceeds the
    /// conditioning limit; LU pivoting will struggle.
    RowScaleImbalance,
    /// A004: a Jacobian row is numerically empty over the whole interval box;
    /// the matrix is structurally singular or gmin-dominated.
    EmptyRow,
    /// A005: the RC time-constant spectrum is wide enough that LTE-adaptive
    /// transient stepping will thrash between the extremes.
    StiffSpectrum,
    /// A006: a closed-loop soundness check failed — runtime behaviour
    /// contradicted a static prediction. Only emitted by the `check_*`
    /// cross-check entry points, never by [`analyze`] itself.
    PredictionViolation,
}

impl AnalyzeCode {
    /// Every code, in numeric order.
    pub const ALL: [AnalyzeCode; 6] = [
        AnalyzeCode::UnmodeledElement,
        AnalyzeCode::PredictedCutoff,
        AnalyzeCode::RowScaleImbalance,
        AnalyzeCode::EmptyRow,
        AnalyzeCode::StiffSpectrum,
        AnalyzeCode::PredictionViolation,
    ];

    /// Stable code string, e.g. `"A003"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AnalyzeCode::UnmodeledElement => "A001",
            AnalyzeCode::PredictedCutoff => "A002",
            AnalyzeCode::RowScaleImbalance => "A003",
            AnalyzeCode::EmptyRow => "A004",
            AnalyzeCode::StiffSpectrum => "A005",
            AnalyzeCode::PredictionViolation => "A006",
        }
    }

    /// Severity under the shared lint severity model.
    #[must_use]
    pub fn severity(self) -> Severity {
        // All analyzer findings are advisory today; the cross-check violation
        // is the loudest because it means the analyzer itself is wrong.
        Severity::Warning
    }

    /// One-line human title for SARIF / report headers.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            AnalyzeCode::UnmodeledElement => "element has no DC transfer model",
            AnalyzeCode::PredictedCutoff => "MOSFET provably cut off at DC",
            AnalyzeCode::RowScaleImbalance => "Jacobian row magnitude spread is extreme",
            AnalyzeCode::EmptyRow => "Jacobian row numerically empty",
            AnalyzeCode::StiffSpectrum => "stiff RC time-constant spectrum",
            AnalyzeCode::PredictionViolation => "static prediction contradicted by runtime",
        }
    }

    /// Actionable hint rendered with the finding.
    #[must_use]
    pub fn hint(self) -> &'static str {
        match self {
            AnalyzeCode::UnmodeledElement => {
                "interval bounds near this element fall back to worst-case; \
                 add a DcTransfer model to tighten them"
            }
            AnalyzeCode::PredictedCutoff => {
                "the device conducts nowhere in the feasible box; check bias \
                 wiring or remove the device"
            }
            AnalyzeCode::RowScaleImbalance => {
                "rescale element values or expect pivot fallbacks; sparse \
                 Markowitz ordering is recommended"
            }
            AnalyzeCode::EmptyRow => {
                "the unknown is held only by gmin; the operating point there \
                 is numerically arbitrary"
            }
            AnalyzeCode::StiffSpectrum => {
                "use the recommended initial dt and expect LTE step-size \
                 oscillation; consider relaxing the slowest pole"
            }
            AnalyzeCode::PredictionViolation => {
                "file a bug: the analyzer's soundness contract was violated"
            }
        }
    }
}

impl std::fmt::Display for AnalyzeCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single analyzer diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which check fired.
    pub code: AnalyzeCode,
    /// Offending element name, when the finding is element-scoped.
    pub element: Option<String>,
    /// Node / unknown names involved.
    pub nodes: Vec<String>,
    /// Human-readable detail.
    pub message: String,
}

impl Finding {
    /// Severity of this finding (delegates to the code).
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.severity(), self.code)?;
        if let Some(el) = &self.element {
            write!(f, " {el}:")?;
        }
        write!(f, " {}", self.message)?;
        if !self.nodes.is_empty() {
            write!(f, " (nodes: {})", self.nodes.join(", "))?;
        }
        Ok(())
    }
}

/// Proven voltage bounds for one circuit node.
#[derive(Debug, Clone)]
pub struct NodeBound {
    /// Node name as registered in the circuit.
    pub node: String,
    /// Proven lower bound, volts (may be -inf when unbounded).
    pub lo: f64,
    /// Proven upper bound, volts (may be +inf when unbounded).
    pub hi: f64,
}

impl NodeBound {
    /// The bound as an [`Interval`].
    #[must_use]
    pub fn interval(&self) -> Interval {
        Interval {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

/// Predicted DC operating envelope for one MOSFET.
#[derive(Debug, Clone)]
pub struct MosPrediction {
    /// Device name.
    pub element: String,
    /// Normalized (polarity-corrected) gate-source voltage bounds.
    pub vgs: (f64, f64),
    /// Normalized drain-source voltage bounds.
    pub vds: (f64, f64),
    /// Cutoff is possible somewhere in the box.
    pub may_cutoff: bool,
    /// Triode operation is possible somewhere in the box.
    pub may_triode: bool,
    /// Saturation is possible somewhere in the box.
    pub may_saturation: bool,
    /// The device is cut off at *every* point of the box.
    pub definite_cutoff: bool,
}

impl MosPrediction {
    /// The possible regions as short names, e.g. `["cutoff", "saturation"]`.
    #[must_use]
    pub fn regions(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.may_cutoff {
            out.push("cutoff");
        }
        if self.may_triode {
            out.push("triode");
        }
        if self.may_saturation {
            out.push("saturation");
        }
        out
    }
}

/// Summary of the structural conditioning pass.
#[derive(Debug, Clone)]
pub struct ConditioningSummary {
    /// MNA system dimension (nodes + branch currents).
    pub dim: usize,
    /// Number of unknown node voltages.
    pub n_nodes: usize,
    /// Nonzeros in the magnitude envelope of the Jacobian.
    pub nnz: usize,
    /// `nnz / dim²`.
    pub density: f64,
    /// Worst row magnitude spread `max/min` over nonzero envelope entries.
    pub max_row_spread: f64,
    /// Unknown name of the worst-spread row, if any row has ≥ 2 nonzeros.
    pub worst_row: Option<String>,
    /// Unknowns whose rows are numerically empty over the whole box.
    pub empty_rows: Vec<String>,
}

/// Summary of the stiffness / time-constant pass.
#[derive(Debug, Clone)]
pub struct StiffnessSummary {
    /// Fastest per-node RC time constant, seconds.
    pub tau_min: f64,
    /// Slowest per-node RC time constant, seconds.
    pub tau_max: f64,
    /// Node owning `tau_min`.
    pub tau_min_node: String,
    /// Node owning `tau_max`.
    pub tau_max_node: String,
    /// `tau_max / tau_min`.
    pub stiffness_ratio: f64,
    /// Recommended initial transient step (resolves the fastest pole).
    pub recommended_dt: f64,
    /// Number of nodes with a usable local capacitance.
    pub reactive_nodes: usize,
}

/// Convergence statistics of the interval fixpoint.
#[derive(Debug, Clone, Copy)]
pub struct FixpointStats {
    /// Sweeps executed before convergence (or the cap).
    pub sweeps: usize,
    /// Whether the fixpoint converged before the sweep cap.
    pub converged: bool,
    /// Nodes whose KCL feasibility check found no feasible voltage (kept
    /// their previous bound; indicates a circuit with no DC solution or an
    /// analyzer bug).
    pub conflicts: usize,
}

/// Full result of [`analyze`]: per-node bounds, per-device predictions, the
/// conditioning and stiffness summaries, and all findings.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Proven voltage bounds per unknown node, in node-id order.
    pub node_bounds: Vec<NodeBound>,
    /// Operating-region envelopes per MOSFET, in element order.
    pub mosfets: Vec<MosPrediction>,
    /// Conditioning pass output.
    pub conditioning: ConditioningSummary,
    /// Stiffness pass output (`None` when the circuit has no usable C).
    pub stiffness: Option<StiffnessSummary>,
    /// All findings from all passes.
    pub findings: Vec<Finding>,
    /// Interval fixpoint statistics.
    pub fixpoint: FixpointStats,
}

impl AnalysisReport {
    /// Whether any finding is [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.at_least(Severity::Error)
    }

    /// Whether the report has no findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings at exactly `sev`.
    #[must_use]
    pub fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity() == sev).count()
    }

    /// Whether any finding is at `sev` or worse.
    #[must_use]
    pub fn at_least(&self, sev: Severity) -> bool {
        self.findings.iter().any(|f| f.severity() >= sev)
    }

    /// Bound for a node by name, if the node exists.
    #[must_use]
    pub fn bound_for(&self, node: &str) -> Option<&NodeBound> {
        self.node_bounds.iter().find(|b| b.node == node)
    }

    /// Renders findings at `min_severity` or worse, one per line, followed by
    /// a one-line summary. Mirrors `LintReport::render`.
    #[must_use]
    pub fn render(&self, min_severity: Severity) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.severity() >= min_severity {
                out.push_str(&f.to_string());
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "analysis: {} error(s), {} warning(s), {} info; {} node(s) bounded, {} sweep(s){}\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.node_bounds
                .iter()
                .filter(|b| !b.interval().is_unbounded() && b.hi - b.lo < 1e3)
                .count(),
            self.fixpoint.sweeps,
            if self.fixpoint.converged {
                ""
            } else {
                " (fixpoint hit sweep cap)"
            },
        ));
        out
    }
}

/// Tuning knobs for [`analyze_with`]. The defaults match the solver's
/// defaults (gmin) and the thresholds used by the golden tests.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOptions {
    /// Shunt conductance to ground assumed at every node; must match the
    /// final-polish gmin of the Newton solve being predicted.
    pub gmin: f64,
    /// Cap on fixpoint sweeps.
    pub max_sweeps: usize,
    /// Bisection iterations per node-bound prune.
    pub bisect_iters: usize,
    /// Row `max/min` spread that triggers `A003`.
    pub row_spread_limit: f64,
    /// Envelope magnitude below which a row entry counts as zero (`A004`).
    pub empty_row_eps: f64,
    /// `tau_max/tau_min` ratio that triggers `A005`.
    pub stiffness_limit: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            gmin: 1e-12,
            max_sweeps: 30,
            bisect_iters: 50,
            row_spread_limit: 1e10,
            empty_row_eps: 1e-9,
            stiffness_limit: 1e6,
        }
    }
}

/// Runs all passes with default options.
#[must_use]
pub fn analyze(ckt: &Circuit) -> AnalysisReport {
    analyze_with(ckt, &AnalyzeOptions::default())
}

/// Runs all passes with explicit options.
#[must_use]
pub fn analyze_with(ckt: &Circuit, opts: &AnalyzeOptions) -> AnalysisReport {
    let iv = interval_op::interval_dc(ckt, opts);
    let mut findings = iv.findings.clone();

    let cond = conditioning::conditioning(ckt, &iv.bounds, opts);
    findings.extend(cond.findings);

    let (stiff, stiff_findings) = stiffness::stiffness(ckt, &iv.bounds, opts);
    findings.extend(stiff_findings);

    let node_bounds = (1..ckt.num_nodes())
        .map(|raw| {
            let b = iv.bounds[raw];
            NodeBound {
                node: ckt
                    .node_name(crate::circuit::NodeId::from_raw(
                        u32::try_from(raw).unwrap_or(0),
                    ))
                    .to_string(),
                lo: b.lo,
                hi: b.hi,
            }
        })
        .collect();

    AnalysisReport {
        node_bounds,
        mosfets: iv.mosfets,
        conditioning: cond.summary,
        stiffness: stiff,
        findings,
        fixpoint: FixpointStats {
            sweeps: iv.sweeps,
            converged: iv.converged,
            conflicts: iv.conflicts,
        },
    }
}

/// [`analyze_with`] under a telemetry span; bumps the `analyze_runs` counter.
#[must_use]
pub fn analyze_traced(ckt: &Circuit, opts: &AnalyzeOptions, tel: &Telemetry) -> AnalysisReport {
    let _t = tel.timer(Phase::Analyze);
    tel.count(|c| c.analyze_runs += 1);
    analyze_with(ckt, opts)
}

/// Closed-loop soundness check: every converged node voltage must lie inside
/// the predicted interval. Returns `A006` findings for violations and bumps
/// the prediction counters.
#[must_use]
pub fn check_op_traced(
    ckt: &Circuit,
    report: &AnalysisReport,
    op: &OpResult,
    tel: &Telemetry,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let n = report
        .node_bounds
        .len()
        .min(ckt.num_nodes().saturating_sub(1));
    for (i, nb) in report.node_bounds.iter().take(n).enumerate() {
        let node = crate::circuit::NodeId::from_raw(u32::try_from(i + 1).unwrap_or(0));
        let v = op.voltage(node);
        tel.count(|c| c.prediction_checks += 1);
        if !(v >= nb.lo && v <= nb.hi) {
            tel.count(|c| c.prediction_violations += 1);
            out.push(Finding {
                code: AnalyzeCode::PredictionViolation,
                element: None,
                nodes: vec![nb.node.clone()],
                message: format!(
                    "converged op voltage {v:.6e} V escapes predicted bounds \
                     [{:.6e}, {:.6e}] V",
                    nb.lo, nb.hi
                ),
            });
        }
    }
    out
}

/// Non-traced wrapper around [`check_op_traced`].
#[must_use]
pub fn check_op(ckt: &Circuit, report: &AnalysisReport, op: &OpResult) -> Vec<Finding> {
    check_op_traced(ckt, report, op, &Telemetry::default())
}

/// Closed-loop conditioning check: a circuit the analyzer predicted healthy
/// (no `A003`/`A004`) must not have needed dense fallbacks or pivot rescue at
/// runtime. Returns `A006` findings for contradictions.
#[must_use]
pub fn check_counters_traced(
    report: &AnalysisReport,
    counters: &Counters,
    tel: &Telemetry,
) -> Vec<Finding> {
    tel.count(|c| c.prediction_checks += 1);
    let predicted_trouble = report.findings.iter().any(|f| {
        matches!(
            f.code,
            AnalyzeCode::RowScaleImbalance | AnalyzeCode::EmptyRow
        )
    });
    let mut out = Vec::new();
    if !predicted_trouble && counters.dense_fallbacks > 0 {
        tel.count(|c| c.prediction_violations += 1);
        out.push(Finding {
            code: AnalyzeCode::PredictionViolation,
            element: None,
            nodes: Vec::new(),
            message: format!(
                "analyzer predicted a well-conditioned system but the sparse \
                 solver fell back to dense {} time(s)",
                counters.dense_fallbacks
            ),
        });
    }
    out
}
