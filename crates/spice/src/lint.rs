//! Pre-simulation netlist linter: structural DRC, singularity prediction
//! and parameter-sanity diagnostics over a [`Circuit`].
//!
//! The linter inspects a circuit *statically* — no Newton iteration, no
//! factorization — and emits [`Diagnostic`]s with stable codes (L001…),
//! a severity, the offending element/node names and a fix hint. The
//! analysis entry points ([`crate::analysis::op`], `dc`, `ac`, `tran`)
//! run the error-level subset through [`precheck`] before touching the
//! solver, so a malformed netlist is rejected with an actionable
//! [`SpiceError::LintRejected`] instead of failing deep inside Newton
//! with a bare `SingularMatrix` (or converging to gmin-rescued garbage).
//! The precheck always runs and is never cached.
//!
//! # Passes
//!
//! 1. **Connectivity** — floating nodes ([`LintCode::FloatingNode`]),
//!    components with no DC path to ground ([`LintCode::NoDcPath`]),
//!    walked over each element's declared [`DcCoupling`]s.
//! 2. **Structural** — loops of voltage-defined elements
//!    ([`LintCode::VoltageLoop`]) via union-find, all-current-source
//!    cutsets ([`LintCode::CurrentCutset`]), and generic-rank prediction
//!    ([`LintCode::StructuralSingular`]): one recording-[`Stamper`] pass
//!    captures the DC stamp sparsity pattern (the same mechanism the
//!    sparse solver uses for pattern discovery) and a maximum bipartite
//!    matching bounds the rank — a deficient pattern is singular for
//!    *every* assignment of element values.
//! 3. **Parameter sanity** — duplicate names, degenerate MOSFET wiring,
//!    dead sources, implausible magnitudes, via [`Element::lint_self`].
//! 4. **Operating-point heuristics** — current-source bias networks with
//!    no driving voltage source anywhere in their DC-connected component
//!    ([`LintCode::UnreferencedBias`], the class of bug where a BMVR
//!    tail current lands on transistors whose gates can never leave 0 V).
//!
//! The graph passes and the matching are complementary: an ungrounded
//! resistor island has a generically full-rank pattern (its singularity
//! is a value-level cancellation), so only reachability sees it, while an
//! empty matrix row/column (floating MOSFET gate, unread VCCS output) is
//! invisible to reachability under generous couplings and only the
//! matching sees it.

use crate::circuit::{Circuit, NodeId};
use crate::element::{DcCoupling, Element, ElementKind, StampCtx, StampMode, Stamper};
use crate::SpiceError;
use cml_numeric::matching::max_bipartite_matching;
use std::collections::HashMap;
use std::fmt;

/// How serious a diagnostic is. Errors predict a failed or meaningless
/// solve and make [`precheck`] reject the netlist; warnings and infos
/// never block simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Stylistic or harmless-but-suspicious construct.
    Info,
    /// Likely bug that the solver will nonetheless survive.
    Warning,
    /// Structural defect: the MNA system is singular or the element
    /// bookkeeping is corrupted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric form (`L001`…) is part of the
/// public interface: tests, tooling and suppression lists key on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// L001: a node appears in no element.
    FloatingNode,
    /// L002: a connected component has no DC path to ground.
    NoDcPath,
    /// L003: a loop of voltage-defined elements (V sources, inductors,
    /// VCVS outputs).
    VoltageLoop,
    /// L004: an island connected to the rest of the circuit only through
    /// current sources.
    CurrentCutset,
    /// L005: the DC stamp pattern is structurally rank-deficient.
    StructuralSingular,
    /// L006: two elements share a name.
    DuplicateName,
    /// L007: a MOSFET with drain and source on the same node.
    MosfetDegenerate,
    /// L008: a source that injects nothing in any analysis.
    DeadSource,
    /// L009: a parameter magnitude far outside the plausible range.
    ExtremeParameter,
    /// L010: a DC current source biasing a transistor network that
    /// contains no voltage source to reference.
    UnreferencedBias,
    /// L011: a node reached by exactly one two-terminal element — a stub
    /// that carries no current.
    DanglingStub,
    /// L012: an element with both terminals on the same node.
    SelfLoop,
}

impl LintCode {
    /// Every code, in numeric order — the documentation table and the
    /// CLI `--codes` listing iterate this.
    pub const ALL: [LintCode; 12] = [
        LintCode::FloatingNode,
        LintCode::NoDcPath,
        LintCode::VoltageLoop,
        LintCode::CurrentCutset,
        LintCode::StructuralSingular,
        LintCode::DuplicateName,
        LintCode::MosfetDegenerate,
        LintCode::DeadSource,
        LintCode::ExtremeParameter,
        LintCode::UnreferencedBias,
        LintCode::DanglingStub,
        LintCode::SelfLoop,
    ];

    /// The stable code string, `"L001"` … `"L012"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::FloatingNode => "L001",
            LintCode::NoDcPath => "L002",
            LintCode::VoltageLoop => "L003",
            LintCode::CurrentCutset => "L004",
            LintCode::StructuralSingular => "L005",
            LintCode::DuplicateName => "L006",
            LintCode::MosfetDegenerate => "L007",
            LintCode::DeadSource => "L008",
            LintCode::ExtremeParameter => "L009",
            LintCode::UnreferencedBias => "L010",
            LintCode::DanglingStub => "L011",
            LintCode::SelfLoop => "L012",
        }
    }

    /// Severity class of this code.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            LintCode::FloatingNode
            | LintCode::NoDcPath
            | LintCode::VoltageLoop
            | LintCode::CurrentCutset
            | LintCode::StructuralSingular
            | LintCode::DuplicateName => Severity::Error,
            LintCode::MosfetDegenerate
            | LintCode::DeadSource
            | LintCode::ExtremeParameter
            | LintCode::UnreferencedBias => Severity::Warning,
            LintCode::DanglingStub | LintCode::SelfLoop => Severity::Info,
        }
    }

    /// One-line name of the defect class.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            LintCode::FloatingNode => "floating node",
            LintCode::NoDcPath => "no DC path to ground",
            LintCode::VoltageLoop => "voltage-defined loop",
            LintCode::CurrentCutset => "current-source cutset",
            LintCode::StructuralSingular => "structurally singular MNA system",
            LintCode::DuplicateName => "duplicate element name",
            LintCode::MosfetDegenerate => "degenerate MOSFET connection",
            LintCode::DeadSource => "dead source",
            LintCode::ExtremeParameter => "implausible parameter magnitude",
            LintCode::UnreferencedBias => "bias network without voltage reference",
            LintCode::DanglingStub => "dangling stub",
            LintCode::SelfLoop => "element shorted to itself",
        }
    }

    /// Suggested fix, rendered under the diagnostic.
    #[must_use]
    pub fn hint(self) -> &'static str {
        match self {
            LintCode::FloatingNode => {
                "connect the node to an element, or remove it from the netlist"
            }
            LintCode::NoDcPath => {
                "add a DC-conductive path (resistor, channel, source) from the island to ground; \
                 capacitors are open and current sources carry no potential at DC"
            }
            LintCode::VoltageLoop => {
                "break the loop: voltage sources, inductors and VCVS outputs each fix a voltage \
                 difference, and a closed loop of them over-determines KVL"
            }
            LintCode::CurrentCutset => {
                "give the island a non-current-source connection; a cut of ideal current sources \
                 leaves the island's charge (and potential) undefined"
            }
            LintCode::StructuralSingular => {
                "every listed unknown needs an equation that depends on it: attach a conductive \
                 element, or remove the unknown (e.g. drive a floating gate, load a VCCS output)"
            }
            LintCode::DuplicateName => {
                "rename one of the elements; branch-current lookup and diagnostics key on names"
            }
            LintCode::MosfetDegenerate => {
                "a MOSFET with drain tied to source conducts nothing; check the terminal order \
                 (d, g, s, b)"
            }
            LintCode::DeadSource => {
                "the source has zero DC and zero AC magnitude, so it only shorts/opens its nodes; \
                 give it a value or remove it"
            }
            LintCode::ExtremeParameter => {
                "the value parses but is orders of magnitude outside circuit practice; check the \
                 unit prefix (meg vs m, f vs F)"
            }
            LintCode::UnreferencedBias => {
                "the driven component contains transistors but no voltage source: gates can never \
                 leave 0 V, so the tail current has nowhere to flow; add the supply before solving"
            }
            LintCode::DanglingStub => {
                "the stub carries no current and does not affect the solution; remove it or finish \
                 the intended connection"
            }
            LintCode::SelfLoop => {
                "both terminals are on the same node, so the element drops zero volts and stamps \
                 nothing useful; check the node wiring"
            }
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One linter finding: a coded defect with the names needed to locate it.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code identifying the defect class.
    pub code: LintCode,
    /// Offending element, when the defect is element-shaped.
    pub element: Option<String>,
    /// Offending node names, when the defect is node-shaped.
    pub nodes: Vec<String>,
    /// Human-readable specifics.
    pub message: String,
}

impl Diagnostic {
    /// Severity of this diagnostic (derived from its code).
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity(),
            self.code,
            self.code.title(),
            self.message
        )?;
        if let Some(e) = &self.element {
            write!(f, " (element {e})")?;
        }
        Ok(())
    }
}

/// Result of a lint run: diagnostics sorted errors-first, then by code.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Whether any error-level diagnostic is present.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// Whether the report is completely clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of diagnostics at exactly `sev`.
    #[must_use]
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == sev)
            .count()
    }

    /// Diagnostics at or above `min`.
    pub fn at_least(&self, min: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity() >= min)
    }

    /// Renders the report as human-readable text, one finding plus its
    /// fix hint per paragraph, for diagnostics at or above `min`.
    #[must_use]
    pub fn render(&self, min: Severity) -> String {
        let mut out = String::new();
        for d in self.at_least(min) {
            out.push_str(&d.to_string());
            out.push('\n');
            if !d.nodes.is_empty() {
                out.push_str(&format!("    nodes: {}\n", d.nodes.join(", ")));
            }
            out.push_str(&format!("    hint: {}\n", d.code.hint()));
        }
        out
    }
}

/// Runs every lint pass over the circuit.
#[must_use]
pub fn lint(ckt: &Circuit) -> LintReport {
    lint_impl(ckt, false)
}

/// The cheap, mandatory error-level subset run by every analysis entry
/// point. Returns [`SpiceError::LintRejected`] carrying the error
/// diagnostics when the netlist is structurally unsolvable.
///
/// # Errors
///
/// [`SpiceError::LintRejected`] when any error-level diagnostic fires.
pub fn precheck(ckt: &Circuit) -> Result<(), SpiceError> {
    let report = lint_impl(ckt, true);
    if report.has_errors() {
        return Err(SpiceError::LintRejected {
            diagnostics: report.diagnostics,
        });
    }
    Ok(())
}

/// Unit-aware plausible magnitude band `(min, max, unit)` for a passive
/// element kind. The bands are per-kind on purpose: a 1 fF capacitor is
/// a perfectly ordinary parasitic, while a 1 fΩ "resistor" is a typo —
/// one global magnitude band cannot express both. `None` for kinds with
/// no meaningful single-parameter band.
#[must_use]
pub fn plausible_band(kind: ElementKind) -> Option<(f64, f64, &'static str)> {
    match kind {
        ElementKind::Resistor => Some((1e-3, 1e9, "ohm")),
        ElementKind::Capacitor => Some((1e-18, 1e-3, "F")),
        ElementKind::Inductor => Some((1e-15, 1.0, "H")),
        _ => None,
    }
}

/// L009 helper: renders the extreme-parameter message when `value` falls
/// outside the [`plausible_band`] of `kind`, `None` when plausible (or
/// when the kind has no band).
#[must_use]
pub fn extreme_value(quantity: &str, value: f64, kind: ElementKind) -> Option<String> {
    let (min, max, unit) = plausible_band(kind)?;
    if value < min || value > max {
        Some(format!(
            "{quantity} {value:.3e} {unit} is outside the plausible band [{min:.0e}, {max:.0e}] {unit}"
        ))
    } else {
        None
    }
}

/// Names of elements that appear more than once (helper for cell-builder
/// debug assertions in `cml-core`, which lint partial circuits where the
/// full connectivity passes would falsely fire).
#[must_use]
pub fn duplicate_element_names(ckt: &Circuit) -> Vec<String> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for e in ckt.elements() {
        *counts.entry(e.name()).or_insert(0) += 1;
    }
    let mut dupes: Vec<String> = counts
        .into_iter()
        .filter(|&(_, c)| c > 1)
        .map(|(n, _)| n.to_string())
        .collect();
    dupes.sort();
    dupes
}

/// Union-find over node raw ids.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Maximum node names listed per component-level diagnostic.
const MAX_LISTED_NODES: usize = 6;

fn node_names(ckt: &Circuit, raws: &[usize]) -> Vec<String> {
    raws.iter()
        .take(MAX_LISTED_NODES)
        .map(|&r| ckt.node_name(NodeId::from_raw(r as u32)).to_string())
        .collect()
}

fn lint_impl(ckt: &Circuit, errors_only: bool) -> LintReport {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let n_total = ckt.num_nodes();
    let elems: Vec<&dyn Element> = ckt.elements().collect();

    // Incidence: raw node id → element indices (deduplicated per element).
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n_total];
    for (ei, e) in elems.iter().enumerate() {
        let mut nodes: Vec<u32> = e.nodes().iter().map(|n| n.raw()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for raw in nodes {
            incident[raw as usize].push(ei);
        }
    }

    // L006: duplicate element names.
    {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for e in &elems {
            *counts.entry(e.name()).or_insert(0) += 1;
        }
        let mut dupes: Vec<(&str, usize)> = counts.into_iter().filter(|&(_, c)| c > 1).collect();
        dupes.sort_unstable();
        for (name, count) in dupes {
            diags.push(Diagnostic {
                code: LintCode::DuplicateName,
                element: Some(name.to_string()),
                nodes: Vec::new(),
                message: format!("element name '{name}' is used by {count} elements"),
            });
        }
    }

    // Element-local sanity (L007/L008/L009/L012) — warnings and infos.
    if !errors_only {
        for e in &elems {
            for (code, message) in e.lint_self() {
                diags.push(Diagnostic {
                    code,
                    element: Some(e.name().to_string()),
                    nodes: e
                        .nodes()
                        .iter()
                        .map(|&n| ckt.node_name(n).to_string())
                        .collect(),
                    message,
                });
            }
        }
    }

    // L001: nodes in no element.
    let mut floating = vec![false; n_total];
    for (raw, inc) in incident.iter().enumerate().skip(1) {
        if inc.is_empty() {
            floating[raw] = true;
            let name = ckt.node_name(NodeId::from_raw(raw as u32)).to_string();
            diags.push(Diagnostic {
                code: LintCode::FloatingNode,
                element: None,
                nodes: vec![name.clone()],
                message: format!("node '{name}' appears in no element"),
            });
        }
    }

    // DC-connectivity components over conductive + voltage-defined
    // couplings, and the voltage-defined edge list for loop detection.
    let mut dsu = Dsu::new(n_total);
    let mut v_edges: Vec<(usize, usize, usize)> = Vec::new(); // (a, b, elem)
    for (ei, e) in elems.iter().enumerate() {
        for c in e.dc_couplings() {
            match c {
                DcCoupling::Conductive(a, b) => dsu.union(a.raw() as usize, b.raw() as usize),
                DcCoupling::VoltageDefined(a, b) => {
                    v_edges.push((a.raw() as usize, b.raw() as usize, ei));
                    dsu.union(a.raw() as usize, b.raw() as usize);
                }
                DcCoupling::CurrentInjection(..) => {}
            }
        }
    }

    // L002 / L004: ungrounded components.
    let ground_root = dsu.find(0);
    let mut comps: HashMap<usize, Vec<usize>> = HashMap::new();
    for (raw, &is_floating) in floating.iter().enumerate().take(n_total).skip(1) {
        if !is_floating {
            let root = dsu.find(raw);
            if root != ground_root {
                comps.entry(root).or_default().push(raw);
            }
        }
    }
    let mut comps: Vec<Vec<usize>> = comps.into_values().collect();
    comps.sort_by_key(|c| c[0]);
    for comp in &comps {
        let root = dsu.find(comp[0]);
        // Elements crossing the cut around this component.
        let mut crossing: Vec<usize> = Vec::new();
        for &raw in comp {
            for &ei in &incident[raw] {
                let nodes = elems[ei].nodes();
                if nodes.iter().any(|n| dsu.find(n.raw() as usize) != root) {
                    crossing.push(ei);
                }
            }
        }
        crossing.sort_unstable();
        crossing.dedup();
        let all_current = !crossing.is_empty()
            && crossing
                .iter()
                .all(|&ei| elems[ei].kind() == ElementKind::CurrentSource);
        let names = node_names(ckt, comp);
        let listed = names.join(", ");
        let suffix = if comp.len() > MAX_LISTED_NODES {
            format!(" (+{} more)", comp.len() - MAX_LISTED_NODES)
        } else {
            String::new()
        };
        if all_current {
            diags.push(Diagnostic {
                code: LintCode::CurrentCutset,
                element: Some(elems[crossing[0]].name().to_string()),
                nodes: names,
                message: format!(
                    "node(s) {listed}{suffix} connect to the rest of the circuit only through \
                     ideal current sources"
                ),
            });
        } else {
            diags.push(Diagnostic {
                code: LintCode::NoDcPath,
                element: None,
                nodes: names,
                message: format!("node(s) {listed}{suffix} have no DC path to ground"),
            });
        }
    }

    // L003: loops (and self-shorts) of voltage-defined elements.
    {
        let mut vdsu = Dsu::new(n_total);
        for &(a, b, ei) in &v_edges {
            if a == b {
                diags.push(Diagnostic {
                    code: LintCode::VoltageLoop,
                    element: Some(elems[ei].name().to_string()),
                    nodes: vec![ckt.node_name(NodeId::from_raw(a as u32)).to_string()],
                    message: format!("'{}' has both terminals on the same node", elems[ei].name()),
                });
            } else if vdsu.find(a) == vdsu.find(b) {
                diags.push(Diagnostic {
                    code: LintCode::VoltageLoop,
                    element: Some(elems[ei].name().to_string()),
                    nodes: node_names(ckt, &[a, b]),
                    message: format!(
                        "'{}' closes a loop of voltage-defined elements (voltage sources, \
                         inductors, VCVS outputs)",
                        elems[ei].name()
                    ),
                });
            } else {
                vdsu.union(a, b);
            }
        }
    }

    let have_errors = diags.iter().any(|d| d.severity() == Severity::Error);

    // L005: structural rank of the recorded DC stamp pattern. Skipped
    // when a graph pass already found an error — those passes explain
    // the deficiency with a sharper message, and the matching would
    // re-report the same unknowns.
    if !have_errors {
        let (dim, n_nodes, positions, branch_owner) = stamp_pattern(ckt, &elems);
        if dim > 0 {
            let m = max_bipartite_matching(dim, dim, &positions);
            if m.size < dim {
                let unknowns: Vec<String> = m
                    .unmatched_cols()
                    .iter()
                    .take(MAX_LISTED_NODES)
                    .map(|&i| unknown_name(ckt, i, n_nodes, &branch_owner))
                    .collect();
                let node_list: Vec<String> = m
                    .unmatched_cols()
                    .iter()
                    .filter(|&&i| i < n_nodes)
                    .map(|&i| ckt.node_name(NodeId::from_raw(i as u32 + 1)).to_string())
                    .collect();
                diags.push(Diagnostic {
                    code: LintCode::StructuralSingular,
                    element: None,
                    nodes: node_list,
                    message: format!(
                        "structural rank {} < dimension {dim}: unknown(s) {} appear in no \
                         independent equation",
                        m.size,
                        unknowns.join(", ")
                    ),
                });
            }
        }
    }

    // Heuristics (L010/L011) only fire on circuits that are otherwise
    // structurally sound — anything else would bury the real error.
    if !errors_only && !diags.iter().any(|d| d.severity() == Severity::Error) {
        // Components (by root) containing a voltage source / a MOSFET.
        let mut has_vsource: HashMap<usize, bool> = HashMap::new();
        let mut has_mosfet: HashMap<usize, bool> = HashMap::new();
        for e in &elems {
            let mark = match e.kind() {
                ElementKind::VoltageSource => &mut has_vsource,
                ElementKind::Mosfet => &mut has_mosfet,
                _ => continue,
            };
            for n in e.nodes() {
                mark.insert(dsu.find(n.raw() as usize), true);
            }
        }
        // L010: DC current sources into voltage-reference-free networks.
        for e in &elems {
            if e.kind() != ElementKind::CurrentSource {
                continue;
            }
            if e.dc_source_value().unwrap_or(0.0) == 0.0 {
                continue;
            }
            let roots: Vec<usize> = e
                .nodes()
                .iter()
                .map(|n| dsu.find(n.raw() as usize))
                .collect();
            let sees_vsource = roots
                .iter()
                .any(|r| has_vsource.get(r).copied().unwrap_or(false));
            let sees_mosfet = roots
                .iter()
                .any(|r| has_mosfet.get(r).copied().unwrap_or(false));
            if sees_mosfet && !sees_vsource {
                diags.push(Diagnostic {
                    code: LintCode::UnreferencedBias,
                    element: Some(e.name().to_string()),
                    nodes: e
                        .nodes()
                        .iter()
                        .map(|&n| ckt.node_name(n).to_string())
                        .collect(),
                    message: format!(
                        "current source '{}' drives a transistor network that contains no \
                         voltage source",
                        e.name()
                    ),
                });
            }
        }
        // L011: single-element resistor/inductor stubs.
        for (raw, inc) in incident.iter().enumerate().take(n_total).skip(1) {
            if inc.len() != 1 {
                continue;
            }
            let ei = inc[0];
            let kind = elems[ei].kind();
            if !matches!(kind, ElementKind::Resistor | ElementKind::Inductor) {
                continue;
            }
            let nodes = elems[ei].nodes();
            if nodes.len() == 2 && nodes[0] != nodes[1] {
                let name = ckt.node_name(NodeId::from_raw(raw as u32)).to_string();
                diags.push(Diagnostic {
                    code: LintCode::DanglingStub,
                    element: Some(elems[ei].name().to_string()),
                    nodes: vec![name.clone()],
                    message: format!(
                        "node '{name}' is reached only by '{}'; the stub carries no current",
                        elems[ei].name()
                    ),
                });
            }
        }
    }

    // Stable presentation: errors first, then by code, then by locus.
    diags.sort_by(|a, b| {
        b.severity()
            .cmp(&a.severity())
            .then(a.code.cmp(&b.code))
            .then(a.element.cmp(&b.element))
            .then(a.nodes.cmp(&b.nodes))
    });
    LintReport { diagnostics: diags }
}

/// Records the DC stamp sparsity pattern with one recording-[`Stamper`]
/// pass at `x = 0` — no gmin, no symmetrization, no forced diagonal, so
/// the pattern is exactly what the elements write. Returns
/// `(dim, n_nodes, positions, branch_owner)` where `branch_owner[k]` is
/// the element owning branch unknown `k`.
pub(crate) fn stamp_pattern(
    ckt: &Circuit,
    elems: &[&dyn Element],
) -> (usize, usize, Vec<(usize, usize)>, Vec<String>) {
    let n_nodes = ckt.num_unknown_nodes();
    let mut branch_owner: Vec<String> = Vec::new();
    for e in elems {
        for _ in 0..e.num_branches() {
            branch_owner.push(e.name().to_string());
        }
    }
    let dim = n_nodes + branch_owner.len();
    let x = vec![0.0; dim];
    let mut positions: Vec<(usize, usize)> = Vec::new();
    let mut scratch_rhs = vec![0.0; dim];
    let mut branch_base = 0;
    for e in elems {
        let ctx = StampCtx {
            x: &x,
            state: &[],
            branch_base,
            n_nodes,
            mode: StampMode::dc(),
        };
        let mut stamper = Stamper::pattern(&mut positions, &mut scratch_rhs, n_nodes);
        e.stamp(&ctx, &mut stamper);
        branch_base += e.num_branches();
    }
    (dim, n_nodes, positions, branch_owner)
}

/// Human name of MNA unknown `i`: a node voltage or a branch current.
pub(crate) fn unknown_name(
    ckt: &Circuit,
    i: usize,
    n_nodes: usize,
    branch_owner: &[String],
) -> String {
    if i < n_nodes {
        format!("v({})", ckt.node_name(NodeId::from_raw(i as u32 + 1)))
    } else {
        format!("i({})", branch_owner[i - n_nodes])
    }
}
