//! Closed-loop soundness suite for the static analyzer.
//!
//! The analyzer's core contract: the interval operating-point bounds must
//! contain the converged Newton solution for every circuit the solver can
//! handle — checked here over every builtin seed cell, plus the telemetry
//! cross-checks.

use cml_lint::{builtin_circuit, BUILTIN_NAMES};
use cml_spice::analysis::tran::{self, TranConfig};
use cml_spice::analysis::{op, NewtonOptions};
use cml_spice::analyze;
use cml_spice::circuit::Circuit;
use cml_spice::element::DcTransfer;
use cml_spice::telemetry::Telemetry;

/// Whether the cell contains elements the interval pass cannot model
/// (controlled sources); for those, unbounded boxes and `A001` are the
/// *correct* sound answer, not a defect.
fn has_opaque(ckt: &Circuit) -> bool {
    ckt.elements()
        .any(|e| matches!(e.dc_transfer(), DcTransfer::Opaque))
}

#[test]
fn interval_bounds_contain_op_on_every_builtin() {
    for which in BUILTIN_NAMES {
        let ckt = builtin_circuit(which).expect("builtin");
        let report = analyze::analyze(&ckt);
        let op = op::solve(&ckt).unwrap_or_else(|e| panic!("op({which}) failed: {e}"));
        let violations = analyze::check_op(&ckt, &report, &op);
        assert!(
            violations.is_empty(),
            "{which}: {} prediction violation(s):\n{}",
            violations.len(),
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        // The fixpoint must actually do useful work on fully-modeled cells:
        // every node bounded, no feasibility conflicts. Opaque-containing
        // cells are allowed unbounded nodes (sound ignorance near the
        // controlled source) but must still satisfy containment above.
        assert_eq!(report.fixpoint.conflicts, 0, "{which}: conflicts");
        if !has_opaque(&ckt) {
            for nb in &report.node_bounds {
                assert!(
                    nb.lo.is_finite() && nb.hi.is_finite(),
                    "{which}: node {} unbounded [{}, {}]",
                    nb.node,
                    nb.lo,
                    nb.hi
                );
            }
        }
    }
}

#[test]
fn no_analysis_findings_above_warning_on_builtins() {
    use cml_lint::Severity;
    for which in BUILTIN_NAMES {
        let ckt = builtin_circuit(which).expect("builtin");
        let report = analyze::analyze(&ckt);
        assert!(
            !report.at_least(Severity::Error),
            "{which}:\n{}",
            report.render(Severity::Info)
        );
        // A001 fires exactly when the cell contains an opaque element.
        let a001 = report
            .findings
            .iter()
            .any(|f| f.code == analyze::AnalyzeCode::UnmodeledElement);
        assert_eq!(
            a001,
            has_opaque(&ckt),
            "{which}: A001 mismatch\n{}",
            report.render(Severity::Info)
        );
    }
}

#[test]
fn telemetry_cross_check_is_clean_on_builtins() {
    for which in BUILTIN_NAMES {
        let ckt = builtin_circuit(which).expect("builtin");
        let tel = Telemetry::enabled();
        let report = analyze::analyze_traced(&ckt, &analyze::AnalyzeOptions::default(), &tel);
        let _op = op::solve_traced(&ckt, &NewtonOptions::default(), None, &tel)
            .unwrap_or_else(|e| panic!("op({which}) failed: {e}"));
        let check = |after: &str| {
            let counters = tel.report().counters;
            assert!(counters.analyze_runs >= 1, "{which}: analyze_runs");
            let violations = analyze::check_counters_traced(&report, &counters, &tel);
            assert!(
                violations.is_empty(),
                "{which}: conditioning prediction contradicted after {after}: {}",
                violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        };
        check("op");
        // The prediction must also survive a transient forced onto the
        // sparse path, the only path that can fall back to dense.
        let mut cfg = TranConfig::new(50e-12, 1e-12);
        cfg.newton.sparse_threshold = 1;
        tran::run_traced(&ckt, &cfg, &tel).unwrap_or_else(|e| panic!("tran({which}) failed: {e}"));
        assert!(
            tel.report().counters.tran_steps > 0,
            "{which}: no tran steps"
        );
        check("a sparse transient");
    }
}

#[test]
fn midpoints_are_inside_bounds_and_finite() {
    for which in BUILTIN_NAMES {
        let ckt = builtin_circuit(which).expect("builtin");
        let report = analyze::analyze(&ckt);
        assert_eq!(report.node_bounds.len(), ckt.num_nodes() - 1);
        for nb in &report.node_bounds {
            let b = nb.interval();
            let m = b.midpoint();
            assert!(m.is_finite(), "{which}: node {} midpoint", nb.node);
            assert!(
                b.contains(m),
                "{which}: node {} midpoint {m} outside [{}, {}]",
                nb.node,
                b.lo,
                b.hi
            );
        }
    }
}
