//! Property test for the analyzer's central soundness claim: on any
//! randomly generated circuit whose error-level lint is clean and whose
//! operating point converges, the interval bounds from the abstract
//! interpretation contain the converged node voltages — for every node,
//! every time. A single containment violation would mean the interval
//! transfer functions are unsound, not just imprecise.

use cml_lint::{lint, Severity};
use cml_spice::analysis::op;
use cml_spice::analyze;
use cml_spice::prelude::*;
use proptest::prelude::*;

const NODE_POOL: [&str; 5] = ["n0", "n1", "n2", "n3", "n4"];

/// Builds a random circuit from a seed: elements drawn from
/// {R, C, V, I, D} with random terminals over a small node pool (ground
/// included), unique names, sane values. Diodes join the pool here —
/// unlike the lint proptest — because the analyzer has a nonlinear
/// junction transfer function worth stressing.
fn random_circuit(seed: u64, n_elems: usize) -> Circuit {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as u32
    };
    let mut ckt = Circuit::new();
    let nodes: Vec<NodeId> = NODE_POOL.iter().map(|n| ckt.node(n)).collect();
    let pick_node = |r: u32| -> NodeId {
        let i = (r as usize) % (nodes.len() + 1);
        if i == nodes.len() {
            Circuit::GROUND
        } else {
            nodes[i]
        }
    };
    for k in 0..n_elems {
        let a = pick_node(next());
        let b = pick_node(next());
        match next() % 5 {
            0 => ckt.add(Resistor::new(
                &format!("R{k}"),
                a,
                b,
                10.0 + f64::from(next() % 100_000),
            )),
            1 => ckt.add(Capacitor::new(&format!("C{k}"), a, b, 1e-12)),
            2 => ckt.add(Vsource::dc(
                &format!("V{k}"),
                a,
                b,
                f64::from(next() % 300) / 100.0,
            )),
            3 => ckt.add(Isource::dc(
                &format!("I{k}"),
                a,
                b,
                f64::from(next() % 1000) * 1e-5,
            )),
            _ => ckt.add(Diode::new(&format!("D{k}"), a, b, DiodeParams::default())),
        }
    }
    ckt
}

proptest! {
    /// Interval op bounds contain the converged op on every lint-clean,
    /// solvable random circuit, and the closed-loop check agrees.
    #[test]
    fn interval_bounds_contain_converged_op(
        seed in any::<u64>(),
        n_elems in 1usize..12,
    ) {
        let ckt = random_circuit(seed, n_elems);
        if lint(&ckt).has_errors() {
            return Ok(()); // linter rejects it before any analysis would run
        }
        let Ok(op) = op::solve(&ckt) else {
            return Ok(()); // analyzer only promises containment of a converged op
        };
        let report = analyze::analyze(&ckt);
        let violations = analyze::check_op(&ckt, &report, &op);
        prop_assert!(
            violations.is_empty(),
            "containment violated on seed {seed} ({n_elems} elems):\n{}\nreport:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n"),
            report.render(Severity::Info)
        );
        // Spot-check the raw bounds too: check_op and the report's
        // node boxes must agree.
        for (i, nb) in report.node_bounds.iter().enumerate() {
            let node = NodeId::from_raw(u32::try_from(i + 1).expect("node id"));
            let v = op.voltage(node);
            prop_assert!(
                nb.interval().contains(v),
                "node {} = {v} outside [{}, {}] (seed {seed})",
                ckt.node_name(node),
                nb.lo,
                nb.hi
            );
        }
    }
}
