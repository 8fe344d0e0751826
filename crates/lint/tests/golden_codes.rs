//! Golden-code fixtures: one minimal circuit per diagnostic code, each
//! asserting that exactly that code fires — so a lint-pass change that
//! makes a code mis-fire (or leak a second code into a fixture) fails
//! loudly here, and the code table in DESIGN.md §9 stays honest.

use cml_lint::{lint, LintCode, Severity};
use cml_spice::prelude::*;

/// All distinct codes present in a full lint of `ckt`.
fn fired(ckt: &Circuit) -> Vec<LintCode> {
    let mut codes: Vec<LintCode> = lint(ckt).diagnostics.iter().map(|d| d.code).collect();
    codes.dedup();
    codes
}

/// Asserts the circuit fires `code` and nothing else.
fn assert_only(ckt: &Circuit, code: LintCode) {
    let report = lint(ckt);
    let codes = fired(ckt);
    assert_eq!(
        codes,
        vec![code],
        "expected only {code:?}, got:\n{}",
        report.render(Severity::Info)
    );
}

/// A grounded resistive divider driven by a 1 V source — the base
/// topology several fixtures extend.
fn divider() -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 1.0));
    ckt.add(Resistor::new("R1", vin, out, 1e3));
    ckt.add(Resistor::new("R2", out, Circuit::GROUND, 1e3));
    ckt
}

#[test]
fn clean_circuit_fires_nothing() {
    let report = lint(&divider());
    assert!(
        report.is_clean(),
        "divider should be clean:\n{}",
        report.render(Severity::Info)
    );
}

#[test]
fn l001_floating_node() {
    let mut ckt = divider();
    ckt.node("orphan");
    assert_only(&ckt, LintCode::FloatingNode);
    let report = lint(&ckt);
    assert_eq!(report.diagnostics[0].nodes, vec!["orphan".to_string()]);
}

#[test]
fn l002_no_dc_path() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let x = ckt.node("x");
    let y = ckt.node("y");
    ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 1.0));
    ckt.add(Resistor::new("RL", vin, Circuit::GROUND, 1e3));
    ckt.add(Capacitor::new("C1", vin, x, 1e-12)); // caps are open at DC
    ckt.add(Resistor::new("R1", x, y, 1e3));
    assert_only(&ckt, LintCode::NoDcPath);
    let report = lint(&ckt);
    assert!(report.diagnostics[0].nodes.contains(&"x".to_string()));
    assert!(report.diagnostics[0].nodes.contains(&"y".to_string()));
}

#[test]
fn l003_voltage_loop() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 1.0));
    ckt.add(Vsource::dc("V2", a, Circuit::GROUND, 1.0)); // parallel: KVL loop
    ckt.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
    assert_only(&ckt, LintCode::VoltageLoop);
    let report = lint(&ckt);
    assert_eq!(report.diagnostics[0].element.as_deref(), Some("V2"));
}

#[test]
fn l004_current_cutset() {
    let mut ckt = Circuit::new();
    let x = ckt.node("x");
    ckt.add(Isource::dc("I1", Circuit::GROUND, x, 1e-3));
    ckt.add(Isource::dc("I2", x, Circuit::GROUND, 1e-3));
    assert_only(&ckt, LintCode::CurrentCutset);
}

#[test]
fn l005_structurally_singular() {
    // The VCCS output node is graph-connected (the linter treats the
    // output pair generously as conductive) but its matrix COLUMN is
    // empty: no equation depends on v(out), which only the structural
    // rank pass can see.
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 1.0));
    ckt.add(Resistor::new("R1", vin, Circuit::GROUND, 1e3));
    ckt.add(Vccs::new(
        "G1",
        out,
        Circuit::GROUND,
        vin,
        Circuit::GROUND,
        1e-3,
    ));
    assert_only(&ckt, LintCode::StructuralSingular);
    let report = lint(&ckt);
    assert!(report.diagnostics[0].nodes.contains(&"out".to_string()));
}

#[test]
fn l006_duplicate_name() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 1.0));
    ckt.add(Resistor::new("R1", vin, Circuit::GROUND, 1e3));
    ckt.add(Resistor::new("R1", vin, Circuit::GROUND, 2e3));
    assert_only(&ckt, LintCode::DuplicateName);
}

#[test]
fn l007_mosfet_drain_source_shorted() {
    let mut ckt = Circuit::new();
    let g = ckt.node("g");
    let x = ckt.node("x");
    let pdk = cml_pdk::Pdk018::typical();
    ckt.add(Vsource::dc("VG", g, Circuit::GROUND, 1.0));
    ckt.add(Mosfet::new(
        "M1",
        x,
        g,
        x,
        Circuit::GROUND,
        pdk.nmos(2e-6, 0.18e-6),
    ));
    ckt.add(Resistor::new("R1", x, Circuit::GROUND, 1e3));
    assert_only(&ckt, LintCode::MosfetDegenerate);
}

#[test]
fn l008_dead_source() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 0.0));
    ckt.add(Resistor::new("R1", vin, Circuit::GROUND, 1e3));
    assert_only(&ckt, LintCode::DeadSource);
}

#[test]
fn l009_extreme_parameter() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 1.0));
    ckt.add(Resistor::new("R1", vin, Circuit::GROUND, 1e12)); // 1 TΩ
    assert_only(&ckt, LintCode::ExtremeParameter);
}

// L009 judges each value against its own unit: a 1 fF parasitic is
// normal, a 1 fΩ resistor, a 1 zF capacitor or a 1 aH inductor is not.

#[test]
fn l009_femtofarad_parasitic_is_clean() {
    let mut ckt = divider();
    let out = ckt.node("out");
    ckt.add(Capacitor::new("Cp", out, Circuit::GROUND, 1e-15)); // 1 fF
    assert!(
        lint(&ckt).is_clean(),
        "1 fF parasitic must not fire L009:\n{}",
        lint(&ckt).render(Severity::Info)
    );
}

#[test]
fn l009_femtoohm_resistor_fires() {
    let mut ckt = divider();
    let out = ckt.node("out");
    ckt.add(Resistor::new("Rt", out, Circuit::GROUND, 1e-15)); // 1 fΩ typo
    assert!(fired(&ckt).contains(&LintCode::ExtremeParameter));
}

#[test]
fn l009_zeptofarad_capacitor_fires() {
    let mut ckt = divider();
    let out = ckt.node("out");
    ckt.add(Capacitor::new("Cz", out, Circuit::GROUND, 1e-21));
    assert!(fired(&ckt).contains(&LintCode::ExtremeParameter));
}

#[test]
fn l009_attohenry_inductor_fires() {
    let mut ckt = divider();
    let out = ckt.node("out");
    ckt.add(Inductor::new("Lz", out, Circuit::GROUND, 1e-18));
    assert!(fired(&ckt).contains(&LintCode::ExtremeParameter));
}

#[test]
fn l010_unreferenced_bias() {
    // A tail current source feeding a transistor whose gate network has
    // no voltage source anywhere: every gate sits at 0 V and the tail
    // current has nowhere sensible to flow — the BMVR bias bug class.
    let mut ckt = Circuit::new();
    let d = ckt.node("d");
    let g = ckt.node("g");
    let tail = ckt.node("tail");
    let pdk = cml_pdk::Pdk018::typical();
    ckt.add(Mosfet::new(
        "M1",
        d,
        g,
        tail,
        Circuit::GROUND,
        pdk.nmos(2e-6, 0.18e-6),
    ));
    ckt.add(Resistor::new("RD", d, Circuit::GROUND, 1e3));
    ckt.add(Resistor::new("RG", g, Circuit::GROUND, 1e3));
    ckt.add(Resistor::new("RT", tail, Circuit::GROUND, 1e3));
    ckt.add(Isource::dc("IT", tail, Circuit::GROUND, 1e-3));
    assert_only(&ckt, LintCode::UnreferencedBias);
    let report = lint(&ckt);
    assert_eq!(report.diagnostics[0].element.as_deref(), Some("IT"));
}

#[test]
fn l011_dangling_stub() {
    let mut ckt = divider();
    let out = ckt.node("out");
    let stub = ckt.node("stub");
    ckt.add(Resistor::new("R3", out, stub, 1e3));
    assert_only(&ckt, LintCode::DanglingStub);
    let report = lint(&ckt);
    assert_eq!(report.diagnostics[0].nodes, vec!["stub".to_string()]);
}

#[test]
fn l012_self_loop() {
    let mut ckt = divider();
    let out = ckt.node("out");
    ckt.add(Resistor::new("RX", out, out, 1e3));
    assert_only(&ckt, LintCode::SelfLoop);
}

#[test]
fn builtin_blocks_lint_clean_at_error_level() {
    for which in cml_lint::BUILTIN_NAMES {
        let ckt = cml_lint::builtin_circuit(which).unwrap_or_else(|| panic!("builtin {which}"));
        let report = lint(&ckt);
        assert!(
            !report.has_errors(),
            "generated block '{which}' fails error-level lint:\n{}",
            report.render(Severity::Error)
        );
    }
}

#[test]
fn every_documented_code_has_a_fixture() {
    // The 12 fixtures above cover LintCode::ALL exactly; this test keeps
    // the claim in sync if a code is ever added.
    assert_eq!(LintCode::ALL.len(), 12);
}

#[test]
fn op_on_floating_node_returns_lint_rejected_with_node_name() {
    let mut ckt = divider();
    ckt.node("nowhere");
    let err = cml_spice::analysis::op::solve(&ckt).expect_err("must be rejected");
    match err {
        cml_spice::SpiceError::LintRejected { diagnostics } => {
            assert!(diagnostics
                .iter()
                .any(|d| d.code == LintCode::FloatingNode
                    && d.nodes.contains(&"nowhere".to_string())));
        }
        other => panic!("expected LintRejected, got {other:?}"),
    }
}

#[test]
fn tran_and_ac_also_precheck() {
    let mut ckt = divider();
    ckt.node("nowhere");
    let cfg = tran::TranConfig::new(1e-9, 1e-12);
    assert!(matches!(
        tran::run(&ckt, &cfg),
        Err(cml_spice::SpiceError::LintRejected { .. })
    ));
    assert!(matches!(
        ac::sweep(&ckt, &[0.0; 4], &[1e9]),
        Err(cml_spice::SpiceError::LintRejected { .. })
    ));
}

#[test]
fn error_display_carries_diagnostics() {
    let mut ckt = divider();
    ckt.node("nowhere");
    let err = cml_spice::analysis::op::solve(&ckt).expect_err("must be rejected");
    let text = err.to_string();
    assert!(text.contains("L001"), "{text}");
    assert!(text.contains("nowhere"), "{text}");
    // The precheck has no bypass, so the message must not offer one.
    assert!(!text.contains("CML_LINT"), "{text}");
}
