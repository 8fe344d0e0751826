//! Flight-bundle forensics: inspect and replay-check the `CMLF`
//! bundles the solver's flight recorder dumps on failure
//! (`cml_spice::flight`, enabled by `CML_FLIGHT_DIR`).
//!
//! This lives in `cml-lint` rather than `cml-spice` because replay
//! needs the netlist *parser* (the simulator only prints netlists), and
//! the parser lives here. The `cml-lint forensics` subcommand is a thin
//! CLI over these functions; tests drive them directly.
//!
//! Two checks are offered:
//!
//! * **validate** — [`FlightBundle::read`] already verifies magic,
//!   version, length, checksum and the content fingerprint; a bundle
//!   that loads at all is structurally sound.
//! * **replay** — re-parse the embedded netlist, re-run the recorded
//!   analysis with the recorded
//!   [`NewtonOptions`](cml_spice::analysis::NewtonOptions), and compare the
//!   fresh residual trajectory against the recorded one **bit for
//!   bit**. A failing solve is deterministic, so anything short of an
//!   exact match means the bundle and the code have drifted apart
//!   (or the bundle lies about its options).

use crate::parse_netlist;
use cml_spice::analysis::op;
use cml_spice::flight::FlightBundle;
use cml_telemetry::Telemetry;
use serde::Value;

/// Outcome of replaying a bundle's recorded failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The analysis the bundle recorded.
    pub analysis: String,
    /// Whether this analysis kind can be replayed standalone. Only
    /// operating-point bundles are (`"op"`, plus the `"dc"` sweep-level
    /// duplicates that wrap a failing op rung); transient/AC replays
    /// would need the full sweep context the bundle doesn't carry.
    pub supported: bool,
    /// Whether the re-run failed again (a flight bundle records a
    /// failure, so a replay that *succeeds* is itself a finding).
    pub error_reproduced: bool,
    /// The re-run's error rendering, when it failed.
    pub replayed_error: Option<String>,
    /// Residual trajectory of the re-run's final Newton attempt.
    pub replayed_trajectory: Vec<f64>,
    /// Whether the re-run trajectory matches the recorded one
    /// bit-for-bit (vacuously `false` for unsupported analyses).
    pub trajectory_match: bool,
}

impl ReplayReport {
    /// Overall verdict: the replay either doesn't apply or fully
    /// reproduced the recorded failure.
    #[must_use]
    pub fn ok(&self) -> bool {
        !self.supported || (self.error_reproduced && self.trajectory_match)
    }

    /// JSON rendering for `--format json`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("analysis".into(), Value::Str(self.analysis.clone())),
            ("supported".into(), Value::Bool(self.supported)),
            (
                "error_reproduced".into(),
                Value::Bool(self.error_reproduced),
            ),
            (
                "replayed_error".into(),
                self.replayed_error.clone().map_or(Value::Null, Value::Str),
            ),
            (
                "replayed_iterations".into(),
                Value::Num(self.replayed_trajectory.len() as f64),
            ),
            (
                "trajectory_match".into(),
                Value::Bool(self.trajectory_match),
            ),
            ("ok".into(), Value::Bool(self.ok())),
        ])
    }
}

/// Re-runs the failure a bundle recorded and compares trajectories.
///
/// The replay runs with a private enabled [`Telemetry`] handle so the
/// fresh residual trajectory can be captured without touching the
/// caller's counters. If a flight directory is configured in this
/// process, the replayed failure dumps its *own* bundle like any other
/// failing solve — forensics on that second bundle converges (same
/// fingerprint), so this is surprising but harmless.
///
/// # Errors
///
/// A human-readable message when the embedded netlist does not parse —
/// which, for a bundle that passed fingerprint validation, means the
/// printer and parser have diverged.
pub fn replay_check(bundle: &FlightBundle) -> Result<ReplayReport, String> {
    let ckt = parse_netlist(&bundle.netlist)
        .map_err(|e| format!("embedded netlist line {}: {}", e.line, e.message))?;
    let supported = matches!(bundle.analysis.as_str(), "op" | "dc");
    if !supported {
        return Ok(ReplayReport {
            analysis: bundle.analysis.clone(),
            supported: false,
            error_reproduced: false,
            replayed_error: None,
            replayed_trajectory: Vec::new(),
            trajectory_match: false,
        });
    }
    let tel = Telemetry::enabled();
    let res = op::solve_traced(&ckt, &bundle.options, None, &tel);
    let replayed_trajectory = tel.residual_trajectory();
    let trajectory_match = bundle.trajectory_matches(&replayed_trajectory);
    Ok(ReplayReport {
        analysis: bundle.analysis.clone(),
        supported: true,
        error_reproduced: res.is_err(),
        replayed_error: res.err().map(|e| e.to_string()),
        replayed_trajectory,
        trajectory_match,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_spice::analysis::NewtonOptions;
    use cml_spice::flight::FLIGHT_VERSION;

    fn divider_bundle(analysis: &str, trajectory: Vec<f64>) -> FlightBundle {
        FlightBundle {
            version: FLIGHT_VERSION,
            content_hash: 1,
            topology_hash: 2,
            analysis: analysis.to_string(),
            error: None,
            netlist: "* divider\nV1 in 0 DC 1\nR1 in out 1000\nR2 out 0 1000\n.end\n".to_string(),
            options: NewtonOptions::default(),
            seed: None,
            trajectory,
            events: Vec::new(),
            events_dropped: 0,
            fingerprint: 0,
            report_json: "{}".to_string(),
        }
    }

    #[test]
    fn replay_of_healthy_op_bundle_solves_and_flags_mismatch() {
        // A bundle claiming a divider "failed" with some trajectory:
        // replay solves fine, so error_reproduced is false and the
        // made-up trajectory doesn't match.
        let report = replay_check(&divider_bundle("op", vec![9.0, 8.0])).unwrap();
        assert!(report.supported);
        assert!(!report.error_reproduced);
        assert!(!report.trajectory_match);
        assert!(!report.ok());
    }

    #[test]
    fn unsupported_analysis_is_vacuously_ok() {
        let report = replay_check(&divider_bundle("tran", Vec::new())).unwrap();
        assert!(!report.supported);
        assert!(report.ok());
    }

    #[test]
    fn bad_netlist_is_a_typed_message() {
        let mut b = divider_bundle("op", Vec::new());
        b.netlist = "Q1 what is this 1000\n".to_string();
        assert!(replay_check(&b).is_err());
    }
}
