use cml_numeric::NumericError;
use std::error::Error;
use std::fmt;

/// Errors produced while building or simulating a circuit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// Newton iteration failed to converge within the iteration limit,
    /// even after gmin/source-stepping homotopies.
    NoConvergence {
        /// Which analysis failed (`"op"`, `"tran"`, …).
        analysis: &'static str,
        /// Iterations spent in the final attempt.
        iterations: usize,
        /// Worst residual seen in the final iteration.
        residual: f64,
    },
    /// The MNA matrix was singular — typically a floating node or a loop
    /// of voltage sources.
    Singular {
        /// Human-readable hint about the failing unknown, when known.
        detail: String,
    },
    /// A named element or node was not found.
    NotFound {
        /// What was looked up.
        what: &'static str,
        /// The name used.
        name: String,
    },
    /// An element parameter was out of its valid range.
    InvalidParameter {
        /// Element name.
        element: String,
        /// Explanation of the violation.
        message: String,
    },
    /// Analysis configuration was invalid (e.g. zero timestep).
    InvalidConfig {
        /// Explanation of the violation.
        message: String,
    },
    /// An underlying numeric kernel failed in a way not covered above.
    Numeric(NumericError),
    /// The pre-simulation lint precheck found error-level structural
    /// defects; the solve was not attempted.
    LintRejected {
        /// The error-level diagnostics, sorted as in
        /// [`crate::lint::LintReport`].
        diagnostics: Vec<crate::lint::Diagnostic>,
    },
    /// An internal invariant of the analysis engine was violated — a bug
    /// in the simulator, not in the user's circuit.
    Internal {
        /// Description of the broken invariant.
        message: String,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::NoConvergence {
                analysis,
                iterations,
                residual,
            } => write!(
                f,
                "{analysis} analysis failed to converge after {iterations} iterations \
                 (residual {residual:.3e})"
            ),
            SpiceError::Singular { detail } => {
                write!(f, "singular mna system: {detail}")
            }
            SpiceError::NotFound { what, name } => write!(f, "{what} '{name}' not found"),
            SpiceError::InvalidParameter { element, message } => {
                write!(f, "invalid parameter on '{element}': {message}")
            }
            SpiceError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            SpiceError::Numeric(e) => write!(f, "numeric error: {e}"),
            SpiceError::LintRejected { diagnostics } => {
                write!(
                    f,
                    "netlist rejected by pre-simulation lint ({} error(s))",
                    diagnostics.len()
                )?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            SpiceError::Internal { message } => {
                write!(f, "internal simulator error: {message}")
            }
        }
    }
}

impl Error for SpiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpiceError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericError> for SpiceError {
    fn from(e: NumericError) -> Self {
        match e {
            NumericError::SingularMatrix { column, pivot } => SpiceError::Singular {
                detail: format!("no pivot for unknown {column} (best {pivot:.1e})"),
            },
            other => SpiceError::Numeric(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SpiceError::NoConvergence {
            analysis: "op",
            iterations: 100,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("op"));
        let e = SpiceError::NotFound {
            what: "node",
            name: "vdd".into(),
        };
        assert_eq!(e.to_string(), "node 'vdd' not found");
    }

    #[test]
    fn singular_numeric_maps_to_singular() {
        let n = NumericError::SingularMatrix {
            column: 2,
            pivot: 0.0,
        };
        assert!(matches!(SpiceError::from(n), SpiceError::Singular { .. }));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpiceError>();
    }
}
