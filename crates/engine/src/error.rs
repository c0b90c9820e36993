//! Engine-level failure values.

use askel_skeletons::EvalError;

/// Why a submission failed.
///
/// The engine never unwinds across the pool: muscle panics are caught at
/// the task boundary, converted into `MusclePanic`, and delivered through
/// the submission's future.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A structural error detected while interpreting the AST (same
    /// vocabulary as the sequential reference interpreter).
    Eval(EvalError),
    /// A muscle panicked; the payload is the panic message when it was a
    /// string, or a placeholder otherwise.
    MusclePanic(String),
    /// The engine detected an internal inconsistency (e.g. a fan-out
    /// child completing its join twice after a racing failure). The
    /// submission is poisoned and reports this instead of panicking the
    /// worker thread that noticed.
    Internal(&'static str),
    /// The engine shut down before the submission finished.
    Shutdown,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Eval(e) => write!(f, "structural error: {e}"),
            EngineError::MusclePanic(msg) => write!(f, "muscle panicked: {msg}"),
            EngineError::Internal(msg) => write!(f, "engine internal error: {msg}"),
            EngineError::Shutdown => write!(f, "engine shut down"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::NodeId;

    #[test]
    fn display_forms() {
        let e = EngineError::Eval(EvalError::EmptySplit { node: NodeId(1) });
        assert!(e.to_string().contains("structural error"));
        let e = EngineError::MusclePanic("boom".into());
        assert!(e.to_string().contains("boom"));
        assert!(EngineError::Shutdown.to_string().contains("shut down"));
    }
}
