//! Sequential reference interpreter.
//!
//! Defines the functional semantics of the skeleton language: both the
//! threaded engine and the simulator must produce results equal to
//! [`Skel::apply`](crate::Skel::apply) (they are property-tested against it). It is also the
//! "one thread" baseline used for the paper's sequential-WCT figure.

use std::sync::Arc;

use crate::ids::NodeId;
use crate::muscle::Data;
use crate::node::{Node, NodeKind};

/// Structural errors the interpreter can detect.
///
/// Type mismatches inside muscles panic (they are API-misuse bugs, not
/// recoverable conditions); arity errors, however, depend on runtime data
/// and are reported as values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A `fork` split produced a different number of sub-problems than the
    /// fork has branches.
    ForkArityMismatch {
        /// Node where the mismatch happened.
        node: NodeId,
        /// Number of branches in the AST.
        branches: usize,
        /// Number of sub-problems the split produced.
        produced: usize,
    },
    /// A `d&C` condition requested a split that produced no sub-problems,
    /// which would make the recursion vanish without a base case.
    EmptySplit {
        /// Node where the empty split happened.
        node: NodeId,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::ForkArityMismatch {
                node,
                branches,
                produced,
            } => write!(
                f,
                "fork {node}: split produced {produced} sub-problems for {branches} branches"
            ),
            EvalError::EmptySplit { node } => {
                write!(f, "d&C {node}: split produced no sub-problems")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `node` on `input`, sequentially, on the calling thread.
///
/// Muscles run in the exact dependency order a parallel engine would honour
/// (split → children in order → merge), so any side effects observe a
/// canonical ordering.
pub(crate) fn seq_eval(node: &Arc<Node>, input: Data) -> Result<Data, EvalError> {
    match &node.kind {
        NodeKind::Seq { fe } => Ok(fe.call(input)),
        NodeKind::Farm { inner } => seq_eval(inner, input),
        NodeKind::Pipe { stages } => {
            let mut v = input;
            for stage in stages {
                v = seq_eval(stage, v)?;
            }
            Ok(v)
        }
        NodeKind::While { fc, inner } => {
            let mut v = input;
            while fc.call(&v) {
                v = seq_eval(inner, v)?;
            }
            Ok(v)
        }
        NodeKind::If {
            fc,
            then_branch,
            else_branch,
        } => {
            if fc.call(&input) {
                seq_eval(then_branch, input)
            } else {
                seq_eval(else_branch, input)
            }
        }
        NodeKind::For { n, inner } => {
            let mut v = input;
            for _ in 0..*n {
                v = seq_eval(inner, v)?;
            }
            Ok(v)
        }
        NodeKind::Map { fs, inner, fm } => {
            let parts = fs.call(input);
            let mut results = Vec::with_capacity(parts.len());
            for p in parts {
                results.push(Some(seq_eval(inner, p)?));
            }
            Ok(fm.call_slots(results))
        }
        NodeKind::Fork { fs, inners, fm } => {
            let parts = fs.call(input);
            if parts.len() != inners.len() {
                return Err(EvalError::ForkArityMismatch {
                    node: node.id,
                    branches: inners.len(),
                    produced: parts.len(),
                });
            }
            let mut results = Vec::with_capacity(parts.len());
            for (p, branch) in parts.into_iter().zip(inners) {
                results.push(Some(seq_eval(branch, p)?));
            }
            Ok(fm.call_slots(results))
        }
        NodeKind::DivideConquer { fc, fs, inner, fm } => {
            if fc.call(&input) {
                let parts = fs.call(input);
                if parts.is_empty() {
                    return Err(EvalError::EmptySplit { node: node.id });
                }
                let mut results = Vec::with_capacity(parts.len());
                for p in parts {
                    results.push(Some(seq_eval(node, p)?));
                }
                Ok(fm.call_slots(results))
            } else {
                seq_eval(inner, input)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skel::{dac, fork, map, seq, Skel};

    #[test]
    fn fork_arity_mismatch_is_reported() {
        let f: Skel<i64, i64> = fork(
            |x: i64| vec![x, x, x],                 // three parts...
            vec![seq(|x: i64| x), seq(|x: i64| x)], // ...two branches
            |parts: Vec<i64>| parts[0],
        );
        let err = seq_eval(f.node(), Box::new(1i64)).unwrap_err();
        match err {
            EvalError::ForkArityMismatch {
                branches, produced, ..
            } => {
                assert_eq!(branches, 2);
                assert_eq!(produced, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_dac_split_is_reported() {
        let d: Skel<i64, i64> = dac(
            |_: &i64| true,
            |_: i64| Vec::<i64>::new(),
            seq(|x: i64| x),
            |parts: Vec<i64>| parts.into_iter().sum(),
        );
        let err = seq_eval(d.node(), Box::new(1i64)).unwrap_err();
        assert!(matches!(err, EvalError::EmptySplit { .. }));
    }

    #[test]
    fn nested_error_propagates_out_of_map() {
        let bad_fork: Skel<i64, i64> = fork(
            |x: i64| vec![x, x],
            vec![seq(|x: i64| x)],
            |parts: Vec<i64>| parts[0],
        );
        let m: Skel<Vec<i64>, i64> = map(
            |v: Vec<i64>| v,
            bad_fork,
            |parts: Vec<i64>| parts.into_iter().sum(),
        );
        assert!(seq_eval(m.node(), Box::new(vec![1i64])).is_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = EvalError::ForkArityMismatch {
            node: NodeId(3),
            branches: 2,
            produced: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains("fork"));
        assert!(msg.contains('5'));
        assert!(msg.contains('2'));
    }
}
