//! The typed public face of the skeleton language.
//!
//! [`Skel<P, R>`] is a cheaply-cloneable handle to a runtime AST
//! ([`Node`]) plus phantom input/output types. The constructor functions
//! mirror the paper's grammar and enforce that muscles and nested skeletons
//! agree on types *at compile time*; all type information is then erased so
//! heterogeneous skeletons can nest freely inside one tree.
//!
//! ```
//! use askel_skeletons::{map, seq, Skel};
//!
//! // map(fs, map(fs, seq(fe), fm), fm) — the paper's running example,
//! // counting words in a corpus of lines.
//! let inner: Skel<Vec<String>, usize> = map(
//!     |chunk: Vec<String>| chunk.into_iter().map(|l| vec![l]).collect::<Vec<_>>(),
//!     seq(|lines: Vec<String>| lines[0].split_whitespace().count()),
//!     |counts: Vec<usize>| counts.into_iter().sum::<usize>(),
//! );
//! let program: Skel<Vec<String>, usize> = map(
//!     |corpus: Vec<String>| corpus.chunks(2).map(|c| c.to_vec()).collect::<Vec<_>>(),
//!     inner,
//!     |counts: Vec<usize>| counts.into_iter().sum::<usize>(),
//! );
//! let text = vec!["a b".to_string(), "c".to_string(), "d e f".to_string()];
//! assert_eq!(program.apply(text), 6);
//! ```

use std::marker::PhantomData;
use std::sync::Arc;

use crate::ids::NodeId;
use crate::muscle::{CondFn, Condition, Execute, ExecuteFn, Merge, MergeFn, Split, SplitFn};
use crate::node::{Node, NodeKind};
use crate::seq_eval::seq_eval;

/// A typed handle to a skeleton program taking `P` and producing `R`.
///
/// Cloning is cheap (an `Arc` bump) and clones share identity — and thus
/// estimator history in the autonomic layer, exactly like shared skeleton
/// objects do in Skandium.
pub struct Skel<P, R> {
    node: Arc<Node>,
    _types: PhantomData<fn(P) -> R>,
}

impl<P, R> Clone for Skel<P, R> {
    fn clone(&self) -> Self {
        Skel {
            node: Arc::clone(&self.node),
            _types: PhantomData,
        }
    }
}

impl<P, R> std::fmt::Debug for Skel<P, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Skel<{}>({}: {})",
            std::any::type_name::<fn(P) -> R>(),
            self.node.id,
            crate::display::structure(&self.node)
        )
    }
}

impl<P, R> Skel<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// Wraps an already-erased node.
    ///
    /// The caller asserts that the node really computes `P → R`; prefer the
    /// typed constructors, which cannot get this wrong.
    pub(crate) fn from_node(node: Arc<Node>) -> Self {
        Skel {
            node,
            _types: PhantomData,
        }
    }

    /// The underlying runtime AST (shared).
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// Consumes the handle, returning the runtime AST.
    pub(crate) fn into_node(self) -> Arc<Node> {
        self.node
    }

    /// The root node's stable identity.
    pub fn id(&self) -> NodeId {
        self.node.id
    }

    /// The program's structural fingerprint (see
    /// [`Node::structure_key`]): equal for independently constructed
    /// trees of the same shape, different across shapes. The serving
    /// layer keys shared estimator history on this, so one tenant's
    /// observations can warm another tenant's forecasts when — and only
    /// when — they run structurally identical programs.
    pub fn structure_key(&self) -> u64 {
        self.node.structure_key()
    }

    /// Returns the same skeleton with a human-readable label on its root
    /// node (labels show up in event traces and logs).
    ///
    /// Note this re-wraps the root node (fresh `NodeId`) so the labelled
    /// skeleton has its own estimator history.
    pub fn labeled(self, label: impl Into<String>) -> Self {
        let label: Arc<str> = Arc::from(label.into().into_boxed_str());
        let node = Arc::new(Node {
            id: NodeId::fresh(),
            label: Some(label),
            placement: self.node.placement.clone(),
            kind: self.node.kind.clone(),
        });
        Skel {
            node,
            _types: PhantomData,
        }
    }

    /// Runs the skeleton *sequentially* on the calling thread using the
    /// reference interpreter. Handy for tests and for establishing the
    /// sequential baseline (`WCT` with one thread, the paper's 12.5 s
    /// figure).
    ///
    /// # Panics
    /// Propagates muscle panics and panics on structural errors (e.g. a
    /// `fork` split of the wrong arity, an [`EvalError`](crate::EvalError)).
    pub fn apply(&self, input: P) -> R {
        let out = seq_eval(&self.node, Box::new(input)).unwrap_or_else(|e| panic!("{e}"));
        *out.downcast::<R>()
            .expect("reference interpreter returned the wrong type")
    }
}

/// `seq(fe)` — wraps the sequential business logic `fe: P → R`.
pub fn seq<P, R>(fe: impl Execute<P, R>) -> Skel<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    Skel::from_node(Node::new(NodeKind::Seq {
        fe: ExecuteFn::new(fe),
    }))
}

/// `farm(∆)` — task replication: semantically the identity on a single
/// input, it marks the nested skeleton as replicable so concurrent inputs
/// may be processed in parallel.
pub fn farm<P, R>(inner: Skel<P, R>) -> Skel<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    Skel::from_node(Node::new(NodeKind::Farm {
        inner: inner.into_node(),
    }))
}

/// `pipe(∆1, ∆2)` — staged computation: the output of stage 1 feeds
/// stage 2. Stages of *different* inputs overlap when several inputs are
/// in flight.
pub fn pipe<P, Q, R>(first: Skel<P, Q>, second: Skel<Q, R>) -> Skel<P, R>
where
    P: Send + 'static,
    Q: Send + 'static,
    R: Send + 'static,
{
    Skel::from_node(Node::new(NodeKind::Pipe {
        stages: vec![first.into_node(), second.into_node()],
    }))
}

/// `while(fc, ∆)` — runs `∆ : P → P` as long as `fc` holds.
pub fn swhile<P>(fc: impl Condition<P>, inner: Skel<P, P>) -> Skel<P, P>
where
    P: Send + 'static,
{
    Skel::from_node(Node::new(NodeKind::While {
        fc: CondFn::new(fc),
        inner: inner.into_node(),
    }))
}

/// `if(fc, ∆true, ∆false)` — conditional branching.
pub fn sif<P, R>(
    fc: impl Condition<P>,
    then_branch: Skel<P, R>,
    else_branch: Skel<P, R>,
) -> Skel<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    Skel::from_node(Node::new(NodeKind::If {
        fc: CondFn::new(fc),
        then_branch: then_branch.into_node(),
        else_branch: else_branch.into_node(),
    }))
}

/// `for(n, ∆)` — runs `∆ : P → P` exactly `n` times.
pub fn sfor<P>(n: usize, inner: Skel<P, P>) -> Skel<P, P>
where
    P: Send + 'static,
{
    Skel::from_node(Node::new(NodeKind::For {
        n,
        inner: inner.into_node(),
    }))
}

/// `map(fs, ∆, fm)` — splits the problem, applies `∆` to every
/// sub-problem (in parallel under a parallel engine), merges the results.
pub fn map<P, Q, S, R>(fs: impl Split<P, Q>, inner: Skel<Q, S>, fm: impl Merge<S, R>) -> Skel<P, R>
where
    P: Send + 'static,
    Q: Send + 'static,
    S: Send + 'static,
    R: Send + 'static,
{
    Skel::from_node(Node::new(NodeKind::Map {
        fs: SplitFn::new(fs),
        inner: inner.into_node(),
        fm: MergeFn::new(fm),
    }))
}

/// `fork(fs, {∆1, …, ∆k}, fm)` — like `map` but applies *different*
/// skeletons to the sub-problems. The split must produce exactly `k`
/// sub-problems at runtime; engines report a structural error otherwise.
pub fn fork<P, Q, S, R>(
    fs: impl Split<P, Q>,
    inners: Vec<Skel<Q, S>>,
    fm: impl Merge<S, R>,
) -> Skel<P, R>
where
    P: Send + 'static,
    Q: Send + 'static,
    S: Send + 'static,
    R: Send + 'static,
{
    assert!(!inners.is_empty(), "fork requires at least one branch");
    Skel::from_node(Node::new(NodeKind::Fork {
        fs: SplitFn::new(fs),
        inners: inners.into_iter().map(Skel::into_node).collect(),
        fm: MergeFn::new(fm),
    }))
}

/// `d&C(fc, fs, ∆, fm)` — divide and conquer: while `fc` holds the problem
/// is split by `fs` and each part recurses; otherwise the base skeleton `∆`
/// solves it. Sub-results are merged bottom-up by `fm`.
pub fn dac<P, R>(
    fc: impl Condition<P>,
    fs: impl Split<P, P>,
    inner: Skel<P, R>,
    fm: impl Merge<R, R>,
) -> Skel<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    Skel::from_node(Node::new(NodeKind::DivideConquer {
        fc: CondFn::new(fc),
        fs: SplitFn::new(fs),
        inner: inner.into_node(),
        fm: MergeFn::new(fm),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_applies_muscle() {
        let s = seq(|x: i64| x + 1);
        assert_eq!(s.apply(41), 42);
    }

    #[test]
    fn clones_share_identity() {
        let s = seq(|x: i64| x + 1);
        let t = s.clone();
        assert_eq!(s.id(), t.id());
    }

    #[test]
    fn labeled_mints_fresh_identity() {
        let s = seq(|x: i64| x + 1);
        let t = s.clone().labeled("inc");
        assert_ne!(s.id(), t.id());
        assert_eq!(t.node().label.as_deref(), Some("inc"));
        assert_eq!(t.apply(1), 2);
    }

    #[test]
    fn pipe_composes() {
        let p = pipe(seq(|x: i64| x + 1), seq(|x: i64| x * 2));
        assert_eq!(p.apply(20), 42);
    }

    #[test]
    fn map_splits_and_merges() {
        let m = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0] * 10),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        assert_eq!(m.apply(vec![1, 2, 3]), 60);
    }

    #[test]
    fn swhile_iterates_until_false() {
        let w = swhile(|x: &i64| *x < 10, seq(|x: i64| x + 3));
        assert_eq!(w.apply(0), 12);
        assert_eq!(w.apply(100), 100); // zero iterations
    }

    #[test]
    fn sfor_iterates_exactly_n_times() {
        let f = sfor(5, seq(|x: i64| x * 2));
        assert_eq!(f.apply(1), 32);
        let z = sfor(0, seq(|x: i64| x * 2));
        assert_eq!(z.apply(7), 7);
    }

    #[test]
    fn sif_takes_both_branches() {
        let i = sif(|x: &i64| *x >= 0, seq(|x: i64| x), seq(|x: i64| -x));
        assert_eq!(i.apply(5), 5);
        assert_eq!(i.apply(-5), 5);
    }

    #[test]
    fn fork_routes_parts_to_distinct_branches() {
        let f = fork(
            |p: (i64, i64)| vec![p.0, p.1],
            vec![seq(|x: i64| x + 1), seq(|x: i64| x * 10)],
            |parts: Vec<i64>| (parts[0], parts[1]),
        );
        assert_eq!(f.apply((1, 2)), (2, 20));
    }

    #[test]
    fn dac_mergesorts() {
        let sort = dac(
            |v: &Vec<i64>| v.len() > 2,
            |v: Vec<i64>| {
                let mid = v.len() / 2;
                let (a, b) = v.split_at(mid);
                vec![a.to_vec(), b.to_vec()]
            },
            seq(|mut v: Vec<i64>| {
                v.sort_unstable();
                v
            }),
            |parts: Vec<Vec<i64>>| {
                let mut it = parts.into_iter();
                let mut acc = it.next().unwrap_or_default();
                for part in it {
                    let mut merged = Vec::with_capacity(acc.len() + part.len());
                    let (mut i, mut j) = (0, 0);
                    while i < acc.len() && j < part.len() {
                        if acc[i] <= part[j] {
                            merged.push(acc[i]);
                            i += 1;
                        } else {
                            merged.push(part[j]);
                            j += 1;
                        }
                    }
                    merged.extend_from_slice(&acc[i..]);
                    merged.extend_from_slice(&part[j..]);
                    acc = merged;
                }
                acc
            },
        );
        assert_eq!(sort.apply(vec![5, 3, 8, 1, 9, 2]), vec![1, 2, 3, 5, 8, 9]);
        assert_eq!(sort.apply(vec![]), Vec::<i64>::new());
    }

    #[test]
    fn farm_is_identity_on_one_input() {
        let f = farm(seq(|x: i64| x * 3));
        assert_eq!(f.apply(14), 42);
    }

    #[test]
    fn heterogeneous_nesting_type_checks() {
        // String → words → per-word lengths → total, through three types.
        let inner: Skel<String, usize> = seq(|w: String| w.len());
        let m: Skel<String, usize> = map(
            |s: String| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>(),
            inner,
            |lens: Vec<usize>| lens.into_iter().sum(),
        );
        assert_eq!(m.apply("ab cde f".to_string()), 6);
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn empty_fork_is_rejected() {
        let _ = fork(
            |x: i64| vec![x],
            Vec::<Skel<i64, i64>>::new(),
            |parts: Vec<i64>| parts[0],
        );
    }
}
