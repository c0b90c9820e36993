//! Test-only oracles: the ADG builder and the two scheduling strategies
//! exactly as they stood before the analysis path was made incremental —
//! a from-scratch recursive walk that allocates one `Vec<usize>` of
//! predecessors per activity, and a limited-LP layout that scans its
//! ready list linearly for every start. The differential suites demand
//! that the shipping builder and scheduler reproduce these outputs
//! activity for activity and span for span.
//!
//! Kept verbatim apart from imports (and [`ActState`], which is the
//! crate's own enum): the dead parameters and the vacuous assertion are
//! part of the record.

#![allow(dead_code)]

use std::sync::Arc;

use askel_skeletons::{KindTag, MuscleId, MuscleRole, Node, NodeKind, TimeNs};

use askel_core::{ActState, EstimatorTable, InstanceRecord, SmTracker};

/// One node of the ADG: a (possibly predicted) muscle execution.
#[derive(Clone, Debug)]
pub struct Activity {
    /// The muscle this activity executes.
    pub muscle: MuscleId,
    /// Execution state.
    pub state: ActState,
    /// Estimated duration `t(m)` (for `Done`, the actual duration).
    pub est: TimeNs,
    /// Indices of activities that must finish before this one starts.
    /// Builder invariant: every predecessor index is smaller than the
    /// activity's own index, so index order is a topological order.
    pub preds: Vec<usize>,
}

/// The Activity Dependency Graph.
#[derive(Clone, Debug, Default)]
pub struct Adg {
    /// Activities in topological (insertion) order.
    pub activities: Vec<Activity>,
}

impl Adg {
    /// Number of activities.
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// `true` if the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }

    /// Count of activities in each state: `(done, running, pending)`.
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for a in &self.activities {
            match a.state {
                ActState::Done { .. } => c.0 += 1,
                ActState::Running { .. } => c.1 += 1,
                ActState::Pending => c.2 += 1,
            }
        }
        c
    }

    fn push(&mut self, a: Activity) -> usize {
        debug_assert!(
            a.preds.iter().all(|&p| p < self.activities.len()),
            "ADG builder broke the topological invariant"
        );
        self.activities.push(a);
        self.activities.len() - 1
    }
}

/// Builds ADGs from tracker state + estimator table + AST.
pub struct AdgBuilder<'a> {
    tracker: &'a SmTracker,
    est: &'a EstimatorTable,
    adg: Adg,
}

impl<'a> AdgBuilder<'a> {
    /// A builder over the tracker's live state and its estimator table.
    pub fn new(tracker: &'a SmTracker) -> Self {
        AdgBuilder {
            tracker,
            est: tracker.estimates(),
            adg: Adg::default(),
        }
    }

    /// Builds the ADG of the tracker's current root submission executing
    /// `ast`. Returns an empty graph when no submission is live.
    ///
    /// Estimates must cover every muscle of `ast`
    /// ([`EstimatorTable::covers`]); missing estimates fall back to zero
    /// duration / cardinality 1, which the controller's analysis gate
    /// prevents from ever being used for decisions.
    pub fn build(mut self, ast: &Arc<Node>) -> Adg {
        if let Some(root) = self.tracker.current_root() {
            if root.node == ast.id {
                self.instance_exits(root, ast, Vec::new());
                return self.adg;
            }
        }
        self.adg
    }

    /// Builds a purely predictive ADG (no execution started yet): the
    /// graph a cold analysis would use if estimates were initialized.
    pub fn build_predictive(mut self, ast: &Arc<Node>) -> Adg {
        self.node_exits(ast, Vec::new(), None);
        self.adg
    }

    // ---- estimates ---------------------------------------------------

    fn dur(&self, node: &Node, role: MuscleRole) -> TimeNs {
        self.est
            .duration(MuscleId::new(node.id, role))
            .unwrap_or(TimeNs::ZERO)
    }

    fn card(&self, node: &Node, role: MuscleRole, min: usize) -> usize {
        self.est
            .cardinality_rounded(MuscleId::new(node.id, role), min)
            .unwrap_or(min.max(1))
    }

    /// Estimated depth of a `d&C` recursion (≥ 1).
    fn dc_depth(&self, node: &Node) -> usize {
        self.card(node, MuscleRole::Condition, 1)
    }

    // ---- activity helpers ---------------------------------------------

    fn push_span(
        &mut self,
        node: &Node,
        role: MuscleRole,
        span: Option<askel_core::Span>,
        fallback_start: TimeNs,
        preds: Vec<usize>,
    ) -> usize {
        let muscle = MuscleId::new(node.id, role);
        let est = self.dur(node, role);
        let (state, est) = match span {
            Some(s) => match s.finished {
                Some(end) => (
                    ActState::Done {
                        start: s.started,
                        end,
                    },
                    end.saturating_sub(s.started),
                ),
                None => (ActState::Running { start: s.started }, est),
            },
            None => {
                let _ = fallback_start;
                (ActState::Pending, est)
            }
        };
        self.adg.push(Activity {
            muscle,
            state,
            est,
            preds,
        })
    }

    fn push_pending(&mut self, node: &Node, role: MuscleRole, preds: Vec<usize>) -> usize {
        let muscle = MuscleId::new(node.id, role);
        let est = self.dur(node, role);
        self.adg.push(Activity {
            muscle,
            state: ActState::Pending,
            est,
            preds,
        })
    }

    // ---- actual (record-driven) expansion ------------------------------

    /// Appends the activities of a live instance; returns the exit set.
    fn instance_exits(
        &mut self,
        rec: &InstanceRecord,
        node: &Arc<Node>,
        preds: Vec<usize>,
    ) -> Vec<usize> {
        debug_assert_eq!(rec.node, node.id, "record/AST mismatch");
        match (&node.kind, rec.kind) {
            (NodeKind::Seq { .. }, KindTag::Seq) => {
                let span = Some(askel_core::Span {
                    started: rec.started,
                    finished: rec.finished,
                });
                vec![self.push_span(node, MuscleRole::Execute, span, rec.started, preds)]
            }
            (NodeKind::Farm { inner }, KindTag::Farm) => {
                self.chain_children(rec, std::slice::from_ref(inner), preds, 1)
            }
            (NodeKind::Pipe { stages }, KindTag::Pipe) => {
                self.chain_children(rec, stages, preds, stages.len())
            }
            (NodeKind::For { n, inner }, KindTag::For) => {
                self.chain_children(rec, std::slice::from_ref(inner), preds, *n)
            }
            (NodeKind::While { inner, .. }, KindTag::While) => {
                self.while_exits(rec, node, inner, preds)
            }
            (
                NodeKind::If {
                    then_branch,
                    else_branch,
                    ..
                },
                KindTag::If,
            ) => self.if_exits(rec, node, then_branch, else_branch, preds),
            (NodeKind::Map { inner, .. }, KindTag::Map) => {
                self.fan_exits(rec, node, FanChildren::Uniform(inner), preds)
            }
            (NodeKind::Fork { inners, .. }, KindTag::Fork) => {
                self.fan_exits(rec, node, FanChildren::PerBranch(inners), preds)
            }
            (NodeKind::DivideConquer { .. }, KindTag::DivideConquer) => {
                self.dac_exits(rec, node, preds)
            }
            _ => {
                debug_assert!(false, "record kind does not match AST node kind");
                preds
            }
        }
    }

    /// farm/pipe/for: children run sequentially; no own muscles.
    fn chain_children(
        &mut self,
        rec: &InstanceRecord,
        stages: &[Arc<Node>],
        preds: Vec<usize>,
        total: usize,
    ) -> Vec<usize> {
        let mut preds = preds;
        for k in 0..total {
            // Pipe stages differ per k; farm/for repeat one inner.
            let stage = if stages.len() == total {
                &stages[k]
            } else {
                &stages[0]
            };
            preds = match rec.children.get(k) {
                Some(cid) => match self.tracker.instance(*cid) {
                    Some(child) => self.instance_exits(child, stage, preds),
                    None => self.node_exits(stage, preds, None),
                },
                None => self.node_exits(stage, preds, None),
            };
        }
        preds
    }

    fn while_exits(
        &mut self,
        rec: &InstanceRecord,
        node: &Arc<Node>,
        inner: &Arc<Node>,
        preds: Vec<usize>,
    ) -> Vec<usize> {
        let mut preds = preds;
        // Actual history: cond_0, body_0, cond_1, body_1, …
        let mut bodies = 0usize;
        for (k, cond) in rec.conds.iter().enumerate() {
            let idx = self.push_span(
                node,
                MuscleRole::Condition,
                Some(cond.span),
                rec.started,
                preds.clone(),
            );
            preds = vec![idx];
            match cond.verdict {
                Some(true) => {
                    // The k-th body follows this cond.
                    preds = match rec.children.get(k) {
                        Some(cid) => match self.tracker.instance(*cid) {
                            Some(child) => self.instance_exits(child, inner, preds),
                            None => self.node_exits(inner, preds, None),
                        },
                        None => self.node_exits(inner, preds, None),
                    };
                    bodies += 1;
                }
                Some(false) => return preds, // loop exited
                None => return preds,        // cond still running: unknown rest
            }
        }
        if rec.is_finished() {
            return preds;
        }
        // Predict the remaining iterations.
        let est_trues = self
            .est
            .cardinality(MuscleId::new(node.id, MuscleRole::Condition))
            .map(|v| v.round().max(0.0) as usize)
            .unwrap_or(0);
        let remaining = est_trues.saturating_sub(bodies);
        for _ in 0..remaining {
            let idx = self.push_pending(node, MuscleRole::Condition, preds);
            preds = self.node_exits(inner, vec![idx], None);
        }
        // The final (false) evaluation.
        vec![self.push_pending(node, MuscleRole::Condition, preds)]
    }

    fn if_exits(
        &mut self,
        rec: &InstanceRecord,
        node: &Arc<Node>,
        then_branch: &Arc<Node>,
        else_branch: &Arc<Node>,
        preds: Vec<usize>,
    ) -> Vec<usize> {
        let cond = rec.conds.first();
        let idx = self.push_span(
            node,
            MuscleRole::Condition,
            cond.map(|c| c.span),
            rec.started,
            preds,
        );
        let preds = vec![idx];
        match cond.and_then(|c| c.verdict) {
            Some(verdict) => {
                let branch = if verdict { then_branch } else { else_branch };
                match rec.children.first().and_then(|c| self.tracker.instance(*c)) {
                    Some(child) => self.instance_exits(child, branch, preds),
                    None => self.node_exits(branch, preds, None),
                }
            }
            None => {
                // Verdict unknown: predict the more expensive branch.
                let branch = self.pick_heavier_branch(then_branch, else_branch);
                self.node_exits(branch, preds, None)
            }
        }
    }

    fn fan_exits(
        &mut self,
        rec: &InstanceRecord,
        node: &Arc<Node>,
        children: FanChildren<'_>,
        preds: Vec<usize>,
    ) -> Vec<usize> {
        let split_idx = self.push_span(node, MuscleRole::Split, rec.split, rec.started, preds);
        let expected = match rec.split_card {
            Some(card) => card,
            None => match children {
                FanChildren::Uniform(_) => self.card(node, MuscleRole::Split, 1),
                FanChildren::PerBranch(inners) => inners.len(),
            },
        };
        // Children may *arrive* in any order (the LIFO runtime starts the
        // last-pushed child first), so records are matched to branch ASTs
        // by node identity, consuming each record once.
        let mut used = vec![false; rec.children.len()];
        let mut child_exits = Vec::new();
        for k in 0..expected {
            let child_ast = match children {
                FanChildren::Uniform(inner) => inner,
                FanChildren::PerBranch(inners) => &inners[k.min(inners.len() - 1)],
            };
            let record = rec
                .children
                .iter()
                .enumerate()
                .filter(|(i, _)| !used[*i])
                .filter_map(|(i, cid)| self.tracker.instance(*cid).map(|r| (i, r)))
                .find(|(_, r)| r.node == child_ast.id);
            let exits = match record {
                Some((i, child)) => {
                    used[i] = true;
                    let child = child.clone();
                    self.instance_exits(&child, child_ast, vec![split_idx])
                }
                None => self.node_exits(child_ast, vec![split_idx], None),
            };
            child_exits.extend(exits);
        }
        if child_exits.is_empty() {
            child_exits.push(split_idx);
        }
        let merge_idx =
            self.push_span(node, MuscleRole::Merge, rec.merge, rec.started, child_exits);
        vec![merge_idx]
    }

    fn dac_exits(
        &mut self,
        rec: &InstanceRecord,
        node: &Arc<Node>,
        preds: Vec<usize>,
    ) -> Vec<usize> {
        let (inner,) = match &node.kind {
            NodeKind::DivideConquer { inner, .. } => (inner,),
            _ => unreachable!("dac_exits on a non-d&C node"),
        };
        let cond = rec.conds.first();
        let cond_idx = self.push_span(
            node,
            MuscleRole::Condition,
            cond.map(|c| c.span),
            rec.started,
            preds,
        );
        let preds = vec![cond_idx];
        let est_depth = self.dc_depth(node);
        match cond.and_then(|c| c.verdict) {
            Some(true) => {
                let split_idx =
                    self.push_span(node, MuscleRole::Split, rec.split, rec.started, preds);
                let expected = rec
                    .split_card
                    .unwrap_or_else(|| self.card(node, MuscleRole::Split, 1));
                let mut child_exits = Vec::new();
                for k in 0..expected {
                    let exits = match rec.children.get(k).and_then(|c| self.tracker.instance(*c)) {
                        Some(child) => self.instance_exits(child, node, vec![split_idx]),
                        None => {
                            // A child sits one level deeper: it divides
                            // only while est_depth still exceeds its own
                            // depth (rec.dc_depth + 1).
                            let depth_left = est_depth.saturating_sub(rec.dc_depth + 1);
                            self.dac_predict(node, vec![split_idx], depth_left)
                        }
                    };
                    child_exits.extend(exits);
                }
                if child_exits.is_empty() {
                    child_exits.push(split_idx);
                }
                vec![self.push_span(node, MuscleRole::Merge, rec.merge, rec.started, child_exits)]
            }
            Some(false) => match rec.children.first().and_then(|c| self.tracker.instance(*c)) {
                Some(child) => self.instance_exits(child, inner, preds),
                None => self.node_exits(inner, preds, None),
            },
            None => {
                // Verdict unknown: predict by remaining estimated depth.
                let depth_left = est_depth.saturating_sub(rec.dc_depth);
                if depth_left >= 1 {
                    let split_idx = self.push_pending(node, MuscleRole::Split, preds);
                    let fan = self.card(node, MuscleRole::Split, 1);
                    let mut child_exits = Vec::new();
                    for _ in 0..fan {
                        child_exits.extend(self.dac_predict(node, vec![split_idx], depth_left - 1));
                    }
                    vec![self.push_pending(node, MuscleRole::Merge, child_exits)]
                } else {
                    self.node_exits(inner, preds, None)
                }
            }
        }
    }

    // ---- predictive (AST-driven) expansion ------------------------------

    /// Appends the predicted activities of an unexecuted subtree.
    /// `dc_depth_left` carries the remaining recursion budget when the
    /// subtree is a `d&C` child of itself.
    fn node_exits(
        &mut self,
        node: &Arc<Node>,
        preds: Vec<usize>,
        dc_depth_left: Option<usize>,
    ) -> Vec<usize> {
        match &node.kind {
            NodeKind::Seq { .. } => {
                vec![self.push_pending(node, MuscleRole::Execute, preds)]
            }
            NodeKind::Farm { inner } => self.node_exits(inner, preds, None),
            NodeKind::Pipe { stages } => {
                let mut preds = preds;
                for s in stages {
                    preds = self.node_exits(s, preds, None);
                }
                preds
            }
            NodeKind::For { n, inner } => {
                let mut preds = preds;
                for _ in 0..*n {
                    preds = self.node_exits(inner, preds, None);
                }
                preds
            }
            NodeKind::While { inner, .. } => {
                let iters = self
                    .est
                    .cardinality(MuscleId::new(node.id, MuscleRole::Condition))
                    .map(|v| v.round().max(0.0) as usize)
                    .unwrap_or(0);
                let mut preds = preds;
                for _ in 0..iters {
                    let idx = self.push_pending(node, MuscleRole::Condition, preds);
                    preds = self.node_exits(inner, vec![idx], None);
                }
                vec![self.push_pending(node, MuscleRole::Condition, preds)]
            }
            NodeKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let idx = self.push_pending(node, MuscleRole::Condition, preds);
                let branch = self.pick_heavier_branch(then_branch, else_branch);
                self.node_exits(branch, vec![idx], None)
            }
            NodeKind::Map { inner, .. } => {
                let split_idx = self.push_pending(node, MuscleRole::Split, preds);
                let fan = self.card(node, MuscleRole::Split, 1);
                let mut child_exits = Vec::new();
                for _ in 0..fan {
                    child_exits.extend(self.node_exits(inner, vec![split_idx], None));
                }
                vec![self.push_pending(node, MuscleRole::Merge, child_exits)]
            }
            NodeKind::Fork { inners, .. } => {
                let split_idx = self.push_pending(node, MuscleRole::Split, preds);
                let mut child_exits = Vec::new();
                for inner in inners {
                    child_exits.extend(self.node_exits(inner, vec![split_idx], None));
                }
                vec![self.push_pending(node, MuscleRole::Merge, child_exits)]
            }
            NodeKind::DivideConquer { .. } => {
                let depth_left = dc_depth_left.unwrap_or_else(|| self.dc_depth(node) - 1);
                let cond_idx = self.push_pending(node, MuscleRole::Condition, preds);
                if depth_left >= 1 {
                    let split_idx = self.push_pending(node, MuscleRole::Split, vec![cond_idx]);
                    let fan = self.card(node, MuscleRole::Split, 1);
                    let mut child_exits = Vec::new();
                    for _ in 0..fan {
                        child_exits.extend(self.dac_predict(node, vec![split_idx], depth_left - 1));
                    }
                    vec![self.push_pending(node, MuscleRole::Merge, child_exits)]
                } else {
                    let NodeKind::DivideConquer { inner, .. } = &node.kind else {
                        unreachable!()
                    };
                    self.node_exits(inner, vec![cond_idx], None)
                }
            }
        }
    }

    /// Predicts one `d&C` recursion subtree: a cond, then — depth budget
    /// permitting — split, `|fs|` recursive subtrees, merge; otherwise the
    /// base skeleton.
    fn dac_predict(
        &mut self,
        node: &Arc<Node>,
        preds: Vec<usize>,
        depth_left: usize,
    ) -> Vec<usize> {
        self.node_exits(node, preds, Some(depth_left))
    }

    /// Rough sequential-work comparison used to pick the `if` branch to
    /// predict while the verdict is unknown (conservative choice).
    fn pick_heavier_branch<'b>(
        &self,
        then_branch: &'b Arc<Node>,
        else_branch: &'b Arc<Node>,
    ) -> &'b Arc<Node> {
        if self.seq_work(then_branch, 0) >= self.seq_work(else_branch, 0) {
            then_branch
        } else {
            else_branch
        }
    }

    /// Total estimated sequential work of a subtree (sum of all predicted
    /// activity durations).
    fn seq_work(&self, node: &Arc<Node>, depth_guard: usize) -> f64 {
        if depth_guard > 64 {
            return 0.0; // runaway recursion guard for degenerate estimates
        }
        let d = |role: MuscleRole| self.dur(node, role).0 as f64;
        match &node.kind {
            NodeKind::Seq { .. } => d(MuscleRole::Execute),
            NodeKind::Farm { inner } => self.seq_work(inner, depth_guard + 1),
            NodeKind::Pipe { stages } => stages
                .iter()
                .map(|s| self.seq_work(s, depth_guard + 1))
                .sum(),
            NodeKind::For { n, inner } => *n as f64 * self.seq_work(inner, depth_guard + 1),
            NodeKind::While { inner, .. } => {
                let iters = self
                    .est
                    .cardinality(MuscleId::new(node.id, MuscleRole::Condition))
                    .unwrap_or(0.0)
                    .max(0.0);
                (iters + 1.0) * d(MuscleRole::Condition)
                    + iters * self.seq_work(inner, depth_guard + 1)
            }
            NodeKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                d(MuscleRole::Condition)
                    + self
                        .seq_work(then_branch, depth_guard + 1)
                        .max(self.seq_work(else_branch, depth_guard + 1))
            }
            NodeKind::Map { inner, .. } => {
                let fan = self.card(node, MuscleRole::Split, 1) as f64;
                d(MuscleRole::Split)
                    + fan * self.seq_work(inner, depth_guard + 1)
                    + d(MuscleRole::Merge)
            }
            NodeKind::Fork { inners, .. } => {
                d(MuscleRole::Split)
                    + inners
                        .iter()
                        .map(|i| self.seq_work(i, depth_guard + 1))
                        .sum::<f64>()
                    + d(MuscleRole::Merge)
            }
            NodeKind::DivideConquer { inner, .. } => {
                let depth = self.dc_depth(node) as f64;
                let fan = self.card(node, MuscleRole::Split, 1) as f64;
                // Geometric expansion of the estimated recursion tree.
                let leaves = fan.powf((depth - 1.0).max(0.0));
                let internal = if fan > 1.0 {
                    (leaves - 1.0) / (fan - 1.0)
                } else {
                    (depth - 1.0).max(0.0)
                };
                internal * (d(MuscleRole::Condition) + d(MuscleRole::Split) + d(MuscleRole::Merge))
                    + leaves * (d(MuscleRole::Condition) + self.seq_work(inner, depth_guard + 1))
            }
        }
    }
}

enum FanChildren<'b> {
    Uniform(&'b Arc<Node>),
    PerBranch(&'b [Arc<Node>]),
}

// ---- the scheduling strategies -------------------------------------------

/// A laid-out oracle ADG: one `[start, end)` span per activity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Per-activity spans, aligned with `Adg::activities`.
    pub spans: Vec<(TimeNs, TimeNs)>,
    /// Completion time of the whole graph (`max end`).
    pub finish: TimeNs,
}

/// Best-effort schedule: infinite LP.
pub fn best_effort(adg: &Adg, now: TimeNs) -> Schedule {
    let mut spans: Vec<(TimeNs, TimeNs)> = Vec::with_capacity(adg.len());
    let mut finish = TimeNs::ZERO;
    for a in &adg.activities {
        let span = match a.state {
            ActState::Done { start, end } => (start, end),
            ActState::Running { start } => (start, (start + a.est).max(now)),
            ActState::Pending => {
                let ti = a.preds.iter().map(|&p| spans[p].1).fold(now, TimeNs::max); // past-clamp: ti ≥ now
                (ti, ti + a.est)
            }
        };
        finish = finish.max(span.1);
        spans.push(span);
    }
    Schedule { spans, finish }
}

/// Limited-LP schedule: greedy list scheduling with at most `lp`
/// concurrently running activities from `now` on. Already-running
/// activities keep their workers (no preemption); `lp == 0` with pending
/// work yields `finish == TimeNs::MAX`.
///
/// Note that greedy list scheduling is subject to *Graham's anomaly*: on
/// adversarial DAGs a larger `lp` can occasionally produce a slightly
/// later finish. The paper assumes non-decreasing speedup ("for
/// simplicity … we assume that the LP produces a non-strictly increasing
/// speedup", §4) and so does the controller's binary search; Graham's
/// bound still guarantees every `lp ≥ 1` is at least as good as serial
/// execution (property-tested in `tests/strategy_properties.rs`).
pub fn limited_lp(adg: &Adg, now: TimeNs, lp: usize) -> Schedule {
    let n = adg.len();
    let mut spans: Vec<(TimeNs, TimeNs)> = vec![(TimeNs::ZERO, TimeNs::ZERO); n];
    let mut scheduled = vec![false; n];
    let mut finish = TimeNs::ZERO;

    // Reverse adjacency + pending-predecessor counts.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut missing_preds = vec![0usize; n];
    for (i, a) in adg.activities.iter().enumerate() {
        if matches!(a.state, ActState::Pending) {
            for &p in &a.preds {
                succs[p].push(i);
            }
            missing_preds[i] = a.preds.len();
        }
    }

    // Completion events: (time, activity index).
    let mut events: std::collections::BinaryHeap<std::cmp::Reverse<(TimeNs, usize)>> =
        std::collections::BinaryHeap::new();
    // Ready pending activities: (ready_time, idx).
    let mut ready: Vec<(TimeNs, usize)> = Vec::new();
    let mut in_use = 0usize;
    let mut pending_left = 0usize;

    let resolve = |i: usize,
                   end: TimeNs,
                   missing_preds: &mut Vec<usize>,
                   ready: &mut Vec<(TimeNs, usize)>,
                   spans: &Vec<(TimeNs, TimeNs)>,
                   succs: &Vec<Vec<usize>>,
                   scheduled: &Vec<bool>,
                   adg: &Adg| {
        let _ = end;
        for &s in &succs[i] {
            if missing_preds[s] > 0 {
                missing_preds[s] -= 1;
                if missing_preds[s] == 0 {
                    let ready_time = adg.activities[s]
                        .preds
                        .iter()
                        .map(|&p| spans[p].1)
                        .fold(now, TimeNs::max);
                    debug_assert!(scheduled.iter().len() >= s);
                    ready.push((ready_time, s));
                }
            }
        }
    };

    // Seed with Done and Running activities.
    for (i, a) in adg.activities.iter().enumerate() {
        match a.state {
            ActState::Done { start, end } => {
                spans[i] = (start, end);
                scheduled[i] = true;
                finish = finish.max(end);
            }
            ActState::Running { start } => {
                let end = (start + a.est).max(now);
                spans[i] = (start, end);
                scheduled[i] = true;
                finish = finish.max(end);
                in_use += 1;
                events.push(std::cmp::Reverse((end, i)));
            }
            ActState::Pending => pending_left += 1,
        }
    }
    // Resolve successors of *Done* activities only — Running ones resolve
    // when their completion event fires (resolving them here too would
    // count them twice and let successors start before their preds end).
    for i in 0..n {
        if matches!(adg.activities[i].state, ActState::Done { .. }) {
            let end = spans[i].1;
            resolve(
                i,
                end,
                &mut missing_preds,
                &mut ready,
                &spans,
                &succs,
                &scheduled,
                adg,
            );
        }
    }
    // Pending activities with no pending preds at all (their preds were
    // all Done/Running, already handled) — also those with zero preds.
    for (i, a) in adg.activities.iter().enumerate() {
        if matches!(a.state, ActState::Pending) && missing_preds[i] == 0 {
            let ready_time = a.preds.iter().map(|&p| spans[p].1).fold(now, TimeNs::max);
            if !ready.iter().any(|&(_, j)| j == i) {
                ready.push((ready_time, i));
            }
        }
    }

    if pending_left > 0 && lp == 0 {
        return Schedule {
            spans,
            finish: TimeNs::MAX,
        };
    }

    let mut t = now;
    loop {
        // Start everything ready and startable at time t, LIFO-ish.
        loop {
            if in_use >= lp {
                break;
            }
            // Eligible: ready_time ≤ t; pick the highest index (mirrors
            // the runtime's LIFO stack on ties).
            let mut best: Option<usize> = None; // position in `ready`
            for (pos, &(rt, idx)) in ready.iter().enumerate() {
                if rt <= t {
                    match best {
                        Some(b) if ready[b].1 >= idx => {}
                        _ => best = Some(pos),
                    }
                }
            }
            let Some(pos) = best else { break };
            let (_, i) = ready.swap_remove(pos);
            let est = adg.activities[i].est;
            spans[i] = (t, t + est);
            scheduled[i] = true;
            finish = finish.max(t + est);
            pending_left -= 1;
            if est.0 == 0 {
                // Zero-duration activities complete instantly and do not
                // occupy a worker.
                resolve(
                    i,
                    t,
                    &mut missing_preds,
                    &mut ready,
                    &spans,
                    &succs,
                    &scheduled,
                    adg,
                );
            } else {
                in_use += 1;
                events.push(std::cmp::Reverse((t + est, i)));
            }
        }
        if pending_left == 0 && events.is_empty() {
            break;
        }
        // Advance to the next completion.
        let Some(std::cmp::Reverse((et, i))) = events.pop() else {
            // No running activity but work left: only possible when every
            // ready_time is in the future relative to t — advance to the
            // earliest.
            let Some(&(rt, _)) = ready.iter().min_by_key(|&&(rt, _)| rt) else {
                break;
            };
            t = t.max(rt);
            continue;
        };
        t = t.max(et);
        in_use -= 1;
        resolve(
            i,
            et,
            &mut missing_preds,
            &mut ready,
            &spans,
            &succs,
            &scheduled,
            adg,
        );
        // Drain simultaneous completions.
        while let Some(&std::cmp::Reverse((et2, _))) = events.peek() {
            if et2 != t {
                break;
            }
            let std::cmp::Reverse((_, j)) = events.pop().expect("peeked");
            in_use -= 1;
            resolve(
                j,
                t,
                &mut missing_preds,
                &mut ready,
                &spans,
                &succs,
                &scheduled,
                adg,
            );
        }
    }

    Schedule { spans, finish }
}
