//! The Activity Dependency Graph (ADG) of Fig. 1.
//!
//! An ADG snapshots one skeleton execution at analysis time `now`: each
//! **activity** is a muscle execution — already finished (actual start and
//! end), currently running (actual start, estimated end), or predicted
//! (estimated duration, dependencies from the skeleton structure). The
//! predicted part is expanded from the AST using the estimator table:
//! an unexecuted `map` contributes a split, `round(|fs|)` child subtrees
//! and a merge; a half-done `while` contributes its remaining estimated
//! iterations; a `d&C` expands its estimated recursion tree to the
//! estimated depth, and so on.
//!
//! Scheduling strategies (`crate::strategy`) then lay the ADG on a
//! timeline; the controller compares the resulting completion times with
//! the WCT goal.
//!
//! The controller rebuilds the graph on every `After` event, so a build
//! costs what changed rather than the graph ([`AdgWorkspace`]): the graph
//! is a flat arena reused from build to build; every estimate is read
//! from the table once per build, not once per activity; a finished
//! instance's activities are derived once and copied thereafter; the
//! not-yet-started siblings under one AST node are expanded once per
//! build and copied for each sibling; only live instances are walked.
//!
//! Design notes beyond the paper:
//! * `if` is supported by predicting the *more expensive* branch while the
//!   verdict is unknown (conservative WCT; the paper left `if` unsupported
//!   because naive support duplicates the graph);
//! * `fork` is supported using its statically-known branch count (the
//!   paper's objection was state-machine non-determinism, which our
//!   per-instance records avoid).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use askel_skeletons::{InstanceId, KindTag, MuscleId, MuscleRole, Node, NodeId, NodeKind, TimeNs};

use crate::estimate::{role_has_cardinality, EstimatorTable};
use crate::tracker::{InstanceRecord, SmTracker, Span};

/// Execution state of one activity at analysis time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActState {
    /// Finished: actual start and end.
    Done {
        /// Actual start time.
        start: TimeNs,
        /// Actual end time.
        end: TimeNs,
    },
    /// Started but not finished; its end is estimated as
    /// `max(start + est, now)` (the paper's past-clamp).
    Running {
        /// Actual start time.
        start: TimeNs,
    },
    /// Not started; both start and end are up to the strategy.
    Pending,
}

/// One node of the ADG: a (possibly predicted) muscle execution. Its
/// predecessors are [`Adg::preds`] of its index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Activity {
    /// The muscle this activity executes.
    pub muscle: MuscleId,
    /// Execution state.
    pub state: ActState,
    /// Estimated duration `t(m)` (for `Done`, the actual duration).
    pub est: TimeNs,
    /// Where the predecessors sit in the graph's shared index vector:
    /// `[from, to)`.
    preds: (u32, u32),
}

/// What a block of activities hangs off, and what follows hangs off it:
/// the one activity that must finish first, if any. Every skeleton kind
/// ends in at most one activity (a `seq`'s muscle, a fan's merge, a
/// loop's last condition), so a whole predecessor set is only ever
/// needed for a merge.
type Link = Option<u32>;

/// The Activity Dependency Graph: a flat arena of `Copy` activities over
/// one shared vector of predecessor indices.
#[derive(Clone, Debug, Default)]
pub struct Adg {
    /// Activities in topological (insertion) order: every predecessor
    /// index is smaller than the activity's own.
    pub activities: Vec<Activity>,
    /// Every activity's predecessor indices, back to back.
    pred_idx: Vec<u32>,
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

    /// Indices of the activities that must finish before activity `i`
    /// starts.
    pub fn preds(&self, i: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.pred_slice(i).iter().map(|&p| p as usize)
    }

    pub(crate) fn pred_slice(&self, i: usize) -> &[u32] {
        let (from, to) = self.activities[i].preds;
        &self.pred_idx[from as usize..to as usize]
    }

    /// Appends an activity that waits for `preds` — each an index already
    /// in the graph — and returns its index.
    ///
    /// # Panics
    /// If a predecessor is not in the graph yet: index order must stay a
    /// topological order.
    pub fn push(
        &mut self,
        muscle: MuscleId,
        state: ActState,
        est: TimeNs,
        preds: &[usize],
    ) -> usize {
        let from = self.pred_idx.len();
        for &p in preds {
            assert!(p < self.len(), "predecessor {p} is not in the graph yet");
            self.pred_idx.push(p as u32);
        }
        self.push_over(muscle, state, est, from) as usize
    }

    /// Appends an activity whose predecessors are `pred_idx[from..]`.
    fn push_over(&mut self, muscle: MuscleId, state: ActState, est: TimeNs, from: usize) -> u32 {
        let index = u32::try_from(self.activities.len()).expect("an ADG holds under 2^32 nodes");
        let to = u32::try_from(self.pred_idx.len()).expect("an ADG holds under 2^32 edges");
        self.activities.push(Activity {
            muscle,
            state,
            est,
            preds: (from as u32, to),
        });
        index
    }

    /// [`push`](Self::push) for the builder, whose indices are already
    /// `u32` and come from this graph.
    fn emit(&mut self, muscle: MuscleId, state: ActState, est: TimeNs, preds: &[u32]) -> u32 {
        let from = self.pred_idx.len();
        self.pred_idx.extend_from_slice(preds);
        self.push_over(muscle, state, est, from)
    }

    fn clear(&mut self) {
        self.activities.clear();
        self.pred_idx.clear();
    }

    /// Appends a copy of `src`'s `block`: predecessors inside the block
    /// point into the copy, the ones outside it — there is only the
    /// block's entry — at `entry`. Returns the block's exit, moved the
    /// same way.
    fn append_from(&mut self, src: &Adg, block: Block, entry: Link) -> Link {
        let (acts, preds) = (self.activities.len(), self.pred_idx.len());
        let Some(block_preds) = src.block_preds(block) else {
            return entry;
        };
        self.activities
            .extend_from_slice(&src.activities[block.range()]);
        self.pred_idx
            .extend_from_slice(&src.pred_idx[block_preds.clone()]);
        self.rebase_tail(acts, preds, block, block_preds.start, entry)
    }

    /// [`append_from`](Self::append_from) with this graph as the source.
    fn append_within(&mut self, block: Block, entry: Link) -> Link {
        let (acts, preds) = (self.activities.len(), self.pred_idx.len());
        let Some(block_preds) = self.block_preds(block) else {
            return entry;
        };
        self.activities.extend_from_within(block.range());
        self.pred_idx.extend_from_within(block_preds.clone());
        self.rebase_tail(acts, preds, block, block_preds.start, entry)
    }

    /// The stretch of `pred_idx` a block's activities use (`None` for an
    /// empty block): consecutive pushes lay their predecessors out
    /// consecutively.
    fn block_preds(&self, block: Block) -> Option<Range<usize>> {
        let activities = &self.activities[block.range()];
        Some(activities.first()?.preds.0 as usize..activities.last()?.preds.1 as usize)
    }

    /// Re-points the copy of `block` just appended at `activities[acts..]`
    /// / `pred_idx[preds..]`, whose predecessors began at `pred_first`
    /// where it was copied from.
    fn rebase_tail(
        &mut self,
        acts: usize,
        preds: usize,
        block: Block,
        pred_first: usize,
        entry: Link,
    ) -> Link {
        assert!(
            self.activities.len().max(self.pred_idx.len()) < u32::MAX as usize,
            "an ADG holds under 2^32 nodes and edges"
        );
        let inside = |p: u32| p.wrapping_sub(block.first) < block.len;
        let moved = |p: u32| p - block.first + acts as u32;
        // An outside predecessor with nothing to re-point it at cannot
        // be: a block is only reused where the original had an entry
        // exactly when the copy has one.
        let outside = entry.unwrap_or(u32::MAX);
        for p in &mut self.pred_idx[preds..] {
            debug_assert!(inside(*p) || entry.is_some());
            *p = if inside(*p) { moved(*p) } else { outside };
        }
        for a in &mut self.activities[acts..] {
            let shift = |at: u32| (at as usize - pred_first + preds) as u32;
            a.preds = (shift(a.preds.0), shift(a.preds.1));
        }
        match block.exit {
            Some(x) if inside(x) => Some(moved(x)),
            _ => entry,
        }
    }
}

/// A run of consecutively pushed activities inside some [`Adg`], and the
/// activity what follows it hangs off: one of its own, or — when `exit`
/// is not inside the block — whatever the block itself hangs off.
#[derive(Clone, Copy, Debug)]
struct Block {
    first: u32,
    len: u32,
    exit: Link,
}

impl Block {
    fn range(self) -> Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }
}

// ---- estimates, read once per build ----------------------------------------

/// The estimates of one AST node's muscles.
#[derive(Clone, Copy, Debug)]
struct NodeEstimates {
    node: NodeId,
    tag: KindTag,
    /// The muscles the node has.
    roles: &'static [MuscleRole],
    /// `t(m)` by `MuscleRole as usize`; zero while unknown, which the
    /// controller's analysis gate keeps from ever being decided on.
    dur: [TimeNs; 4],
    /// Raw `|fs|`.
    split_card: Option<f64>,
    /// Raw `|fc|`: a `while`'s expected `true` count, a `d&C`'s depth.
    cond_card: Option<f64>,
}

/// `|m|` as a usable count, at least `min`.
fn rounded(card: Option<f64>, min: usize) -> usize {
    card.map_or(min, |v| (v.round().max(0.0) as usize).max(min))
}

/// Every estimate an AST's muscles need, by node: filled from the
/// [`EstimatorTable`] — alias groups included — once per build, so the
/// walk itself never hashes.
#[derive(Clone, Debug)]
struct Estimates {
    /// Sorted by node id; a node shared by two parents has one row.
    rows: Vec<NodeEstimates>,
}

impl Estimates {
    fn of(ast: &Arc<Node>) -> Self {
        let mut rows: Vec<NodeEstimates> = ast
            .collect_nodes()
            .iter()
            .map(|n| NodeEstimates {
                node: n.id,
                tag: n.tag(),
                roles: n.own_roles(),
                dur: [TimeNs::ZERO; 4],
                split_card: None,
                cond_card: None,
            })
            .collect();
        rows.sort_by_key(|r| r.node);
        rows.dedup_by_key(|r| r.node);
        Estimates { rows }
    }

    /// Re-reads every estimate; `true` if none is missing — the same
    /// verdict as [`EstimatorTable::covers`] on the AST's muscles.
    fn refresh(&mut self, table: &EstimatorTable) -> bool {
        let mut covered = true;
        for row in &mut self.rows {
            for &role in row.roles {
                let muscle = MuscleId::new(row.node, role);
                let dur = table.duration(muscle);
                row.dur[role as usize] = dur.unwrap_or(TimeNs::ZERO);
                covered &= dur.is_some();
                if role_has_cardinality(row.tag, role) {
                    let card = table.cardinality(muscle);
                    covered &= card.is_some();
                    match role {
                        MuscleRole::Split => row.split_card = card,
                        _ => row.cond_card = card,
                    }
                }
            }
        }
        covered
    }

    fn of_node(&self, node: NodeId) -> &NodeEstimates {
        let at = self
            .rows
            .binary_search_by_key(&node, |r| r.node)
            .expect("the walk only visits nodes of the AST the rows were taken from");
        &self.rows[at]
    }
}

// ---- finished blocks, kept across builds -----------------------------------

/// The activities of finished instances, as they were first derived.
///
/// A finished instance's block reads no estimate — every activity in it
/// is `Done`, with its actual times — and nothing under a finished
/// instance receives another event, so the block is the same in every
/// later graph up to where it sits and what it hangs off. Whether it
/// hangs off anything does not change either: what runs before an
/// instance had finished, and so stopped changing, when it began.
#[derive(Debug, Default)]
struct FinishedBlocks {
    graph: Adg,
    /// Per finished instance, its block in `graph`.
    of: HashMap<InstanceId, Block>,
}

/// Stands for "the entry" in [`FinishedBlocks::graph`]: outside every
/// block, so a copy re-points it at the copy's entry.
const ENTRY: u32 = u32::MAX;

// ---- the builder ------------------------------------------------------------

/// Everything one AST's ADG builds reuse: the graph arena, the estimates
/// read from the table, the walk's scratch stacks and the blocks of
/// finished instances. The controller keeps one for its lifetime; once
/// the buffers have grown to the graph's size a build allocates only
/// when an instance newly finishes.
///
/// What a build re-derives and what it copies: a *finished* instance's
/// activities are derived on the first build after it finished and
/// copied from then on, until [`forget_finished`](Self::forget_finished);
/// a *live* instance is walked, its child records matched by a cursor
/// that only moves forward; the *not-yet-started* children of one fan or
/// loop are expanded once per build and copied for each sibling —
/// across builds they are re-derived, because nearly every event moves a
/// duration estimate.
#[derive(Debug)]
pub struct AdgWorkspace {
    ast: Arc<Node>,
    estimates: Estimates,
    adg: Adg,
    scratch: Scratch,
    finished: FinishedBlocks,
}

/// The walk's two stacks; a nested fan uses the part above its parent's.
#[derive(Debug, Default)]
struct Scratch {
    /// Exits of the children of the fans being expanded: each fan's
    /// stretch becomes its merge's predecessors.
    exits: Vec<u32>,
    /// Which child records of the fans being expanded are matched.
    taken: Vec<bool>,
}

impl AdgWorkspace {
    /// A workspace for graphs of the skeleton rooted at `ast`.
    pub fn new(ast: &Arc<Node>) -> Self {
        AdgWorkspace {
            ast: Arc::clone(ast),
            estimates: Estimates::of(ast),
            adg: Adg::default(),
            scratch: Scratch::default(),
            finished: FinishedBlocks::default(),
        }
    }

    /// Builds the ADG of the tracker's current root submission. The graph
    /// is empty when no submission of this AST is live.
    ///
    /// Estimates must cover every muscle of the AST
    /// ([`EstimatorTable::covers`]); missing estimates fall back to zero
    /// duration / cardinality 1, which the controller's analysis gate
    /// prevents from ever being used for decisions.
    pub fn build(&mut self, tracker: &SmTracker) -> &Adg {
        self.refresh(tracker.estimates());
        self.build_refreshed(tracker)
    }

    /// Builds a purely predictive ADG (no execution started yet): the
    /// graph a cold analysis would use if estimates were initialized.
    pub fn build_predictive(&mut self, estimates: &EstimatorTable) -> &Adg {
        self.refresh(estimates);
        self.predict_refreshed()
    }

    /// Drops the blocks of finished instances. Call when their records
    /// go ([`SmTracker::prune_finished`]): nothing will ask for them
    /// again.
    pub fn forget_finished(&mut self) {
        self.finished.graph.clear();
        self.finished.of.clear();
    }

    /// Reads the estimates the next build uses; `true` if every muscle of
    /// the AST has all of its own (the analysis gate).
    pub(crate) fn refresh(&mut self, estimates: &EstimatorTable) -> bool {
        self.estimates.refresh(estimates)
    }

    /// [`build`](Self::build) over the estimates of the last `refresh`.
    pub(crate) fn build_refreshed(&mut self, tracker: &SmTracker) -> &Adg {
        self.adg.clear();
        if let Some(root) = tracker.current_root() {
            if root.node == self.ast.id {
                self.walk(Some(tracker), |walk, ast| walk.instance(root, ast, None));
            }
        }
        &self.adg
    }

    /// [`build_predictive`](Self::build_predictive) over the estimates of
    /// the last `refresh`.
    pub(crate) fn predict_refreshed(&mut self) -> &Adg {
        self.adg.clear();
        self.walk(None, |walk, ast| walk.predicted(ast, None, None));
        &self.adg
    }

    fn walk<'a>(
        &'a mut self,
        tracker: Option<&'a SmTracker>,
        from_root: impl FnOnce(&mut Walk<'a>, &Arc<Node>) -> Link,
    ) {
        let mut walk = Walk {
            tracker,
            estimates: &self.estimates,
            adg: &mut self.adg,
            scratch: &mut self.scratch,
            finished: &mut self.finished,
            estimate_reads: 0,
        };
        from_root(&mut walk, &self.ast);
    }
}

/// Builds one ADG from tracker state + estimator table + AST into a
/// workspace of its own. The controller, which builds one per event,
/// keeps an [`AdgWorkspace`] instead.
pub struct AdgBuilder<'a> {
    tracker: &'a SmTracker,
}

impl<'a> AdgBuilder<'a> {
    /// A builder over the tracker's live state and its estimator table.
    pub fn new(tracker: &'a SmTracker) -> Self {
        AdgBuilder { tracker }
    }

    /// Builds the ADG of the tracker's current root submission executing
    /// `ast` ([`AdgWorkspace::build`]).
    pub fn build(self, ast: &Arc<Node>) -> Adg {
        let mut workspace = AdgWorkspace::new(ast);
        workspace.build(self.tracker);
        workspace.adg
    }

    /// Builds a purely predictive ADG
    /// ([`AdgWorkspace::build_predictive`]).
    pub fn build_predictive(self, ast: &Arc<Node>) -> Adg {
        let mut workspace = AdgWorkspace::new(ast);
        workspace.build_predictive(self.tracker.estimates());
        workspace.adg
    }
}

/// The children of a fan: one skeleton for every sub-problem, or one each.
#[derive(Clone, Copy)]
enum FanChildren<'b> {
    Uniform(&'b Arc<Node>),
    PerBranch(&'b [Arc<Node>]),
}

/// A predicted block already in the graph being built, to copy for the
/// next sibling that predicts the same.
#[derive(Clone, Copy)]
struct Template {
    node: NodeId,
    block: Block,
}

/// One build: appends to the workspace's graph, recursively.
struct Walk<'a> {
    tracker: Option<&'a SmTracker>,
    estimates: &'a Estimates,
    adg: &'a mut Adg,
    scratch: &'a mut Scratch,
    finished: &'a mut FinishedBlocks,
    /// How many estimates have shaped the graph so far. A stretch of the
    /// walk that leaves it alone produced something no estimate can
    /// change.
    estimate_reads: u64,
}

impl<'a> Walk<'a> {
    // ---- estimates ---------------------------------------------------

    fn read(&mut self, node: &Node) -> &'a NodeEstimates {
        self.estimate_reads += 1;
        let estimates: &'a Estimates = self.estimates;
        estimates.of_node(node.id)
    }

    fn dur(&mut self, node: &Node, role: MuscleRole) -> TimeNs {
        self.read(node).dur[role as usize]
    }

    /// Estimated sub-problem count of a split (≥ 1).
    fn fan(&mut self, node: &Node) -> usize {
        rounded(self.read(node).split_card, 1)
    }

    /// Estimated depth of a `d&C` recursion (≥ 1).
    fn dc_depth(&mut self, node: &Node) -> usize {
        rounded(self.read(node).cond_card, 1)
    }

    /// Estimated number of iterations of a `while`.
    fn while_trues(&mut self, node: &Node) -> usize {
        rounded(self.read(node).cond_card, 0)
    }

    fn record(&self, id: InstanceId) -> Option<&'a InstanceRecord> {
        self.tracker?.instance(id)
    }

    // ---- activity helpers ---------------------------------------------

    /// State and duration of a muscle execution the tracker may have seen.
    fn observed(
        &mut self,
        node: &Node,
        role: MuscleRole,
        span: Option<Span>,
    ) -> (ActState, TimeNs) {
        match span {
            Some(Span {
                started,
                finished: Some(end),
            }) => (
                ActState::Done {
                    start: started,
                    end,
                },
                end.saturating_sub(started),
            ),
            Some(Span {
                started,
                finished: None,
            }) => (ActState::Running { start: started }, self.dur(node, role)),
            None => (ActState::Pending, self.dur(node, role)),
        }
    }

    fn push_span(&mut self, node: &Node, role: MuscleRole, span: Option<Span>, entry: Link) -> u32 {
        let (state, est) = self.observed(node, role, span);
        self.adg
            .emit(MuscleId::new(node.id, role), state, est, entry.as_slice())
    }

    fn push_pending(&mut self, node: &Node, role: MuscleRole, entry: Link) -> Link {
        Some(self.push_span(node, role, None, entry))
    }

    /// Appends a fan's merge over the child exits stacked since `base` —
    /// over `childless` when there are none.
    fn push_merge(
        &mut self,
        node: &Node,
        span: Option<Span>,
        base: usize,
        childless: Link,
    ) -> Link {
        if self.scratch.exits.len() == base {
            self.scratch.exits.extend(childless);
        }
        let (state, est) = self.observed(node, MuscleRole::Merge, span);
        let merge = self.adg.emit(
            MuscleId::new(node.id, MuscleRole::Merge),
            state,
            est,
            &self.scratch.exits[base..],
        );
        self.scratch.exits.truncate(base);
        Some(merge)
    }

    // ---- actual (record-driven) expansion ------------------------------

    /// Appends the activities of an instance; returns what follows it
    /// hangs off. A finished instance's are copied once they are known.
    fn instance(&mut self, rec: &'a InstanceRecord, node: &Arc<Node>, entry: Link) -> Link {
        debug_assert_eq!(rec.node, node.id, "record/AST mismatch");
        // A `seq` is one activity: cheaper read off its record than
        // looked up.
        if !rec.is_finished() || rec.kind == KindTag::Seq {
            return self.walk_instance(rec, node, entry);
        }
        if let Some(&block) = self.finished.of.get(&rec.id) {
            return self.adg.append_from(&self.finished.graph, block, entry);
        }
        let first = self.adg.len() as u32;
        let reads = self.estimate_reads;
        let exit = self.walk_instance(rec, node, entry);
        if self.estimate_reads == reads {
            let block = Block {
                first,
                len: self.adg.len() as u32 - first,
                exit,
            };
            let kept = Block {
                first: self.finished.graph.len() as u32,
                exit: self
                    .finished
                    .graph
                    .append_from(self.adg, block, entry.map(|_| ENTRY)),
                ..block
            };
            self.finished.of.insert(rec.id, kept);
        }
        exit
    }

    fn walk_instance(&mut self, rec: &'a InstanceRecord, node: &Arc<Node>, entry: Link) -> Link {
        match (&node.kind, rec.kind) {
            (NodeKind::Seq { .. }, KindTag::Seq) => {
                let span = Span {
                    started: rec.started,
                    finished: rec.finished,
                };
                Some(self.push_span(node, MuscleRole::Execute, Some(span), entry))
            }
            (NodeKind::Farm { inner }, KindTag::Farm) => {
                self.chain_children(rec, std::slice::from_ref(inner), entry, 1)
            }
            (NodeKind::Pipe { stages }, KindTag::Pipe) => {
                self.chain_children(rec, stages, entry, stages.len())
            }
            (NodeKind::For { n, inner }, KindTag::For) => {
                self.chain_children(rec, std::slice::from_ref(inner), entry, *n)
            }
            (NodeKind::While { inner, .. }, KindTag::While) => {
                self.while_instance(rec, node, inner, entry)
            }
            (
                NodeKind::If {
                    then_branch,
                    else_branch,
                    ..
                },
                KindTag::If,
            ) => self.if_instance(rec, node, then_branch, else_branch, entry),
            (NodeKind::Map { inner, .. }, KindTag::Map) => {
                self.fan_instance(rec, node, FanChildren::Uniform(inner), entry)
            }
            (NodeKind::Fork { inners, .. }, KindTag::Fork) => {
                self.fan_instance(rec, node, FanChildren::PerBranch(inners), entry)
            }
            (NodeKind::DivideConquer { inner, .. }, KindTag::DivideConquer) => {
                self.dac_instance(rec, node, inner, entry)
            }
            _ => {
                debug_assert!(false, "record kind does not match AST node kind");
                entry
            }
        }
    }

    /// The `k`-th child of a chain or loop: its record if it has begun,
    /// else its prediction.
    fn child_or_predicted(
        &mut self,
        rec: &'a InstanceRecord,
        k: usize,
        node: &Arc<Node>,
        entry: Link,
        template: &mut Option<Template>,
    ) -> Link {
        match rec.children.get(k).and_then(|c| self.record(*c)) {
            Some(child) => self.instance(child, node, entry),
            None => self.predicted_again(template, node, entry, None),
        }
    }

    /// farm/pipe/for: children run sequentially; no own muscles.
    fn chain_children(
        &mut self,
        rec: &'a InstanceRecord,
        stages: &[Arc<Node>],
        entry: Link,
        total: usize,
    ) -> Link {
        let mut link = entry;
        let mut template = None;
        for k in 0..total {
            // Pipe stages differ per k; farm/for repeat one inner.
            let stage = if stages.len() == total {
                &stages[k]
            } else {
                &stages[0]
            };
            link = self.child_or_predicted(rec, k, stage, link, &mut template);
        }
        link
    }

    fn while_instance(
        &mut self,
        rec: &'a InstanceRecord,
        node: &Arc<Node>,
        inner: &Arc<Node>,
        entry: Link,
    ) -> Link {
        let mut link = entry;
        // Actual history: cond_0, body_0, cond_1, body_1, …
        let mut bodies = 0usize;
        for (k, cond) in rec.conds.iter().enumerate() {
            link = Some(self.push_span(node, MuscleRole::Condition, Some(cond.span), link));
            if cond.verdict != Some(true) {
                // The loop exited, or the cond still runs: unknown rest.
                return link;
            }
            // The k-th body follows this cond.
            link = self.child_or_predicted(rec, k, inner, link, &mut None);
            bodies += 1;
        }
        if rec.is_finished() {
            return link;
        }
        let remaining = self.while_trues(node).saturating_sub(bodies);
        self.while_rest(node, inner, remaining, link)
    }

    /// `rounds` predicted iterations of a `while`, then the final (false)
    /// evaluation.
    fn while_rest(
        &mut self,
        node: &Arc<Node>,
        inner: &Arc<Node>,
        rounds: usize,
        entry: Link,
    ) -> Link {
        let mut link = entry;
        let mut template = None;
        for _ in 0..rounds {
            link = self.repeated(&mut template, node, link, |walk| {
                let cond = walk.push_pending(node, MuscleRole::Condition, link);
                walk.predicted(inner, cond, None)
            });
        }
        self.push_pending(node, MuscleRole::Condition, link)
    }

    fn if_instance(
        &mut self,
        rec: &'a InstanceRecord,
        node: &Arc<Node>,
        then_branch: &Arc<Node>,
        else_branch: &Arc<Node>,
        entry: Link,
    ) -> Link {
        let cond = rec.conds.first();
        let link = Some(self.push_span(node, MuscleRole::Condition, cond.map(|c| c.span), entry));
        match cond.and_then(|c| c.verdict) {
            Some(verdict) => {
                let branch = if verdict { then_branch } else { else_branch };
                self.child_or_predicted(rec, 0, branch, link, &mut None)
            }
            None => {
                // Verdict unknown: predict the more expensive branch.
                let branch = self.pick_heavier_branch(then_branch, else_branch);
                self.predicted(branch, link, None)
            }
        }
    }

    fn fan_instance(
        &mut self,
        rec: &'a InstanceRecord,
        node: &Arc<Node>,
        children: FanChildren<'_>,
        entry: Link,
    ) -> Link {
        let split = self.push_span(node, MuscleRole::Split, rec.split, entry);
        let expected = match rec.split_card {
            Some(card) => card,
            None => match children {
                FanChildren::Uniform(_) => self.fan(node),
                FanChildren::PerBranch(inners) => inners.len(),
            },
        };
        // Children may *arrive* in any order (the LIFO runtime starts the
        // last-pushed child first), so records are matched to branch ASTs
        // by node identity, consuming each record once: the first record
        // not yet taken that is of the branch's node. `next` only moves
        // forward, past the records taken; under a `map` every record
        // matches, so every search ends where it starts.
        let records = &rec.children;
        let base = self.scratch.exits.len();
        let taken = self.scratch.taken.len();
        self.scratch.taken.resize(taken + records.len(), false);
        let mut next = 0;
        let mut template = None;
        for k in 0..expected {
            let child_ast = match children {
                FanChildren::Uniform(inner) => inner,
                FanChildren::PerBranch(inners) => &inners[k.min(inners.len() - 1)],
            };
            let found = (next..records.len())
                .filter(|&i| !self.scratch.taken[taken + i])
                .filter_map(|i| Some((i, self.record(records[i])?)))
                .find(|(_, r)| r.node == child_ast.id);
            let exit = match found {
                Some((i, child)) => {
                    self.scratch.taken[taken + i] = true;
                    while next < records.len() && self.scratch.taken[taken + next] {
                        next += 1;
                    }
                    self.instance(child, child_ast, Some(split))
                }
                None => self.predicted_again(&mut template, child_ast, Some(split), None),
            };
            self.scratch.exits.extend(exit);
        }
        self.scratch.taken.truncate(taken);
        self.push_merge(node, rec.merge, base, Some(split))
    }

    fn dac_instance(
        &mut self,
        rec: &'a InstanceRecord,
        node: &Arc<Node>,
        inner: &Arc<Node>,
        entry: Link,
    ) -> Link {
        let cond = rec.conds.first();
        let link = Some(self.push_span(node, MuscleRole::Condition, cond.map(|c| c.span), entry));
        match cond.and_then(|c| c.verdict) {
            Some(true) => {
                let split = self.push_span(node, MuscleRole::Split, rec.split, link);
                let expected = match rec.split_card {
                    Some(card) => card,
                    None => self.fan(node),
                };
                let base = self.scratch.exits.len();
                let mut template = None;
                for k in 0..expected {
                    let exit = match rec.children.get(k).and_then(|c| self.record(*c)) {
                        Some(child) => self.instance(child, node, Some(split)),
                        None => {
                            // A child sits one level deeper: it divides
                            // only while the estimated depth still
                            // exceeds its own (rec.dc_depth + 1).
                            let depth_left = self.dc_depth(node).saturating_sub(rec.dc_depth + 1);
                            self.predicted_again(&mut template, node, Some(split), Some(depth_left))
                        }
                    };
                    self.scratch.exits.extend(exit);
                }
                self.push_merge(node, rec.merge, base, Some(split))
            }
            Some(false) => self.child_or_predicted(rec, 0, inner, link, &mut None),
            None => {
                // Verdict unknown: predict by remaining estimated depth.
                let depth_left = self.dc_depth(node).saturating_sub(rec.dc_depth);
                if depth_left >= 1 {
                    self.dac_divide(node, link, depth_left - 1)
                } else {
                    self.predicted(inner, link, None)
                }
            }
        }
    }

    // ---- predictive (AST-driven) expansion ------------------------------

    /// Appends the predicted activities of an unexecuted subtree.
    /// `dc_depth_left` carries the remaining recursion budget when the
    /// subtree is a `d&C` child of itself.
    fn predicted(&mut self, node: &Arc<Node>, entry: Link, dc_depth_left: Option<usize>) -> Link {
        match &node.kind {
            NodeKind::Seq { .. } => self.push_pending(node, MuscleRole::Execute, entry),
            NodeKind::Farm { inner } => self.predicted(inner, entry, None),
            NodeKind::Pipe { stages } => stages
                .iter()
                .fold(entry, |link, stage| self.predicted(stage, link, None)),
            NodeKind::For { n, inner } => {
                let mut template = None;
                (0..*n).fold(entry, |link, _| {
                    self.predicted_again(&mut template, inner, link, None)
                })
            }
            NodeKind::While { inner, .. } => {
                let rounds = self.while_trues(node);
                self.while_rest(node, inner, rounds, entry)
            }
            NodeKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let cond = self.push_pending(node, MuscleRole::Condition, entry);
                let branch = self.pick_heavier_branch(then_branch, else_branch);
                self.predicted(branch, cond, None)
            }
            NodeKind::Map { inner, .. } => {
                let split = self.push_pending(node, MuscleRole::Split, entry);
                let fan = self.fan(node);
                self.predicted_fan(node, split, (0..fan).map(|_| (inner, None)))
            }
            NodeKind::Fork { inners, .. } => {
                let split = self.push_pending(node, MuscleRole::Split, entry);
                self.predicted_fan(node, split, inners.iter().map(|inner| (inner, None)))
            }
            NodeKind::DivideConquer { inner, .. } => {
                let depth_left = match dc_depth_left {
                    Some(left) => left,
                    None => self.dc_depth(node) - 1,
                };
                let cond = self.push_pending(node, MuscleRole::Condition, entry);
                if depth_left >= 1 {
                    self.dac_divide(node, cond, depth_left - 1)
                } else {
                    self.predicted(inner, cond, None)
                }
            }
        }
    }

    /// The not-yet-run half of a dividing `d&C` instance: split, `|fs|`
    /// recursive subtrees with `depth_left` levels below them, merge.
    fn dac_divide(&mut self, node: &Arc<Node>, entry: Link, depth_left: usize) -> Link {
        let split = self.push_pending(node, MuscleRole::Split, entry);
        let fan = self.fan(node);
        self.predicted_fan(node, split, (0..fan).map(|_| (node, Some(depth_left))))
    }

    /// Predicted children under `split`, then the predicted merge.
    fn predicted_fan<'n>(
        &mut self,
        node: &Node,
        split: Link,
        children: impl Iterator<Item = (&'n Arc<Node>, Option<usize>)>,
    ) -> Link {
        let base = self.scratch.exits.len();
        let mut template = None;
        for (child, dc_depth_left) in children {
            let exit = self.predicted_again(&mut template, child, split, dc_depth_left);
            self.scratch.exits.extend(exit);
        }
        // A predicted fan always has a child; a `fork` of no branches
        // would merge over nothing.
        self.push_merge(node, None, base, None)
    }

    /// [`predicted`](Self::predicted), by copy when `template` holds the
    /// same prediction from an earlier sibling.
    fn predicted_again(
        &mut self,
        template: &mut Option<Template>,
        node: &Arc<Node>,
        entry: Link,
        dc_depth_left: Option<usize>,
    ) -> Link {
        self.repeated(template, node, entry, |walk| {
            walk.predicted(node, entry, dc_depth_left)
        })
    }

    /// What `expand` appends, given that it depends on `entry` only as a
    /// predecessor and otherwise on `node` and the estimates alone: a
    /// copy of `template`'s block when that was made for `node`, else
    /// `expand`'s own output, kept as the template. One `template` serves
    /// one loop over siblings, within which whatever else `expand`
    /// depends on (a `d&C`'s depth budget) does not vary.
    fn repeated(
        &mut self,
        template: &mut Option<Template>,
        node: &Node,
        entry: Link,
        expand: impl FnOnce(&mut Self) -> Link,
    ) -> Link {
        // Without an entry the block's first activities have no
        // predecessor to re-point: such a block is neither copied nor
        // copied from.
        if let (Some(t), Some(_)) = (template.as_ref(), entry) {
            if t.node == node.id {
                return self.adg.append_within(t.block, entry);
            }
        }
        let first = self.adg.len() as u32;
        let exit = expand(self);
        if entry.is_some() {
            let len = self.adg.len() as u32 - first;
            *template = Some(Template {
                node: node.id,
                block: Block { first, len, exit },
            });
        }
        exit
    }

    /// Rough sequential-work comparison used to pick the `if` branch to
    /// predict while the verdict is unknown (conservative choice).
    fn pick_heavier_branch<'b>(
        &mut self,
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
    fn seq_work(&mut self, node: &Arc<Node>, depth_guard: usize) -> f64 {
        if depth_guard > 64 {
            return 0.0; // runaway recursion guard for degenerate estimates
        }
        let estimates = self.read(node);
        let d = |role: MuscleRole| estimates.dur[role as usize].0 as f64;
        match &node.kind {
            NodeKind::Seq { .. } => d(MuscleRole::Execute),
            NodeKind::Farm { inner } => self.seq_work(inner, depth_guard + 1),
            NodeKind::Pipe { stages } => stages
                .iter()
                .map(|s| self.seq_work(s, depth_guard + 1))
                .sum(),
            NodeKind::For { n, inner } => *n as f64 * self.seq_work(inner, depth_guard + 1),
            NodeKind::While { inner, .. } => {
                let iters = estimates.cond_card.unwrap_or(0.0).max(0.0);
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
                let fan = rounded(estimates.split_card, 1) as f64;
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
                let depth = rounded(estimates.cond_card, 1) as f64;
                let fan = rounded(estimates.split_card, 1) as f64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::{map, seq, Skel};

    fn nested_map() -> Skel<Vec<i64>, i64> {
        let inner = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0]),
            |p: Vec<i64>| p.into_iter().sum::<i64>(),
        );
        map(
            |v: Vec<i64>| vec![v.clone(), v],
            inner,
            |p: Vec<i64>| p.into_iter().sum::<i64>(),
        )
    }

    fn init_estimates(t: &mut SmTracker, skel: &Skel<Vec<i64>, i64>, card: f64) {
        let node = skel.node().clone();
        let est = t.estimates_mut();
        for m in node.collect_muscles() {
            let d = match m.id.role {
                MuscleRole::Split => TimeNs(10),
                MuscleRole::Execute => TimeNs(15),
                MuscleRole::Merge => TimeNs(5),
                MuscleRole::Condition => TimeNs(1),
            };
            est.init_duration(m.id, d);
            if m.id.role == MuscleRole::Split {
                est.init_cardinality(m.id, card);
            }
        }
    }

    #[test]
    fn predictive_nested_map_has_paper_shape() {
        // map(fs, map(fs, seq(fe), fm), fm) with |fs| = 3:
        // 1 split + 3×(split + 3×fe + merge) + 1 merge = 17 activities.
        let skel = nested_map();
        let mut tracker = SmTracker::new(0.5);
        init_estimates(&mut tracker, &skel, 3.0);
        let adg = AdgBuilder::new(&tracker).build_predictive(skel.node());
        assert_eq!(adg.len(), 1 + 3 * (1 + 3 + 1) + 1);
        let (done, running, pending) = adg.state_counts();
        assert_eq!((done, running), (0, 0));
        assert_eq!(pending, adg.len());
        // Topological invariant.
        for i in 0..adg.len() {
            assert!(adg.preds(i).all(|p| p < i));
        }
        // Final merge depends on the three inner merges.
        let last = adg.activities.last().unwrap();
        assert_eq!(last.muscle.role, MuscleRole::Merge);
        assert_eq!(adg.preds(adg.len() - 1).len(), 3);
    }

    #[test]
    fn empty_without_live_submission() {
        let skel = nested_map();
        let tracker = SmTracker::new(0.5);
        let adg = AdgBuilder::new(&tracker).build(skel.node());
        assert!(adg.is_empty());
    }

    #[test]
    fn cardinality_fallback_is_one() {
        // No estimates at all → every split predicts one child.
        let skel = nested_map();
        let tracker = SmTracker::new(0.5);
        let adg = AdgBuilder::new(&tracker).build_predictive(skel.node());
        // 1 split + 1×(1 split + 1 fe + 1 merge) + 1 merge = 5
        assert_eq!(adg.len(), 5);
    }

    #[test]
    fn refresh_agrees_with_covers() {
        let skel = nested_map();
        let mut tracker = SmTracker::new(0.5);
        let muscles = skel.node().collect_muscles();
        let mut workspace = AdgWorkspace::new(skel.node());
        assert!(!tracker.estimates().covers(&muscles));
        assert!(!workspace.refresh(tracker.estimates()));
        init_estimates(&mut tracker, &skel, 2.0);
        assert!(tracker.estimates().covers(&muscles));
        assert!(workspace.refresh(tracker.estimates()));
    }
}
