//! Subtree replacement: promotion and fallback swap, one rule.

use std::sync::Arc;

use askel_events::Reads;
use askel_skeletons::{Node, NodeId, Skel};

use super::{Concern, Governed, RewriteAction, Rule, RuleCtx, RuleFire, Trigger};

/// Replaces a subtree with a structurally different implementation — the
/// seq → map/farm promotion of behavioural-skeleton work, or a fallback
/// after errors ([`FallbackSwap`]). It proposes while its target is in
/// the tree; its triggers decide when it fires, at most once (a
/// promotion with no trigger never fires). Forecast-gated, it fires only
/// when the forecast under the rewritten tree beats the current one
/// ([`Rule::forecast`]'s default).
pub struct Promote {
    target: NodeId,
    replacement: Arc<Node>,
}

impl Promote {
    /// A promotion of `target` into `replacement`. Both are typed
    /// `Skel<P, R>`, so the swap cannot change the subtree's signature.
    /// Add firing conditions with [`Governed::when`].
    pub fn new<P, R>(target: &Skel<P, R>, replacement: &Skel<P, R>) -> Governed<Self>
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        let rule = Promote {
            target: target.id(),
            replacement: Arc::clone(replacement.node()),
        };
        let mut promote = Governed::new("promote", Concern::Performance, rule);
        promote.once = true;
        promote
    }
}

/// Structural fault recovery: a [`Promote`] of a subtree into its
/// fallback, fired by a streak of item errors, for the reliability
/// concern.
pub enum FallbackSwap {}

impl FallbackSwap {
    /// Swap `target` for `fallback` once `after_errors` consecutive items
    /// have failed (`after_errors` is clamped to ≥ 1).
    #[allow(clippy::new_ret_no_self)] // the rule it builds is a `Promote`
    pub fn new<P, R>(
        target: &Skel<P, R>,
        fallback: &Skel<P, R>,
        after_errors: usize,
    ) -> Governed<Promote>
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        let mut swap = Promote::new(target, fallback)
            .named("fallback-swap")
            .when(Trigger::ErrorStreakAtLeast(after_errors.max(1)));
        swap.concern = Concern::Reliability;
        swap
    }
}

impl Rule for Promote {
    /// Only its triggers (and a forecast gate) read estimates.
    fn reads(&self) -> Reads {
        Reads::NOTHING
    }

    fn evaluate(&mut self, ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        // The target may have been rewritten away by an earlier rule.
        ctx.root.find(self.target)?;
        let action = RewriteAction::Replace {
            target: self.target,
            replacement: Arc::clone(&self.replacement),
        };
        Some(RuleFire::new(action, ""))
    }
}
