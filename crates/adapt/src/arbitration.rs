//! Multi-concern arbitration: turning *all* the rule fires of one safe
//! point into one coherent reconfiguration.
//!
//! The paper's MAPE loop assumes the Plan step produces a single
//! consistent change per safe point, but independent point rules — a
//! width rule and a cost guard wanting the same [`Knob`](crate::Knob),
//! two promotions overlapping on one subtree — can disagree.
//! Multi-concern autonomic work (Aldinucci/Danelutto/Kilpatrick's
//! per-concern managers; Dearle/Kirby/McCarthy's single re-solved
//! objective) coordinates explicitly instead of letting registration
//! order decide. This module is that coordination step, run by the
//! [`Reconfigurator`](crate::Reconfigurator) between
//! [`TriggerEngine::plan`](crate::TriggerEngine::plan) and application:
//!
//! 1. **Group** the safe point's fires into conflict groups: two fires
//!    conflict when they touch the same resource — `SetKnob`s whose
//!    knobs share state ([`Knob::shares_state`](crate::Knob::shares_state)),
//!    or tree actions (`Replace`/`Place`) whose targets are equal or
//!    nested within one another in the current tree. Knob actions never
//!    conflict with tree actions.
//! 2. **Pick a winner** per group under the configured
//!    [`ConflictPolicy`].
//! 3. Report losers as suppressed (the `Reconfigurator` logs them as
//!    suppressed `AdaptRecord`s and re-arms their rules) and vetoes that
//!    opposed nothing as idle (dropped silently).
//!
//! Arbitration is a **pure, deterministic** function of the fires, the
//! policy and the current tree: permuting rule registration order never
//! changes the winning set (property-tested in
//! `crates/adapt/tests/adapt_props.rs`).

use std::cmp::Ordering;
use std::sync::Arc;

use askel_skeletons::Node;

use crate::rules::RewriteAction;
use crate::trigger::PlannedRewrite;

/// How a conflict group is resolved. Every policy falls back to the same
/// deterministic total order for ties: priority (higher first), then
/// concern rank (`Reliability > Cost > Performance`), then rule name,
/// then the action's rendering — never registration order.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ConflictPolicy {
    /// The highest-ranked fire wins its group; everything else in the
    /// group is suppressed. A veto that ranks first blocks the whole
    /// group (nothing applies); a veto outranked by an action loses like
    /// any other fire. The default.
    #[default]
    PriorityWins,
    /// Any veto in a group blocks the group regardless of rank — the
    /// conservative policy: a cost or reliability objection always
    /// holds. Groups without a veto resolve as under
    /// [`PriorityWins`](ConflictPolicy::PriorityWins).
    Veto,
    /// Each fire is scored `weight(concern) × (baseline − predicted)`
    /// seconds from its [`Forecast`](crate::Forecast) (0 without one;
    /// vetoes score 0 — "do nothing" has no predicted gain), and the
    /// highest score wins; ties fall back to the deterministic order.
    /// An unforecast action therefore cannot beat a veto on score alone
    /// — it needs rank.
    WeightedObjective {
        /// Weight applied to `Concern::Performance` gains.
        performance: f64,
        /// Weight applied to `Concern::Cost` gains.
        cost: f64,
        /// Weight applied to `Concern::Reliability` gains.
        reliability: f64,
    },
}

/// A fire arbitration rejected, and who beat it.
pub struct Suppressed {
    /// The losing fire.
    pub plan: PlannedRewrite,
    /// Name of the rule whose fire won (or vetoed) the group.
    pub by: String,
}

/// The result of arbitrating one safe point's fires.
pub struct ArbitrationOutcome {
    /// The winning set, in the order the fires were collected — at most
    /// one action per contested resource, ready to apply.
    pub winners: Vec<PlannedRewrite>,
    /// Losing fires, for the suppressed-decision audit; their rules
    /// should be re-armed.
    pub suppressed: Vec<Suppressed>,
    /// Vetoes that conflicted with nothing this safe point. Dropped
    /// without a log entry — a standing objection is not a decision.
    pub idle_vetoes: Vec<PlannedRewrite>,
}

/// Do two actions contend for the same resource, given the current tree?
///
/// * Two `SetKnob`s conflict when their knobs share state.
/// * Two tree actions (`Replace`/`Place`) conflict when their targets
///   are equal, or one target's subtree contains the other's target in
///   `root` (an outer replacement would tear out the inner one's
///   anchor).
/// * A knob action never conflicts with a tree action.
pub(crate) fn conflicts(a: &RewriteAction, b: &RewriteAction, root: &Arc<Node>) -> bool {
    use RewriteAction::SetKnob;
    match (a, b) {
        (SetKnob { knob: ka, .. }, SetKnob { knob: kb, .. }) => ka.shares_state(kb),
        _ => match (a.target(), b.target()) {
            (Some(ta), Some(tb)) => {
                if ta == tb {
                    return true;
                }
                let contains = |outer, inner| {
                    root.find(outer)
                        .is_some_and(|sub| sub.find(inner).is_some())
                };
                contains(ta, tb) || contains(tb, ta)
            }
            _ => false,
        },
    }
}

/// The deterministic total order every policy tie-breaks with: priority
/// desc, concern rank desc, rule name asc, action rendering asc.
fn rank_cmp(a: &PlannedRewrite, b: &PlannedRewrite) -> Ordering {
    b.priority
        .cmp(&a.priority)
        .then_with(|| b.concern.cmp(&a.concern))
        .then_with(|| a.rule.cmp(&b.rule))
        .then_with(|| format!("{:?}", a.action).cmp(&format!("{:?}", b.action)))
}

fn objective_score(plan: &PlannedRewrite, policy: &ConflictPolicy) -> f64 {
    let ConflictPolicy::WeightedObjective {
        performance,
        cost,
        reliability,
    } = policy
    else {
        return 0.0;
    };
    if plan.veto {
        return 0.0;
    }
    let gain = plan
        .forecast
        .map(|f| f.baseline.as_secs_f64() - f.predicted.as_secs_f64())
        .unwrap_or(0.0);
    let weight = match plan.concern {
        crate::Concern::Performance => *performance,
        crate::Concern::Cost => *cost,
        crate::Concern::Reliability => *reliability,
    };
    weight * gain
}

/// Arbitrates one safe point's fires: groups conflicting actions against
/// the current tree `root`, resolves each group under `policy`, and
/// splits the fires into winners, suppressed losers and idle vetoes. A
/// pure function — no logging, no re-arming; the
/// [`Reconfigurator`](crate::Reconfigurator) handles the bookkeeping.
pub fn arbitrate(
    plans: Vec<PlannedRewrite>,
    policy: &ConflictPolicy,
    root: &Arc<Node>,
) -> ArbitrationOutcome {
    let n = plans.len();
    // Union-find over the fires: every pairwise conflict merges groups,
    // so transitively-overlapping actions (A∩B, B∩C) arbitrate as one.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut i = i;
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if conflicts(&plans[i].action, &plans[j].action, root) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let r = find(&mut parent, i);
        groups[r].push(i);
    }

    let mut winner_idx: Vec<usize> = Vec::new();
    let mut suppressed_idx: Vec<(usize, String)> = Vec::new();
    let mut idle_idx: Vec<usize> = Vec::new();
    for group in groups.into_iter().filter(|g| !g.is_empty()) {
        if group.iter().all(|&i| plans[i].veto) {
            // Nothing to oppose: vetoes without a contested action are
            // idle, however many agree with each other.
            idle_idx.extend(group);
            continue;
        }
        if group.len() == 1 {
            winner_idx.push(group[0]);
            continue;
        }
        let mut order = group.clone();
        match policy {
            ConflictPolicy::PriorityWins => {
                order.sort_by(|&a, &b| rank_cmp(&plans[a], &plans[b]));
            }
            ConflictPolicy::Veto => {
                // Vetoes first (any veto blocks), then the usual order.
                order.sort_by(|&a, &b| {
                    plans[b]
                        .veto
                        .cmp(&plans[a].veto)
                        .then_with(|| rank_cmp(&plans[a], &plans[b]))
                });
            }
            ConflictPolicy::WeightedObjective { .. } => {
                order.sort_by(|&a, &b| {
                    objective_score(&plans[b], policy)
                        .total_cmp(&objective_score(&plans[a], policy))
                        .then_with(|| rank_cmp(&plans[a], &plans[b]))
                });
            }
        }
        let head = order[0];
        let by = plans[head].rule.clone();
        if plans[head].veto {
            // The group is blocked: every action in it is suppressed by
            // the veto, and the veto itself (plus any fellow vetoes)
            // performed its job without becoming an action — idle.
            for &i in &order {
                if plans[i].veto {
                    idle_idx.push(i);
                } else {
                    suppressed_idx.push((i, by.clone()));
                }
            }
        } else {
            winner_idx.push(head);
            for &i in &order[1..] {
                if plans[i].veto {
                    idle_idx.push(i);
                } else {
                    suppressed_idx.push((i, by.clone()));
                }
            }
        }
    }

    // Winners apply in collection order (stable across policies).
    winner_idx.sort_unstable();
    suppressed_idx.sort_by_key(|&(i, _)| i);
    idle_idx.sort_unstable();

    let mut slots: Vec<Option<PlannedRewrite>> = plans.into_iter().map(Some).collect();
    let mut take = |i: usize| slots[i].take().expect("each fire lands in exactly one bin");
    ArbitrationOutcome {
        winners: winner_idx.iter().map(|&i| take(i)).collect(),
        suppressed: suppressed_idx
            .iter()
            .map(|(i, by)| Suppressed {
                plan: take(*i),
                by: by.clone(),
            })
            .collect(),
        idle_vetoes: idle_idx.iter().map(|&i| take(i)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Concern, Knob};
    use askel_skeletons::{seq, NodeId, Skel};

    fn plan(
        rule: &str,
        action: RewriteAction,
        concern: Concern,
        priority: i32,
        veto: bool,
    ) -> PlannedRewrite {
        PlannedRewrite {
            rule: rule.to_string(),
            rule_index: 0,
            action,
            why: String::new(),
            forecast: None,
            concern,
            priority,
            veto,
        }
    }

    fn set(
        rule: &str,
        knob: &Knob,
        value: usize,
        concern: Concern,
        priority: i32,
    ) -> PlannedRewrite {
        plan(
            rule,
            RewriteAction::SetKnob {
                knob: knob.clone(),
                value,
            },
            concern,
            priority,
            false,
        )
    }

    #[test]
    fn same_knob_conflicts_distinct_knobs_do_not() {
        let probe: Skel<i64, i64> = seq(|x: i64| x);
        let root = Arc::clone(probe.node());
        let k = Knob::new("w", 4);
        let alias = Knob::from_shared("w-alias", Arc::new(std::sync::atomic::AtomicUsize::new(4)));
        let a = RewriteAction::SetKnob {
            knob: k.clone(),
            value: 8,
        };
        let b = RewriteAction::SetKnob {
            knob: k.clone(),
            value: 2,
        };
        let c = RewriteAction::SetKnob {
            knob: alias,
            value: 2,
        };
        assert!(conflicts(&a, &b, &root));
        assert!(!conflicts(&a, &c, &root), "distinct state, no conflict");
    }

    #[test]
    fn nested_tree_targets_conflict() {
        use askel_skeletons::map;
        let inner: Skel<Vec<i64>, i64> = seq(|v: Vec<i64>| v[0]);
        let outer: Skel<Vec<i64>, i64> = map(
            |v: Vec<i64>| vec![v],
            inner.clone(),
            |p: Vec<i64>| p.into_iter().sum(),
        );
        let root = Arc::clone(outer.node());
        let repl = Arc::clone(seq(|v: Vec<i64>| v[0]).node());
        let on_outer = RewriteAction::Replace {
            target: outer.id(),
            replacement: Arc::clone(&repl),
        };
        let on_inner = RewriteAction::Place {
            target: inner.id(),
            node: "hub".into(),
        };
        assert!(conflicts(&on_outer, &on_inner, &root));
        let elsewhere = RewriteAction::Place {
            target: NodeId(u64::MAX),
            node: "hub".into(),
        };
        assert!(!conflicts(&on_inner, &elsewhere, &root));
    }

    #[test]
    fn priority_wins_then_concern_rank_then_name() {
        let probe: Skel<i64, i64> = seq(|x: i64| x);
        let root = Arc::clone(probe.node());
        let k = Knob::new("w", 4);
        // Equal priority: reliability outranks performance.
        let out = arbitrate(
            vec![
                set("widen", &k, 8, Concern::Performance, 0),
                set("safety", &k, 1, Concern::Reliability, 0),
            ],
            &ConflictPolicy::PriorityWins,
            &root,
        );
        assert_eq!(out.winners.len(), 1);
        assert_eq!(out.winners[0].rule, "safety");
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].plan.rule, "widen");
        assert_eq!(out.suppressed[0].by, "safety");
        // Priority trumps concern rank.
        let out = arbitrate(
            vec![
                set("widen", &k, 8, Concern::Performance, 5),
                set("safety", &k, 1, Concern::Reliability, 0),
            ],
            &ConflictPolicy::PriorityWins,
            &root,
        );
        assert_eq!(out.winners[0].rule, "widen");
        // All equal: lexicographic rule name.
        let out = arbitrate(
            vec![
                set("beta", &k, 8, Concern::Performance, 0),
                set("alpha", &k, 2, Concern::Performance, 0),
            ],
            &ConflictPolicy::PriorityWins,
            &root,
        );
        assert_eq!(out.winners[0].rule, "alpha");
    }

    #[test]
    fn veto_policy_blocks_group_regardless_of_rank() {
        let probe: Skel<i64, i64> = seq(|x: i64| x);
        let root = Arc::clone(probe.node());
        let k = Knob::new("w", 4);
        let hold = plan(
            "cost-guard",
            RewriteAction::SetKnob {
                knob: k.clone(),
                value: 4,
            },
            Concern::Cost,
            -10,
            true,
        );
        let out = arbitrate(
            vec![set("widen", &k, 8, Concern::Performance, 99), hold],
            &ConflictPolicy::Veto,
            &root,
        );
        assert!(out.winners.is_empty(), "veto blocks even priority 99");
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].by, "cost-guard");
        assert_eq!(out.idle_vetoes.len(), 1, "the veto itself applies nothing");
    }

    #[test]
    fn idle_veto_is_dropped_silently() {
        let probe: Skel<i64, i64> = seq(|x: i64| x);
        let root = Arc::clone(probe.node());
        let k = Knob::new("w", 4);
        let k2 = Knob::new("other", 1);
        let hold = plan(
            "cost-guard",
            RewriteAction::SetKnob {
                knob: k.clone(),
                value: 4,
            },
            Concern::Cost,
            0,
            true,
        );
        let out = arbitrate(
            vec![hold, set("other", &k2, 3, Concern::Performance, 0)],
            &ConflictPolicy::Veto,
            &root,
        );
        assert_eq!(out.winners.len(), 1, "unrelated action unaffected");
        assert_eq!(out.winners[0].rule, "other");
        assert!(out.suppressed.is_empty());
        assert_eq!(out.idle_vetoes.len(), 1);
    }

    #[test]
    fn weighted_objective_prefers_the_bigger_weighted_gain() {
        use crate::forecast::Forecast;
        use askel_skeletons::TimeNs;
        let probe: Skel<i64, i64> = seq(|x: i64| x);
        let root = Arc::clone(probe.node());
        let k = Knob::new("w", 4);
        let mut fast = set("widen", &k, 8, Concern::Performance, 0);
        fast.forecast = Some(Forecast {
            predicted: TimeNs::from_secs(2),
            baseline: TimeNs::from_secs(10),
            realized: None,
        });
        let mut cheap = set("shrink", &k, 1, Concern::Cost, 0);
        cheap.forecast = Some(Forecast {
            predicted: TimeNs::from_secs(9),
            baseline: TimeNs::from_secs(10),
            realized: None,
        });
        // Performance gain 8s × 1.0 = 8 > cost gain 1s × 2.0 = 2.
        let perf_heavy = ConflictPolicy::WeightedObjective {
            performance: 1.0,
            cost: 2.0,
            reliability: 1.0,
        };
        let out = arbitrate(vec![fast.clone(), cheap.clone()], &perf_heavy, &root);
        assert_eq!(out.winners[0].rule, "widen");
        // Cost weighted 10×: 1s × 10 = 10 > 8.
        let cost_heavy = ConflictPolicy::WeightedObjective {
            performance: 1.0,
            cost: 10.0,
            reliability: 1.0,
        };
        let out = arbitrate(vec![fast, cheap], &cost_heavy, &root);
        assert_eq!(out.winners[0].rule, "shrink");
    }
}
