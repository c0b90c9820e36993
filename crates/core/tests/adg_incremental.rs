//! Differential test of the ADG builder: a workspace kept across a whole
//! event stream — finished instances' blocks cached, not-yet-started
//! siblings copied — must produce, after **every** event, the graph the
//! pre-rewrite builder derives from scratch, activity by activity.
//!
//! The streams are recorded from the simulator (`streams/mod.rs`), from
//! cold estimators, so the zero-duration / cardinality-1 fallbacks are
//! compared too. Every stream is replayed twice: whole, and with the
//! events of some instances lost — records that never begin or never end
//! leave predicted and running activities under finished parents, which
//! must then not be served from a cache.

use std::sync::Arc;

use askel_core::{Adg, AdgBuilder, AdgWorkspace, SmTracker};
use askel_events::{Event, EventRecord, When, Where};
use askel_skeletons::Node;

mod oracle;
mod streams;

use streams::{programs, record, with_losses};

fn assert_same(got: &Adg, want: &oracle::Adg, context: &str) {
    assert_eq!(got.len(), want.len(), "{context}");
    for (i, want) in want.activities.iter().enumerate() {
        let activity = &got.activities[i];
        assert_eq!(
            (activity.muscle, activity.state, activity.est),
            (want.muscle, want.state, want.est),
            "{context}: activity {i}"
        );
        assert!(
            got.preds(i).eq(want.preds.iter().copied()),
            "{context}: predecessors of activity {i}: {:?} vs {:?}",
            got.preds(i).collect::<Vec<_>>(),
            want.preds
        );
    }
}

/// Replays `events` into a tracker, building the graph three ways after
/// each; returns how many graphs were compared and whether any had
/// finished activities beside running ones.
fn replay(ast: &Arc<Node>, events: &[Event], context: &str) -> (usize, bool) {
    let mut tracker = SmTracker::new(0.5);
    let mut workspace = AdgWorkspace::new(ast);
    let mut mixed = false;
    for (at, event) in events.iter().map(EventRecord::from).enumerate() {
        // What the controller does when a submission begins.
        let submission_begins = event.is_root()
            && event.node == ast.id
            && (event.when, event.wher) == (When::Before, Where::Skeleton);
        if submission_begins {
            tracker.prune_finished();
            workspace.forget_finished();
        }
        tracker.observe(event);

        let scratch = oracle::AdgBuilder::new(&tracker).build(ast);
        let context = format!("{context}, event {at}: {event:?}");
        let incremental = workspace.build(&tracker);
        assert_same(incremental, &scratch, &context);
        // A workspace of its own, nothing cached, gives the same.
        assert_same(&AdgBuilder::new(&tracker).build(ast), &scratch, &context);
        let (done, running, _) = incremental.state_counts();
        mixed |= done > 1 && running > 0;
    }
    (events.len(), mixed)
}

#[test]
fn incremental_graph_equals_a_from_scratch_build_after_every_event() {
    let mut builds = 0usize;
    let mut mixed = false;
    for (name, program, inputs) in programs() {
        for (lp, seed) in [(1, 1), (2, 2), (3, 3), (4, 4), (8, 5)] {
            let events = record(&program, &inputs, lp, seed);
            let context = format!("{name}, lp {lp}, seed {seed}");
            let whole = replay(program.node(), &events, &context);
            let context = format!("{context}, lossy");
            let holed = replay(program.node(), &with_losses(&events, seed), &context);
            builds += whole.0 + holed.0;
            mixed |= whole.1;
        }
    }
    assert!(builds > 4_000, "only {builds} graphs compared");
    assert!(mixed, "no stream had finished blocks beside live ones");
}
