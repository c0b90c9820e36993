//! Rendering of ADGs and schedules: a Fig.-1-style ASCII Gantt chart and
//! Graphviz DOT output for the dependency structure.

use askel_skeletons::TimeNs;

use crate::adg::{ActState, Adg};
use crate::strategy::Schedule;

/// Renders the ADG's dependency structure as a Graphviz digraph.
///
/// Done activities are grey, running ones orange, pending ones white; the
/// label carries the muscle and (when a schedule is given) its interval.
pub fn to_dot(adg: &Adg, schedule: Option<&Schedule>) -> String {
    let mut out = String::from("digraph adg {\n  rankdir=LR;\n  node [shape=box, style=filled];\n");
    for (i, a) in adg.activities.iter().enumerate() {
        let color = match a.state {
            ActState::Done { .. } => "lightgrey",
            ActState::Running { .. } => "orange",
            ActState::Pending => "white",
        };
        let label = match schedule {
            Some(s) => format!(
                "{} [{:.0},{:.0}]",
                a.muscle,
                s.spans[i].0.as_secs_f64(),
                s.spans[i].1.as_secs_f64()
            ),
            None => a.muscle.to_string(),
        };
        out.push_str(&format!("  a{i} [label=\"{label}\", fillcolor={color}];\n"));
    }
    for i in 0..adg.len() {
        for p in adg.preds(i) {
            out.push_str(&format!("  a{p} -> a{i};\n"));
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a schedule as an ASCII Gantt chart — one row per activity, like
/// the paper's Fig. 1 (▓ done, ▒ running, ░ pending/estimated).
pub fn gantt_ascii(adg: &Adg, schedule: &Schedule, width: usize) -> String {
    let width = width.max(10);
    let horizon = schedule.finish.max(TimeNs(1));
    let col_of = |t: TimeNs| -> usize {
        ((t.0 as u128 * width as u128) / horizon.0 as u128).min(width as u128 - 1) as usize
    };
    let mut out = String::new();
    out.push_str(&format!(
        "time 0 .. {:.1}s, one column ≈ {:.2}s\n",
        horizon.as_secs_f64(),
        horizon.as_secs_f64() / width as f64
    ));
    for (i, a) in adg.activities.iter().enumerate() {
        let (start, end) = schedule.spans[i];
        let (c0, c1) = (col_of(start), col_of(end.max(start)));
        let glyph = match a.state {
            ActState::Done { .. } => '▓',
            ActState::Running { .. } => '▒',
            ActState::Pending => '░',
        };
        let mut row: Vec<char> = vec![' '; width];
        for cell in row.iter_mut().take(c1 + 1).skip(c0) {
            *cell = glyph;
        }
        // Zero-length spans still get one marker.
        if end <= start {
            row[c0] = '·';
        }
        out.push_str(&format!(
            "{:>3} {:<9}|{}|\n",
            i,
            a.muscle.to_string(),
            row.into_iter().collect::<String>()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::{MuscleId, MuscleRole, NodeId};

    fn small_adg() -> Adg {
        let mut adg = Adg::default();
        adg.push(
            MuscleId::new(NodeId(1), MuscleRole::Split),
            ActState::Done {
                start: TimeNs::ZERO,
                end: TimeNs::from_secs(10),
            },
            TimeNs::from_secs(10),
            &[],
        );
        adg.push(
            MuscleId::new(NodeId(2), MuscleRole::Execute),
            ActState::Running {
                start: TimeNs::from_secs(10),
            },
            TimeNs::from_secs(15),
            &[0],
        );
        adg.push(
            MuscleId::new(NodeId(1), MuscleRole::Merge),
            ActState::Pending,
            TimeNs::from_secs(5),
            &[1],
        );
        adg
    }

    #[test]
    fn dot_contains_every_activity_and_edge() {
        let adg = small_adg();
        let dot = to_dot(&adg, None);
        assert!(dot.starts_with("digraph adg {"));
        for i in 0..3 {
            assert!(dot.contains(&format!("a{i} [label=")), "missing node {i}");
        }
        assert!(dot.contains("a0 -> a1;"));
        assert!(dot.contains("a1 -> a2;"));
        assert!(dot.contains("lightgrey"));
        assert!(dot.contains("orange"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn dot_with_schedule_includes_intervals() {
        let adg = small_adg();
        let sched = crate::strategy::best_effort(&adg, TimeNs::from_secs(12));
        let dot = to_dot(&adg, Some(&sched));
        assert!(dot.contains("[0,10]"), "{dot}");
        assert!(dot.contains("[10,25]"), "{dot}");
    }

    #[test]
    fn gantt_has_one_row_per_activity() {
        let adg = small_adg();
        let sched = crate::strategy::best_effort(&adg, TimeNs::from_secs(12));
        let art = gantt_ascii(&adg, &sched, 40);
        let rows: Vec<&str> = art.lines().collect();
        assert_eq!(rows.len(), 4); // header + 3 activities
        assert!(art.contains('▓'));
        assert!(art.contains('▒'));
        assert!(art.contains('░'));
    }

    #[test]
    fn gantt_marks_zero_length_spans() {
        let mut adg = Adg::default();
        adg.push(
            MuscleId::new(NodeId(1), MuscleRole::Execute),
            ActState::Pending,
            TimeNs::ZERO,
            &[],
        );
        let sched = crate::strategy::best_effort(&adg, TimeNs::ZERO);
        // Horizon is clamped to 1ns; the zero-length activity renders as ·
        let art = gantt_ascii(&adg, &sched, 20);
        assert!(art.contains('·'));
    }
}
