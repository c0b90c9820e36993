//! Plain-text rendering of timeline series for the figure
//! benches: each bench prints the same rows the paper plots.

use askel_pool::TimelinePoint;
use askel_skeletons::TimeNs;

/// Renders a step function as `ms<TAB>value` rows (the paper's Figs. 5–7
//  axes: wall-clock time in ms vs number of active threads).
pub fn render_rows(points: &[TimelinePoint]) -> String {
    let mut out = String::new();
    for p in points {
        out.push_str(&format!("{:.0}\t{}\n", p.at.as_millis_f64(), p.active));
    }
    out
}

/// A fixed-width ASCII sketch of the series (handy in terminals).
pub fn render_ascii(points: &[TimelinePoint], end: TimeNs, width: usize, height: usize) -> String {
    if points.is_empty() || end == TimeNs::ZERO {
        return String::new();
    }
    let max_v = points.iter().map(|p| p.active).max().unwrap_or(1).max(1);
    let sample = |t: TimeNs| -> usize {
        let mut v = 0;
        for p in points {
            if p.at <= t {
                v = p.active;
            } else {
                break;
            }
        }
        v
    };
    let mut grid = vec![vec![' '; width]; height];
    for (x, cell) in (0..width).zip(0..width) {
        let t = TimeNs((end.0 as f64 * (cell as f64 + 0.5) / width as f64) as u64);
        let v = sample(t);
        let y = ((v as f64 / max_v as f64) * (height as f64 - 1.0)).round() as usize;
        for (row, line) in grid.iter_mut().enumerate() {
            let from_bottom = height - 1 - row;
            if from_bottom <= y && v > 0 {
                line[x] = if from_bottom == y { '▒' } else { '░' };
            }
        }
        let _ = x;
    }
    let mut out = String::new();
    for (row, line) in grid.iter().enumerate() {
        let from_bottom = height - 1 - row;
        let label = if from_bottom == height - 1 {
            format!("{max_v:>4} |")
        } else if from_bottom == 0 {
            "   0 |".to_string()
        } else {
            "     |".to_string()
        };
        out.push_str(&label);
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "      0{}{}ms\n",
        " ".repeat(width.saturating_sub(10)),
        end.as_millis_f64() as u64
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<TimelinePoint> {
        vec![
            TimelinePoint {
                at: TimeNs::ZERO,
                active: 0,
            },
            TimelinePoint {
                at: TimeNs::from_millis(10),
                active: 2,
            },
            TimelinePoint {
                at: TimeNs::from_millis(20),
                active: 0,
            },
        ]
    }

    #[test]
    fn rows_are_tab_separated() {
        let s = render_rows(&pts());
        assert_eq!(s, "0\t0\n10\t2\n20\t0\n");
    }

    #[test]
    fn ascii_has_requested_dimensions() {
        let art = render_ascii(&pts(), TimeNs::from_millis(20), 40, 5);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 6); // height + axis
        assert!(art.contains('▒'));
    }

    #[test]
    fn ascii_of_empty_series_is_empty() {
        assert_eq!(render_ascii(&[], TimeNs::ZERO, 10, 3), "");
    }
}
