//! Pretty-printing of skeleton programs in the paper's grammar notation.
//!
//! [`structure`] renders an AST as the paper writes it — e.g. the running
//! example prints as `map(fs, map(fs, seq(fe), fm), fm)` — which makes a
//! [`Skel`](crate::Skel)'s `Debug` output immediately comparable with the
//! paper.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::node::{Node, NodeKind};

/// Renders the skeleton structure in grammar notation.
pub(crate) fn structure(node: &Arc<Node>) -> String {
    let mut out = String::new();
    write_node(&mut out, node);
    out
}

fn write_node(out: &mut String, node: &Arc<Node>) {
    match &node.kind {
        NodeKind::Seq { .. } => out.push_str("seq(fe)"),
        NodeKind::Farm { inner } => {
            out.push_str("farm(");
            write_node(out, inner);
            out.push(')');
        }
        NodeKind::Pipe { stages } => {
            out.push_str("pipe(");
            for (i, s) in stages.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_node(out, s);
            }
            out.push(')');
        }
        NodeKind::While { inner, .. } => {
            out.push_str("while(fc, ");
            write_node(out, inner);
            out.push(')');
        }
        NodeKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            out.push_str("if(fc, ");
            write_node(out, then_branch);
            out.push_str(", ");
            write_node(out, else_branch);
            out.push(')');
        }
        NodeKind::For { n, inner } => {
            let _ = write!(out, "for({n}, ");
            write_node(out, inner);
            out.push(')');
        }
        NodeKind::Map { inner, .. } => {
            out.push_str("map(fs, ");
            write_node(out, inner);
            out.push_str(", fm)");
        }
        NodeKind::Fork { inners, .. } => {
            out.push_str("fork(fs, {");
            for (i, s) in inners.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_node(out, s);
            }
            out.push_str("}, fm)");
        }
        NodeKind::DivideConquer { inner, .. } => {
            out.push_str("d&C(fc, fs, ");
            write_node(out, inner);
            out.push_str(", fm)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skel::{dac, fork, map, pipe, seq, sfor, sif, swhile};

    #[test]
    fn renders_the_papers_running_example() {
        let inner = map(
            |v: Vec<i64>| vec![v],
            seq(|v: Vec<i64>| v.len()),
            |c: Vec<usize>| c.into_iter().sum::<usize>(),
        );
        let program = map(
            |v: Vec<i64>| vec![v],
            inner,
            |c: Vec<usize>| c.into_iter().sum::<usize>(),
        );
        assert_eq!(
            structure(program.node()),
            "map(fs, map(fs, seq(fe), fm), fm)"
        );
    }

    #[test]
    fn renders_every_kind() {
        let s = pipe(
            sif(
                |x: &i64| *x > 0,
                swhile(|x: &i64| *x > 0, seq(|x: i64| x - 1)),
                sfor(2, seq(|x: i64| x + 1)),
            ),
            fork(
                |x: i64| vec![x, x],
                vec![
                    seq(|x: i64| x),
                    dac(
                        |x: &i64| *x > 1,
                        |x: i64| vec![x / 2, x - x / 2],
                        seq(|x: i64| x),
                        |v: Vec<i64>| v.into_iter().sum(),
                    ),
                ],
                |v: Vec<i64>| v[0] + v[1],
            ),
        );
        assert_eq!(
            structure(s.node()),
            "pipe(if(fc, while(fc, seq(fe)), for(2, seq(fe))), \
             fork(fs, {seq(fe), d&C(fc, fs, seq(fe), fm)}, fm))"
        );
    }
}
