//! The adaptive word-count scenario: the paper's evaluation program recast
//! as a *self-configuring* stream workload.
//!
//! A stream of tweet corpora flows through `pipe(filter, count)`:
//!
//! * the **filter** stage validates a corpus. The initial, fast
//!   implementation (`fragile_filter`) panics on corrupt records (lines
//!   containing [`POISON`]); its fallback (`robust_filter`) drops them
//!   instead — the structural *fallback-swap* target.
//! * the **count** stage tallies `#hashtags` and `@mentions`. The initial
//!   implementation (`seq_count`) is a sequential leaf; its promotion
//!   (`par_count`) is a `map` whose chunk width reads a shared counter a
//!   width-retuning rule can drive — the *seq → map promotion* target.
//!
//! On clean input every combination computes identical counts (the map
//!   merge is associative), so structural adaptation never changes results
//! — only failure behaviour and parallel shape.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use askel_skeletons::{map, pipe, seq, Skel};

use crate::wordcount::{chunk_lines, count_tokens, merge_counts, Counts};

/// Marker token that makes the fragile filter stage panic — a stand-in for the
/// corrupt records real ingestion pipelines hit.
pub const POISON: &str = "#corrupt";

/// The fast-but-fragile validation stage: passes a corpus through
/// unchanged, panicking on the first poisoned line.
fn fragile_filter() -> Skel<Vec<String>, Vec<String>> {
    seq(|lines: Vec<String>| {
        if let Some(bad) = lines.iter().find(|l| l.contains(POISON)) {
            panic!("corrupt record: {bad}");
        }
        lines
    })
    .labeled("filter-fragile")
}

/// The fallback validation stage: silently drops poisoned lines. On clean
/// input it is byte-for-byte the identity, like [`fragile_filter`].
fn robust_filter() -> Skel<Vec<String>, Vec<String>> {
    seq(|lines: Vec<String>| {
        lines
            .into_iter()
            .filter(|l| !l.contains(POISON))
            .collect::<Vec<String>>()
    })
    .labeled("filter-robust")
}

/// The sequential count stage (the promotion target).
fn seq_count() -> Skel<Vec<String>, Counts> {
    seq(|lines: Vec<String>| count_tokens(&lines)).labeled("count-seq")
}

/// The promoted count stage: `map(fs, seq(fe), fm)` whose split produces
/// `width` chunks (read per execution, so a width-retuning rule can drive
/// it between items). Computes the same counts as [`seq_count`] on every
/// input.
fn par_count(width: Arc<AtomicUsize>) -> Skel<Vec<String>, Counts> {
    map(
        move |lines: Vec<String>| chunk_lines(lines, width.load(Ordering::SeqCst).max(1)),
        seq(|chunk: Vec<String>| count_tokens(&chunk)),
        merge_counts,
    )
    .labeled("count-par")
}

/// The full scenario: the initial program plus the replacement subtrees a
/// self-configuration rule set swaps in.
pub struct AdaptiveWordCount {
    /// `pipe(fragile_filter, seq_count)` — the program as deployed.
    pub program: Skel<Vec<String>, Counts>,
    /// The filter stage inside `program` (fallback-swap target).
    pub filter: Skel<Vec<String>, Vec<String>>,
    /// The robust replacement for `filter`.
    pub robust: Skel<Vec<String>, Vec<String>>,
    /// The count stage inside `program` (promotion target).
    pub count: Skel<Vec<String>, Counts>,
    /// The data-parallel replacement for `count`.
    pub parallel: Skel<Vec<String>, Counts>,
    /// The chunk width `parallel`'s split reads per execution.
    pub width: Arc<AtomicUsize>,
}

impl AdaptiveWordCount {
    /// Builds the scenario with the parallel count splitting into
    /// `initial_width` chunks until a rule retunes it.
    pub fn new(initial_width: usize) -> Self {
        let width = Arc::new(AtomicUsize::new(initial_width.max(1)));
        let filter = fragile_filter();
        let robust = robust_filter();
        let count = seq_count();
        let parallel = par_count(Arc::clone(&width));
        let program = pipe(filter.clone(), count.clone()).labeled("adaptive-wordcount");
        AdaptiveWordCount {
            program,
            filter,
            robust,
            count,
            parallel,
            width,
        }
    }

    /// The reference result for a corpus: what every structural variant
    /// computes on input that passes (or has been stripped by) the filter.
    pub fn reference(&self, corpus: &[String]) -> Counts {
        let clean: Vec<String> = corpus
            .iter()
            .filter(|l| !l.contains(POISON))
            .cloned()
            .collect();
        count_tokens(&clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tweets::{generate_corpus, TweetGenConfig};

    fn corpus(n: usize) -> Vec<String> {
        generate_corpus(&TweetGenConfig::with_tweets(n))
    }

    #[test]
    fn all_variants_agree_on_clean_input() {
        let wc = AdaptiveWordCount::new(3);
        let input = corpus(120);
        let reference = wc.reference(&input);
        assert_eq!(wc.program.apply(input.clone()), reference);
        assert_eq!(wc.count.apply(input.clone()), reference);
        assert_eq!(wc.parallel.apply(input.clone()), reference);
        assert_eq!(wc.robust.apply(input.clone()), input);
    }

    #[test]
    fn width_changes_do_not_change_counts() {
        let wc = AdaptiveWordCount::new(1);
        let input = corpus(60);
        let reference = wc.reference(&input);
        for width in [1, 2, 7, 64] {
            wc.width.store(width, Ordering::SeqCst);
            assert_eq!(wc.parallel.apply(input.clone()), reference);
        }
    }

    #[test]
    #[should_panic(expected = "corrupt record")]
    fn fragile_filter_panics_on_poison() {
        let mut input = corpus(5);
        input.push(format!("una linea {POISON} mala"));
        fragile_filter().apply(input);
    }

    #[test]
    fn robust_filter_drops_poison_and_reference_matches() {
        let wc = AdaptiveWordCount::new(2);
        let mut input = corpus(20);
        input.push(format!("hola {POISON} #tema1"));
        let filtered = wc.robust.apply(input.clone());
        assert_eq!(filtered.len(), input.len() - 1);
        // The robust program end-to-end equals the reference.
        let robust_program = pipe(wc.robust.clone(), wc.count.clone());
        assert_eq!(robust_program.apply(input.clone()), wc.reference(&input));
    }
}
