//! The paper's evaluation program: hashtag / commented-user count as two
//! nested maps — `map(fs, map(fs, seq(fe), fm), fm)` (§5).
//!
//! * outer `fs` — splits the corpus into `outer_chunks` chunks (the paper
//!   reads the input file here, which is why its first split costs 6.4 s
//!   and "there is no need for more than one thread" during it);
//! * inner `fs` — splits a chunk into `inner_chunks` sub-chunks;
//! * `fe` — counts `#hashtags` and `@commented-users` into a hash map;
//! * `fm` — merges partial counts (both levels use the same function, and
//!   the paper's Listing 1 uses the same *muscle object*, which is what
//!   [`WordCountProgram::shared_muscle_aliases`] models).

use std::collections::HashMap;

use askel_skeletons::{map, seq, MuscleId, MuscleRole, NodeId, Skel};

/// Token → occurrences.
pub type Counts = HashMap<String, u64>;

/// Counts `#…` and `@…` tokens in the given tweets.
pub fn count_tokens(lines: &[String]) -> Counts {
    let mut counts = Counts::new();
    for line in lines {
        for token in line.split_whitespace() {
            if token.starts_with('#') || token.starts_with('@') {
                let token = token.trim_end_matches(|c: char| !c.is_alphanumeric());
                *counts.entry(token.to_string()).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Merges partial counts into a global count.
pub fn merge_counts(parts: Vec<Counts>) -> Counts {
    let mut it = parts.into_iter();
    let mut total = it.next().unwrap_or_default();
    for part in it {
        for (token, n) in part {
            *total.entry(token).or_insert(0) += n;
        }
    }
    total
}

/// Splits `lines` into at most `chunks` nearly-equal chunks.
pub(crate) fn chunk_lines(lines: Vec<String>, chunks: usize) -> Vec<Vec<String>> {
    let chunks = chunks.max(1);
    if lines.is_empty() {
        return vec![Vec::new()];
    }
    let per = lines.len().div_ceil(chunks);
    let mut out = Vec::with_capacity(chunks);
    let mut rest = lines;
    while !rest.is_empty() {
        let tail = rest.split_off(per.min(rest.len()));
        out.push(rest);
        rest = tail;
    }
    out
}

/// The paper's nested-map word count with its node identities exposed so
/// cost models and controllers can address individual muscles.
pub struct WordCountProgram {
    /// The skeleton: corpus in, global counts out.
    pub skel: Skel<Vec<String>, Counts>,
    /// Outer map node.
    pub outer: NodeId,
    /// Inner map node.
    pub inner: NodeId,
    /// `seq(fe)` leaf node.
    pub leaf: NodeId,
}

impl WordCountProgram {
    /// Builds the program: the outer split produces `outer_chunks` chunks,
    /// each inner split produces `inner_chunks` sub-chunks.
    pub fn new(outer_chunks: usize, inner_chunks: usize) -> Self {
        let leaf = seq(|lines: Vec<String>| count_tokens(&lines));
        let leaf_id = leaf.id();
        let inner = map(
            move |chunk: Vec<String>| chunk_lines(chunk, inner_chunks),
            leaf,
            merge_counts,
        );
        let inner_id = inner.id();
        let skel = map(
            move |corpus: Vec<String>| chunk_lines(corpus, outer_chunks),
            inner,
            merge_counts,
        );
        let outer_id = skel.id();
        WordCountProgram {
            skel,
            outer: outer_id,
            inner: inner_id,
            leaf: leaf_id,
        }
    }

    /// Muscle id helper.
    pub fn muscle(&self, node: NodeId, role: MuscleRole) -> MuscleId {
        MuscleId::new(node, role)
    }

    /// The shared-muscle aliases of the paper's Listing 1: the inner map
    /// uses the *same* `fs` and `fm` objects as the outer map, so their
    /// estimators are shared (`inner → outer` as canonical).
    pub fn shared_muscle_aliases(&self) -> Vec<(MuscleId, MuscleId)> {
        vec![
            (
                MuscleId::new(self.inner, MuscleRole::Split),
                MuscleId::new(self.outer, MuscleRole::Split),
            ),
            (
                MuscleId::new(self.inner, MuscleRole::Merge),
                MuscleId::new(self.outer, MuscleRole::Merge),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tweets::{generate_corpus, TweetGenConfig};

    #[test]
    fn counts_hashtags_and_mentions_only() {
        let lines = vec![
            "hola #tema1 mundo @usuario5".to_string(),
            "#tema1 otra vez #tema2".to_string(),
            "sin tokens aqui".to_string(),
        ];
        let c = count_tokens(&lines);
        assert_eq!(c.get("#tema1"), Some(&2));
        assert_eq!(c.get("#tema2"), Some(&1));
        assert_eq!(c.get("@usuario5"), Some(&1));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn punctuation_is_trimmed() {
        let lines = vec!["fin #tema1, y #tema1!".to_string()];
        let c = count_tokens(&lines);
        assert_eq!(c.get("#tema1"), Some(&2));
    }

    #[test]
    fn merge_accumulates() {
        let a = Counts::from([("#a".into(), 2u64)]);
        let b = Counts::from([("#a".into(), 3u64), ("#b".into(), 1u64)]);
        let m = merge_counts(vec![a, b]);
        assert_eq!(m.get("#a"), Some(&5));
        assert_eq!(m.get("#b"), Some(&1));
        assert!(merge_counts(vec![]).is_empty());
    }

    #[test]
    fn chunking_covers_everything_in_order() {
        let lines: Vec<String> = (0..10).map(|i| i.to_string()).collect();
        let chunks = chunk_lines(lines.clone(), 3);
        assert_eq!(chunks.len(), 3);
        let flat: Vec<String> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, lines);
        // More chunks than lines: each chunk ≥ 1 line.
        let chunks = chunk_lines(lines.clone(), 100);
        assert_eq!(chunks.len(), 10);
        // Empty corpus: a single empty chunk keeps the skeleton total.
        assert_eq!(chunk_lines(vec![], 4), vec![Vec::<String>::new()]);
    }

    #[test]
    fn program_counts_like_the_flat_function() {
        let corpus = generate_corpus(&TweetGenConfig::with_tweets(300));
        let program = WordCountProgram::new(5, 7);
        let direct = count_tokens(&corpus);
        let via_skeleton = program.skel.apply(corpus);
        assert_eq!(via_skeleton, direct);
    }

    #[test]
    fn aliases_point_inner_to_outer() {
        let p = WordCountProgram::new(5, 7);
        let aliases = p.shared_muscle_aliases();
        assert_eq!(aliases.len(), 2);
        for (m, canon) in aliases {
            assert_eq!(m.node, p.inner);
            assert_eq!(canon.node, p.outer);
            assert_eq!(m.role, canon.role);
        }
    }
}
