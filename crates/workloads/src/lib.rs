//! Deterministic workloads for evaluating autonomic skeletons.
//!
//! The paper's evaluation (§5) counts hashtags and commented-users over
//! 1.2 million Colombian tweets (July 25 – August 5, 2013). That corpus is
//! no longer available (the Google Drive link is dead), so [`tweets`]
//! generates a synthetic corpus with the same *cost structure*: a stream
//! of short texts with Zipf-distributed hashtags and @-mentions, fully
//! determined by a seed. [`wordcount`] provides the paper's program —
//! `map(fs, map(fs, seq(fe), fm), fm)` — over that corpus.
//!
//! [`numeric`] adds the kernels used by the examples and the wider test
//! suite: a d&C mergesort, a Monte-Carlo π map, and a parse/aggregate
//! pipeline.
//!
//! [`adaptive`] recasts the word count as a *self-configuring* stream
//! workload for `askel-adapt`: a fragile filter stage with a robust
//! fallback, and a sequential count stage with a width-tunable parallel
//! promotion.
//!
//! [`oscillating`] adds the adversarial stream for knob hysteresis and
//! cluster offloading: item sizes flip between a low and a high phase on
//! a fixed period, processed by a width-knobbed (and placement-invariant)
//! sum-of-squares map.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod numeric;
pub mod oscillating;
pub mod tweets;
pub mod wordcount;

pub use adaptive::AdaptiveWordCount;
pub use oscillating::{GrainedSquareSum, OscillatingLoad};
pub use tweets::{generate_corpus, TweetGenConfig};
pub use wordcount::{count_tokens, merge_counts, Counts, WordCountProgram};
