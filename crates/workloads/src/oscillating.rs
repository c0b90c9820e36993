//! The oscillating-load scenario: a stream whose item sizes flip between
//! a low and a high phase on a fixed period — the adversarial input for
//! knob [`Hysteresis`] (a naive retune rule would flap its knob once per
//! phase) and, over a skewed cluster, the driver for `Offload` +
//! `ProvisioningPolicy` decisions.
//!
//! Everything here is deterministic: sizes are a pure square wave and the
//! program's muscles are pure functions, so the same scenario replays
//! identically on the threaded engine and the simulator.
//!
//! [`Hysteresis`]: https://docs.rs/askel-adapt

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use askel_skeletons::{map, seq, Skel};

/// A square-wave load: `period` items of `low` elements, then `period`
/// items of `high` elements, repeating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OscillatingLoad {
    /// Item size during the low phase.
    pub low: usize,
    /// Item size during the high phase.
    pub high: usize,
    /// Items per phase (≥ 1).
    pub period: usize,
}

impl OscillatingLoad {
    /// A load oscillating between `low`- and `high`-element items every
    /// `period` items (`period` clamped to ≥ 1).
    pub fn new(low: usize, high: usize, period: usize) -> Self {
        OscillatingLoad {
            low,
            high,
            period: period.max(1),
        }
    }

    /// The size of the `k`-th item (0-based).
    pub fn size_of(&self, k: usize) -> usize {
        if (k / self.period).is_multiple_of(2) {
            self.low
        } else {
            self.high
        }
    }

    /// The sizes of the first `items` items.
    pub fn sizes(&self, items: usize) -> Vec<usize> {
        (0..items).map(|k| self.size_of(k)).collect()
    }

    /// Deterministic inputs of those sizes: item `k` is
    /// `[k, k+1, …, k+size−1]` (as `i64`).
    pub fn inputs(&self, items: usize) -> Vec<Vec<i64>> {
        (0..items)
            .map(|k| (0..self.size_of(k)).map(|i| (k + i) as i64).collect())
            .collect()
    }
}

/// A grain-knobbed sum-of-squares map: the split cuts the input into
/// chunks of `grain` **elements** (read per execution), so the leaf's
/// duration tracks `min(grain, len)` — under an [`OscillatingLoad`] the
/// leaf-duration EWMA swings across a `RetuneGrain` rule's target band
/// and a naive rule flaps the knob every phase. Result-invariant across
/// the knob's whole range and any placement (associative merge).
pub struct GrainedSquareSum {
    /// The program (`Vec<i64> → i64`).
    pub program: Skel<Vec<i64>, i64>,
    /// Elements per chunk, read by the split per execution.
    pub grain: Arc<AtomicUsize>,
}

impl GrainedSquareSum {
    /// Builds the program chunking by `initial_grain` elements until a
    /// rule retunes it.
    pub fn new(initial_grain: usize) -> Self {
        let grain = Arc::new(AtomicUsize::new(initial_grain.max(1)));
        let g = Arc::clone(&grain);
        let program = map(
            move |v: Vec<i64>| {
                let grain = g.load(Ordering::SeqCst).max(1);
                if v.is_empty() {
                    return vec![Vec::new()];
                }
                v.chunks(grain).map(|c| c.to_vec()).collect::<Vec<_>>()
            },
            seq(|chunk: Vec<i64>| chunk.iter().map(|x| x * x).sum::<i64>()),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        )
        .labeled("grained-square-sum");
        GrainedSquareSum { program, grain }
    }

    /// The reference result for one input, computed without the skeleton.
    pub fn reference(input: &[i64]) -> i64 {
        input.iter().map(|x| x * x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_wave_alternates_by_period() {
        let load = OscillatingLoad::new(4, 100, 3);
        assert_eq!(
            load.sizes(9),
            vec![4, 4, 4, 100, 100, 100, 4, 4, 4],
            "three low, three high, three low"
        );
        let inputs = load.inputs(4);
        assert_eq!(inputs[0], vec![0, 1, 2, 3]);
        assert_eq!(inputs[3].len(), 100);
        assert_eq!(inputs[3][0], 3);
    }

    #[test]
    fn zero_period_is_clamped() {
        let load = OscillatingLoad::new(1, 2, 0);
        assert_eq!(load.period, 1);
        assert_eq!(load.sizes(4), vec![1, 2, 1, 2]);
    }

    #[test]
    fn grained_sum_is_grain_invariant() {
        let g = GrainedSquareSum::new(1);
        let input: Vec<i64> = (0..53).collect();
        let reference = GrainedSquareSum::reference(&input);
        for grain in [1, 4, 32, 1 << 20] {
            g.grain.store(grain, Ordering::SeqCst);
            assert_eq!(g.program.apply(input.clone()), reference, "grain {grain}");
        }
        g.grain.store(8, Ordering::SeqCst);
        assert_eq!(g.program.apply(vec![]), 0, "empty input splits cleanly");
    }

    #[test]
    fn knobbed_sum_is_placement_invariant() {
        let g = GrainedSquareSum::new(4);
        let placed = g.program.placed_at(g.program.id(), "somewhere").unwrap();
        let input: Vec<i64> = (0..16).collect();
        assert_eq!(
            placed.apply(input.clone()),
            GrainedSquareSum::reference(&input)
        );
    }
}
