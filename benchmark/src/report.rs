//! What one pass of one workload hands back to `main`.

use std::collections::BTreeMap;

use askel_obs::Json;

/// How long and how hard to run. `seconds` is the measuring time of one
/// pass; `quick` additionally shrinks the fixed-size parts (tenant
/// populations, the 1M-item stream) so the whole binary smoke-runs in
/// seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

impl Scale {
    /// `share` of the pass's measuring time, as nanoseconds.
    pub fn ns(&self, share: f64) -> u64 {
        (self.seconds * share * 1e9) as u64
    }

    /// A fixed size, cut to a twentieth for `--quick`.
    pub fn size(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

/// Says on standard error why an operation was counted as failed (the
/// first twenty times: a broken run can fail every item).
pub fn complain(why: impl FnOnce() -> String) {
    static SAID: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    if SAID.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < 20 {
        eprintln!("failed: {}", why());
    }
}

#[derive(Default)]
pub struct Report {
    /// Items the generator tried to put through the program.
    pub attempted: u64,
    /// Refused, `Err`, wrong, missing, duplicated or out-of-order.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Raw samples and counts for `target/benchmark/*.json`, so a
    /// reviewer can recompute every median.
    pub raw: Vec<(String, Json)>,
    pub warnings: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn raw_nums(&mut self, key: &str, values: &[f64]) {
        self.raw.push((
            key.to_string(),
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ));
    }

    pub fn raw_num(&mut self, key: &str, value: f64) {
        self.raw.push((key.to_string(), Json::Num(value)));
    }

    /// Adds a sub-run's tallies to this report's.
    pub fn absorb(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Warns when an outside-in figure and the hub's own histogram for
    /// the same interval disagree by more than a quarter.
    pub fn cross_check(&mut self, what: &str, outside: f64, hub: f64) {
        let hi = outside.max(hub);
        if hi > 0.0 && (outside - hub).abs() / hi > 0.25 {
            self.warnings.push(format!(
                "{what}: outside-in {outside:.0} vs hub {hub:.0} disagree by more than 25%"
            ));
        }
    }
}
