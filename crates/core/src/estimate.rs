//! History-based estimation of muscle durations `t(m)` and cardinalities
//! `|m|`.
//!
//! The paper's base formula (§4):
//!
//! ```text
//! newEstimatedVal = ρ × lastActualVal + (1 − ρ) × previousEstimatedVal
//! ```
//!
//! with ρ ∈ [0, 1], default 0.5. ρ→1 chases the last measurement; ρ→0
//! freezes the first. The first observation initializes the estimate
//! directly.
//!
//! `t(m)` is defined for every muscle; `|m|` only for Split muscles (number
//! of sub-problems) and Condition muscles (expected `true` count of a
//! `while`, recursion depth of a `d&C`).
//!
//! [`EstimatorTable`] is the shared store keyed by [`MuscleId`];
//! [`Snapshot`] serializes it so one run can initialize the next (the
//! paper's "Goal with initialization" scenario).

use std::collections::HashMap;

use crate::json::{Json, JsonError};

use askel_skeletons::{KindTag, MuscleDescriptor, MuscleId, MuscleRole, NodeId, TimeNs};

/// The paper's exponentially-weighted moving average.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ewma {
    rho: f64,
    value: Option<f64>,
}

impl Ewma {
    /// An empty estimator with weight `rho` (clamped to `[0, 1]`).
    pub fn new(rho: f64) -> Self {
        Ewma {
            rho: rho.clamp(0.0, 1.0),
            value: None,
        }
    }

    /// An estimator pre-initialized to `value`.
    pub(crate) fn initialized(rho: f64, value: f64) -> Self {
        Ewma {
            rho: rho.clamp(0.0, 1.0),
            value: Some(value),
        }
    }

    /// Feeds one measurement.
    pub fn observe(&mut self, actual: f64) {
        self.value = Some(match self.value {
            None => actual,
            Some(prev) => self.rho * actual + (1.0 - self.rho) * prev,
        });
    }

    /// The current estimate, if any measurement or initialization happened.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The configured weight.
    pub fn rho(&self) -> f64 {
        self.rho
    }
}

/// Which estimate a cardinality refers to.
///
/// Only Split and Condition muscles have cardinalities (paper §4).
pub(crate) fn role_has_cardinality(tag: KindTag, role: MuscleRole) -> bool {
    matches!(
        (tag, role),
        (KindTag::Map, MuscleRole::Split)
            | (KindTag::Fork, MuscleRole::Split)
            | (KindTag::DivideConquer, MuscleRole::Split)
            | (KindTag::While, MuscleRole::Condition)
            | (KindTag::DivideConquer, MuscleRole::Condition)
    )
}

/// Shared store of `t(m)` and `|m|` estimates, keyed by muscle.
///
/// **Aliasing (shared muscle objects).** In Skandium a muscle is a Java
/// object; the paper's Listing 1 passes the *same* `fs` and `fm` objects to
/// both nested maps. This has an observable consequence in §5: the analysis
/// gate ("all muscles executed at least once") passes at the *first inner
/// merge* (7.6 s) although the *outer* merge has never run — the outer
/// merge borrows the shared object's history. At the same time the paper
/// expects the remaining inner splits at their own ≈0.9 s cost, not at a
/// blend with the 6.4 s outer split.
///
/// We therefore keep estimates **two-level**: every observation updates the
/// *positional* entry (`MuscleId` = node × role) and, when the muscle
/// belongs to an alias group, the *group* entry. Lookups prefer the
/// positional entry and fall back to the group — so predictions are as
/// precise as the position's own history allows, while unexecuted positions
/// inherit the shared object's history, exactly like Skandium.
#[derive(Clone, Debug)]
pub struct EstimatorTable {
    rho: f64,
    durations: HashMap<MuscleId, Ewma>,
    cardinalities: HashMap<MuscleId, Ewma>,
    group_durations: HashMap<MuscleId, Ewma>,
    group_cardinalities: HashMap<MuscleId, Ewma>,
    aliases: HashMap<MuscleId, MuscleId>,
}

impl EstimatorTable {
    /// An empty table; `rho` applies to estimators it creates.
    pub fn new(rho: f64) -> Self {
        EstimatorTable {
            rho: rho.clamp(0.0, 1.0),
            durations: HashMap::new(),
            cardinalities: HashMap::new(),
            group_durations: HashMap::new(),
            group_cardinalities: HashMap::new(),
            aliases: HashMap::new(),
        }
    }

    /// The table's ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Declares that `muscle` shares one muscle object with `canonical`:
    /// both update the group entry keyed by `canonical`, and either
    /// position falls back to it while it lacks its own history. The
    /// canonical member's own observations feed the group as well.
    pub fn set_alias(&mut self, muscle: MuscleId, canonical: MuscleId) {
        if muscle != canonical {
            self.aliases.insert(muscle, canonical);
        }
    }

    /// The declared aliases.
    pub fn aliases(&self) -> impl Iterator<Item = (MuscleId, MuscleId)> + '_ {
        self.aliases.iter().map(|(a, b)| (*a, *b))
    }

    /// The group key of a muscle: the canonical id if it belongs to an
    /// alias group (including the canonical member itself), else `None`.
    fn group_of(&self, m: MuscleId) -> Option<MuscleId> {
        let mut cur = m;
        let mut hops = 0;
        while let Some(&next) = self.aliases.get(&cur) {
            cur = next;
            hops += 1;
            if hops > 16 {
                return None; // defensive cycle guard
            }
        }
        if cur != m || self.aliases.values().any(|&c| c == m) {
            Some(cur)
        } else {
            None
        }
    }

    /// Feeds a duration measurement for `t(m)`.
    pub(crate) fn observe_duration(&mut self, m: MuscleId, actual: TimeNs) {
        self.durations
            .entry(m)
            .or_insert_with(|| Ewma::new(self.rho))
            .observe(actual.0 as f64);
        if let Some(g) = self.group_of(m) {
            self.group_durations
                .entry(g)
                .or_insert_with(|| Ewma::new(self.rho))
                .observe(actual.0 as f64);
        }
    }

    /// Feeds a cardinality measurement for `|m|`.
    pub fn observe_cardinality(&mut self, m: MuscleId, actual: f64) {
        self.cardinalities
            .entry(m)
            .or_insert_with(|| Ewma::new(self.rho))
            .observe(actual);
        if let Some(g) = self.group_of(m) {
            self.group_cardinalities
                .entry(g)
                .or_insert_with(|| Ewma::new(self.rho))
                .observe(actual);
        }
    }

    /// Initializes `t(m)` (the paper's "initialization of estimation
    /// functions"); subsequent observations blend into it.
    pub fn init_duration(&mut self, m: MuscleId, value: TimeNs) {
        self.durations
            .insert(m, Ewma::initialized(self.rho, value.0 as f64));
    }

    /// Initializes `|m|`.
    pub fn init_cardinality(&mut self, m: MuscleId, value: f64) {
        self.cardinalities
            .insert(m, Ewma::initialized(self.rho, value));
    }

    /// Current `t(m)`: the position's own history, falling back to its
    /// alias group's history.
    pub fn duration(&self, m: MuscleId) -> Option<TimeNs> {
        self.durations
            .get(&m)
            .and_then(|e| e.value())
            .or_else(|| {
                self.group_of(m)
                    .and_then(|g| self.group_durations.get(&g))
                    .and_then(|e| e.value())
            })
            .map(|v| TimeNs(v.max(0.0).round() as u64))
    }

    /// Current `|m|` (positional, with group fallback).
    pub fn cardinality(&self, m: MuscleId) -> Option<f64> {
        self.cardinalities
            .get(&m)
            .and_then(|e| e.value())
            .or_else(|| {
                self.group_of(m)
                    .and_then(|g| self.group_cardinalities.get(&g))
                    .and_then(|e| e.value())
            })
    }

    /// `|m|` rounded to a usable child count (≥ `min`).
    pub fn cardinality_rounded(&self, m: MuscleId, min: usize) -> Option<usize> {
        self.cardinality(m)
            .map(|v| (v.round().max(0.0) as usize).max(min))
    }

    /// Do we have every estimate the given muscles require — a duration for
    /// each, plus a cardinality for splits and loop/recursion conditions?
    ///
    /// This is the analysis gate: "the system has to wait until all muscles
    /// have been executed at least once" (paper §4).
    pub fn covers(&self, muscles: &[MuscleDescriptor]) -> bool {
        muscles.iter().all(|d| {
            self.duration(d.id).is_some()
                && (!role_has_cardinality(d.tag, d.id.role) || self.cardinality(d.id).is_some())
        })
    }

    /// Drops every entry — positional durations and cardinalities, group
    /// fallbacks keyed by a removed canonical, and alias declarations on
    /// either side — whose muscle belongs to one of `removed`. Returns
    /// the number of **positional** entries dropped.
    ///
    /// This is the estimator half of the rewrite feedback loop: when a
    /// reconfiguration replaces a subtree, the replaced nodes' history
    /// must not keep steering `predictive_wct` — a forecast over the new
    /// tree is either computed from live estimates or withheld (the
    /// `covers` gate closes again until the replacement's muscles have
    /// run or been seeded).
    pub fn invalidate_nodes(&mut self, removed: &[NodeId]) -> usize {
        let gone = |m: &MuscleId| removed.contains(&m.node);
        let before = self.durations.len() + self.cardinalities.len();
        self.durations.retain(|m, _| !gone(m));
        self.cardinalities.retain(|m, _| !gone(m));
        self.group_durations.retain(|m, _| !gone(m));
        self.group_cardinalities.retain(|m, _| !gone(m));
        self.aliases
            .retain(|m, canonical| !gone(m) && !gone(canonical));
        before - (self.durations.len() + self.cardinalities.len())
    }

    /// Serializable snapshot of every estimate (see [`Snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        fn dump(map: &HashMap<MuscleId, Ewma>) -> Vec<SnapshotEntry> {
            let mut out: Vec<SnapshotEntry> = map
                .iter()
                .filter_map(|(m, e)| e.value().map(|v| SnapshotEntry::new(*m, v)))
                .collect();
            out.sort_by(|a, b| (a.node, &a.role).cmp(&(b.node, &b.role)));
            out
        }
        Snapshot {
            rho: self.rho,
            durations: dump(&self.durations),
            cardinalities: dump(&self.cardinalities),
            group_durations: dump(&self.group_durations),
            group_cardinalities: dump(&self.group_cardinalities),
        }
    }

    /// Rebuilds a table from a snapshot (all estimates initialized).
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let mut t = EstimatorTable::new(snapshot.rho);
        for e in &snapshot.durations {
            if let Some(m) = e.muscle_id() {
                t.init_duration(m, TimeNs(e.value.max(0.0).round() as u64));
            }
        }
        for e in &snapshot.cardinalities {
            if let Some(m) = e.muscle_id() {
                t.init_cardinality(m, e.value);
            }
        }
        for e in &snapshot.group_durations {
            if let Some(m) = e.muscle_id() {
                t.group_durations
                    .insert(m, Ewma::initialized(t.rho, e.value));
            }
        }
        for e in &snapshot.group_cardinalities {
            if let Some(m) = e.muscle_id() {
                t.group_cardinalities
                    .insert(m, Ewma::initialized(t.rho, e.value));
            }
        }
        t
    }
}

/// One serialized estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    /// Raw node id.
    pub node: u64,
    /// Muscle role as text (`"fe"`, `"fs"`, `"fm"`, `"fc"`).
    pub role: String,
    /// Estimate value (nanoseconds for durations, plain for cardinalities).
    pub value: f64,
}

impl SnapshotEntry {
    fn new(m: MuscleId, value: f64) -> Self {
        SnapshotEntry {
            node: m.node.0,
            role: m.role.to_string(),
            value,
        }
    }

    fn muscle_id(&self) -> Option<MuscleId> {
        let role = match self.role.as_str() {
            "fe" => MuscleRole::Execute,
            "fs" => MuscleRole::Split,
            "fm" => MuscleRole::Merge,
            "fc" => MuscleRole::Condition,
            _ => return None,
        };
        Some(MuscleId::new(NodeId(self.node), role))
    }
}

/// A serializable dump of an [`EstimatorTable`], implementing the paper's
/// "initialization of the `t(m)` and `|m|` functions" from a previous run.
///
/// Note that node ids must refer to the *same AST objects* (or a rebuild
/// that allocated the same ids) for a snapshot to be meaningful; snapshots
/// are meant for consecutive runs inside one process, or for goldens in
/// tests and benches.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The ρ the table was using.
    pub rho: f64,
    /// Positional duration estimates.
    pub durations: Vec<SnapshotEntry>,
    /// Positional cardinality estimates.
    pub cardinalities: Vec<SnapshotEntry>,
    /// Alias-group duration estimates (shared-muscle fallback history).
    pub group_durations: Vec<SnapshotEntry>,
    /// Alias-group cardinality estimates.
    pub group_cardinalities: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        fn entries(list: &[SnapshotEntry]) -> Json {
            Json::Arr(
                list.iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("node".to_string(), Json::Num(e.node as f64)),
                            ("role".to_string(), Json::Str(e.role.clone())),
                            ("value".to_string(), Json::Num(e.value)),
                        ])
                    })
                    .collect(),
            )
        }
        Json::Obj(vec![
            ("rho".to_string(), Json::Num(self.rho)),
            ("durations".to_string(), entries(&self.durations)),
            ("cardinalities".to_string(), entries(&self.cardinalities)),
            (
                "group_durations".to_string(),
                entries(&self.group_durations),
            ),
            (
                "group_cardinalities".to_string(),
                entries(&self.group_cardinalities),
            ),
        ])
        .render_pretty()
    }

    /// Parses from JSON. The `group_*` fields may be absent (snapshots
    /// predating alias groups), defaulting to empty.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let doc = Json::parse(s)?;
        let field_err = |msg: &str| JsonError {
            message: msg.to_string(),
            offset: 0,
        };
        let entries = |key: &str, required: bool| -> Result<Vec<SnapshotEntry>, JsonError> {
            let list = match doc.get(key) {
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| field_err(&format!("`{key}` must be an array")))?,
                None if required => return Err(field_err(&format!("snapshot is missing `{key}`"))),
                None => return Ok(Vec::new()),
            };
            list.iter()
                .map(|item| {
                    let node = item
                        .get("node")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| field_err("entry is missing numeric `node`"))?;
                    let role = item
                        .get("role")
                        .and_then(Json::as_str)
                        .ok_or_else(|| field_err("entry is missing string `role`"))?;
                    let value = item
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| field_err("entry is missing numeric `value`"))?;
                    Ok(SnapshotEntry {
                        node: node as u64,
                        role: role.to_string(),
                        value,
                    })
                })
                .collect()
        };
        Ok(Snapshot {
            rho: doc
                .get("rho")
                .and_then(Json::as_f64)
                .ok_or_else(|| field_err("snapshot is missing numeric `rho`"))?,
            durations: entries("durations", true)?,
            cardinalities: entries("cardinalities", true)?,
            group_durations: entries("group_durations", false)?,
            group_cardinalities: entries("group_cardinalities", false)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(n: u64, role: MuscleRole) -> MuscleId {
        MuscleId::new(NodeId(n), role)
    }

    #[test]
    fn first_observation_initializes() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn formula_matches_the_paper() {
        // newEst = ρ·last + (1−ρ)·prev, ρ = 0.5
        let mut e = Ewma::new(0.5);
        e.observe(10.0);
        e.observe(20.0);
        assert_eq!(e.value(), Some(15.0));
        e.observe(5.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn rho_one_takes_only_last_value() {
        let mut e = Ewma::new(1.0);
        e.observe(10.0);
        e.observe(99.0);
        assert_eq!(e.value(), Some(99.0));
    }

    #[test]
    fn rho_zero_keeps_first_value() {
        let mut e = Ewma::new(0.0);
        e.observe(10.0);
        e.observe(99.0);
        e.observe(1.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn rho_is_clamped() {
        assert_eq!(Ewma::new(7.0).rho(), 1.0);
        assert_eq!(Ewma::new(-3.0).rho(), 0.0);
    }

    #[test]
    fn table_tracks_durations_and_cardinalities() {
        let mut t = EstimatorTable::new(0.5);
        let fs = m(1, MuscleRole::Split);
        t.observe_duration(fs, TimeNs::from_secs(10));
        t.observe_cardinality(fs, 3.0);
        assert_eq!(t.duration(fs), Some(TimeNs::from_secs(10)));
        assert_eq!(t.cardinality(fs), Some(3.0));
        assert_eq!(t.cardinality_rounded(fs, 1), Some(3));
        assert_eq!(t.duration(m(2, MuscleRole::Merge)), None);
    }

    #[test]
    fn cardinality_rounding_respects_minimum() {
        let mut t = EstimatorTable::new(0.5);
        let fs = m(1, MuscleRole::Split);
        t.observe_cardinality(fs, 0.2);
        assert_eq!(t.cardinality_rounded(fs, 1), Some(1));
        assert_eq!(t.cardinality_rounded(fs, 0), Some(0));
    }

    #[test]
    fn covers_requires_cardinalities_only_where_defined() {
        let mut t = EstimatorTable::new(0.5);
        let fs = m(1, MuscleRole::Split);
        let fm = m(1, MuscleRole::Merge);
        let fe = m(2, MuscleRole::Execute);
        let descriptors = vec![
            MuscleDescriptor {
                id: fs,
                tag: KindTag::Map,
                label: None,
            },
            MuscleDescriptor {
                id: fm,
                tag: KindTag::Map,
                label: None,
            },
            MuscleDescriptor {
                id: fe,
                tag: KindTag::Seq,
                label: None,
            },
        ];
        t.observe_duration(fs, TimeNs(1));
        t.observe_duration(fm, TimeNs(1));
        t.observe_duration(fe, TimeNs(1));
        assert!(!t.covers(&descriptors), "map split still needs |fs|");
        t.observe_cardinality(fs, 4.0);
        assert!(t.covers(&descriptors));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut t = EstimatorTable::new(0.25);
        let fs = m(1, MuscleRole::Split);
        let fe = m(2, MuscleRole::Execute);
        t.observe_duration(fs, TimeNs::from_secs(10));
        t.observe_cardinality(fs, 3.0);
        t.observe_duration(fe, TimeNs::from_secs(15));
        let snap = t.snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        let t2 = EstimatorTable::from_snapshot(&back);
        assert_eq!(t2.duration(fs), Some(TimeNs::from_secs(10)));
        assert_eq!(t2.cardinality(fs), Some(3.0));
        assert_eq!(t2.duration(fe), Some(TimeNs::from_secs(15)));
        assert_eq!(t2.rho(), 0.25);
    }

    #[test]
    fn initialized_estimates_blend_with_observations() {
        let mut t = EstimatorTable::new(0.5);
        let fe = m(1, MuscleRole::Execute);
        t.init_duration(fe, TimeNs(100));
        t.observe_duration(fe, TimeNs(200));
        assert_eq!(t.duration(fe), Some(TimeNs(150)));
    }
}
