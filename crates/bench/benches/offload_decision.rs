//! Cluster-aware rule costs: what does a safe point pay for the new
//! decision machinery when **nothing fires**?
//!
//! Four measurements, all per `TriggerEngine::plan` call (the per-item
//! safe-point cost an `AdaptiveSession` adds):
//!
//! * `offload_eval_no_fire` — one armed [`Offload`] rule over a balanced
//!   two-node cluster: a telemetry read + share comparison per safe
//!   point;
//! * `hysteresis_eval_no_fire` — one armed hysteresis-damped
//!   `RetuneGrain` whose estimate sits inside its target band: the
//!   damping state is consulted only after the band check, so the quiet
//!   path costs one estimator lookup;
//! * `forecast_gate_eval_no_fire` — one armed forecast-gated [`Promote`]
//!   whose gate is open for evaluation but whose margin never passes:
//!   this one *prices the predictive ADG* (two `predictive_wct` calls
//!   per safe point) and is the figure to watch before arming forecast
//!   gates on hot streams;
//! * `width_forecast_gate_eval_no_fire` — the same gate on a
//!   [`RetuneWidth`] with its constant-work model: two estimator-table
//!   clones on top of the two forecasts.
//!
//! The ladder benchmark has no rung for these four; the end-to-end
//! no-fire cost of a session with the classic rules armed is its
//! `adapt.session_delta_ns`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use askel_adapt::{Hysteresis, Knob, Promote, RetuneGrain, RetuneWidth, Trigger, TriggerEngine};
use askel_dist::{Cluster, NodeSpec, Offload};
use askel_sim::workers::WorkerModel;
use askel_skeletons::{map, seq, MuscleId, MuscleRole, Skel, TimeNs};

fn fan_program() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.chunks(16).map(|c| c.to_vec()).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v.iter().sum::<i64>()),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

fn bench_offload_decision(c: &mut Criterion) {
    // Balanced cluster: the offload rule evaluates but never fires.
    {
        let mut cluster = Cluster::new(vec![
            NodeSpec::local("edge", 2),
            NodeSpec::remote("hub", 2, TimeNs::ZERO),
        ]);
        cluster.note_busy(0, TimeNs::from_secs(1));
        cluster.note_busy(2, TimeNs::from_secs(1));
        let telemetry = cluster.telemetry();
        let program = fan_program();
        let trigger = TriggerEngine::new(0.5);
        trigger.add_rule(Offload::new(&program, "hub", telemetry, 0.75, 0.25));
        let root = Arc::clone(program.node());
        c.bench_function("offload_eval_no_fire", |b| {
            b.iter(|| {
                let plans = trigger.plan(&root, 2);
                assert!(plans.is_empty(), "balanced cluster must not fire");
                plans.len()
            })
        });
    }

    // Hysteresis-damped grain rule, estimate inside the band: quiet.
    {
        let program = fan_program();
        let leaf = MuscleId::new(program.node().children()[0].id, MuscleRole::Execute);
        let trigger = TriggerEngine::new(0.5);
        trigger
            .knowledge()
            .with_estimates(|est| est.init_duration(leaf, TimeNs::from_millis(10)));
        trigger.add_rule(
            RetuneGrain::new(Knob::new("grain", 64), leaf, TimeNs::from_millis(10))
                .hysteresis(Hysteresis::new(8, 0.25)),
        );
        let root = Arc::clone(program.node());
        c.bench_function("hysteresis_eval_no_fire", |b| {
            b.iter(|| {
                let plans = trigger.plan(&root, 2);
                assert!(plans.is_empty(), "in-band estimate must not fire");
                plans.len()
            })
        });
    }

    // Forecast-gated promotion: the gate computes both predictive ADGs
    // every safe point, then the (impossible) margin rejects the fire.
    {
        let current = fan_program();
        let candidate = fan_program();
        let trigger = TriggerEngine::new(0.5);
        trigger.knowledge().with_estimates(|est| {
            for program in [&current, &candidate] {
                for m in program.node().collect_muscles() {
                    est.init_duration(m.id, TimeNs::from_millis(1));
                    if m.id.role == MuscleRole::Split {
                        est.init_cardinality(m.id, 32.0);
                    }
                }
            }
        });
        trigger.add_rule(
            Promote::new(&current, &candidate)
                .when(Trigger::InputSizeAtLeast(1.0))
                // Identical trees: no forecast can improve by 50%.
                .forecast_gated(0.5),
        );
        trigger.observe_input_size(100);
        let root = Arc::clone(current.node());
        c.bench_function("forecast_gate_eval_no_fire", |b| {
            b.iter(|| {
                let plans = trigger.plan(&root, 4);
                assert!(plans.is_empty(), "identical trees must not pass the margin");
                plans.len()
            })
        });
    }

    // Forecast-gated width retune: 32 → 4 chunks of the same total work
    // at LP 4 forecasts no gain, so the margin rejects it every time.
    {
        let program = fan_program();
        let split = MuscleId::new(program.id(), MuscleRole::Split);
        let leaf = MuscleId::new(program.node().children()[0].id, MuscleRole::Execute);
        let trigger = TriggerEngine::new(0.5);
        trigger.knowledge().with_estimates(|est| {
            for m in program.node().collect_muscles() {
                est.init_duration(m.id, TimeNs::from_millis(1));
            }
            est.init_cardinality(split, 32.0);
        });
        trigger.add_rule(
            RetuneWidth::new(Knob::new("width", 32), 1)
                .constant_work(split, leaf)
                .forecast_gated(0.5),
        );
        let root = Arc::clone(program.node());
        c.bench_function("width_forecast_gate_eval_no_fire", |b| {
            b.iter(|| {
                let plans = trigger.plan(&root, 4);
                assert!(plans.is_empty(), "constant work must not pass the margin");
                plans.len()
            })
        });
    }
}

criterion_group!(benches, bench_offload_decision);
criterion_main!(benches);
