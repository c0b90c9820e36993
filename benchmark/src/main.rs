//! `ladder` — the repository's one benchmark.
//!
//! Five workloads, each run as an **e2e pass** (metrics hub and all
//! benchmark spans off: the end-to-end metrics) and a **layer pass**
//! (spans and hub on: the per-layer metrics, a Chrome trace and a hub
//! snapshot per workload). Every result is checked against the
//! sequential reference; any wrong, missing, duplicated or reordered
//! result makes the exit code non-zero. See `benchmark/README.md`.

mod host;
mod report;
mod serve;
mod sim;
mod spans;
mod spec;
mod stream;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use askel_obs::Json;

use report::{Report, Scale};
use spans::Spans;
use spec::{Metric, END_TO_END, LP, PER_LAYER, RUN_SECONDS, SHARDS, WORKLOADS};

/// Spans kept per layer pass; past this the log counts what it drops.
const MAX_SPANS: usize = 200_000;

const USAGE: &str = "\
ladder [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
       [--e2e-only | --layers-only] [--quick] [--list]

  --workload <name>  one workload (default: all five, in order)
  --seed <n>         seeds every generated input (default 1)
  --seconds <s>      measuring time of one pass of one workload (default 20)
  --trace 0          the e2e pass only (same as --e2e-only)
  --trace 1          the layer pass only (same as --layers-only)
  --quick            smoke run: 1.5 s passes, small populations, no claims
  --list             print every workload and metric name and exit";

struct Opts {
    workloads: Vec<&'static str>,
    scale: Scale,
    e2e: bool,
    layers: bool,
}

fn parse_args() -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        workloads: WORKLOADS.iter().map(|w| w.name).collect(),
        scale: Scale {
            seed: 1,
            seconds: RUN_SECONDS,
            quick: false,
        },
        e2e: true,
        layers: true,
    };
    let mut seconds_given = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or(format!("unknown workload `{name}` (see --list)"))?;
                opts.workloads = vec![known.name];
            }
            "--seed" => {
                opts.scale.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.1..=600.0).contains(&s) {
                    return Err("--seconds must be between 0.1 and 600".into());
                }
                opts.scale.seconds = s;
                seconds_given = true;
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => (opts.e2e, opts.layers) = (true, false),
                "1" => (opts.e2e, opts.layers) = (false, true),
                other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            },
            "--e2e-only" => (opts.e2e, opts.layers) = (true, false),
            "--layers-only" => (opts.e2e, opts.layers) = (false, true),
            "--quick" => opts.scale.quick = true,
            "--list" => {
                for line in spec::list_lines() {
                    println!("{line}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if opts.scale.quick && !seconds_given {
        opts.scale.seconds = 1.5;
    }
    Ok(Some(opts))
}

/// Where traces, hub snapshots and raw samples go: `benchmark/` under
/// the cargo target directory (`target/` when cargo did not say).
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

pub fn write_out(name: &str, contents: &str) {
    let dir = out_dir();
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), contents))
    {
        eprintln!("warning: could not write {}: {e}", dir.join(name).display());
    }
}

fn run_e2e(workload: &str, scale: Scale) -> Report {
    let mut report = match workload {
        "stream_fine" => stream::FINE.e2e(scale),
        "stream_coarse" => stream::COARSE.e2e(scale),
        "serve_open" => serve::open_e2e(scale),
        "serve_burst" => serve::burst_e2e(scale),
        "sim_goal" => sim::e2e(scale),
        other => unreachable!("parse_args admits no workload `{other}`"),
    };
    report.set("rss_mb", util::proc_status("VmHWM") as f64 / 1024.0);
    report
}

fn run_layers(workload: &str, scale: Scale) -> Report {
    let mut spans = Spans::new(MAX_SPANS);
    let mut report = match workload {
        "stream_fine" => stream::FINE.layers(scale, &mut spans),
        "stream_coarse" => stream::COARSE.layers(scale, &mut spans),
        "serve_open" => serve::open_layers(scale, &mut spans),
        "serve_burst" => serve::burst_layers(scale, &mut spans),
        "sim_goal" => sim::layers(scale, &mut spans),
        other => unreachable!("parse_args admits no workload `{other}`"),
    };
    report.set("obs.trace_spans", spans.len() as f64);
    report.set("obs.threads_max", util::threads_peak() as f64);
    if spans.dropped() > 0 {
        report.warnings.push(format!(
            "span log full: kept {}, dropped {}",
            spans.len(),
            spans.dropped()
        ));
    }
    let self_times = spans
        .self_times()
        .into_iter()
        .map(|(name, (count, total, own))| {
            let fields = [("count", count), ("total_ns", total), ("self_ns", own)];
            let obj = fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                .collect();
            (name.to_string(), Json::Obj(obj))
        })
        .collect();
    report
        .raw
        .push(("span_self_times".into(), Json::Obj(self_times)));
    write_out(
        &format!("{workload}.trace.json"),
        &spans.to_chrome().render(),
    );
    report
}

/// Prints one pass: a `workload metric value unit` line per reported
/// metric, the two tallies, warnings; writes the raw samples; returns
/// the driver's result object.
fn emit(workload: &str, pass: &str, scale: Scale, report: &Report, declared: &[Metric]) -> Json {
    let mut metrics = Vec::new();
    for m in declared {
        let value = report.metrics.get(m.name).copied();
        if let Some(v) = value {
            println!("{workload} {} {v} {}", m.name, m.unit);
        }
        // Only a layer may be absent from a workload, never an
        // end-to-end metric.
        assert!(
            value.is_some() || pass == "layers",
            "{workload} did not report `{}`",
            m.name
        );
        let entry = vec![
            ("value".to_string(), Json::Num(value.unwrap_or(0.0))),
            ("unit".to_string(), Json::Str(m.unit.to_string())),
        ];
        metrics.push((m.name.to_string(), Json::Obj(entry)));
    }
    for name in report.metrics.keys() {
        assert!(
            declared.iter().any(|m| m.name == *name),
            "{workload} reported `{name}`, which spec.rs does not declare for the {pass} pass"
        );
    }
    println!("{workload} ops_attempted {} count", report.attempted);
    println!("{workload} ops_failed {} count", report.failed);
    for w in &report.warnings {
        println!("{workload} warning: {w}");
    }
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(report.failed == 0)),
        (
            "attempted".to_string(),
            Json::Num(report.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Num(report.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    let doc = Json::Obj(vec![
        ("workload".to_string(), Json::Str(workload.to_string())),
        ("pass".to_string(), Json::Str(pass.to_string())),
        ("seed".to_string(), Json::Num(scale.seed as f64)),
        ("seconds".to_string(), Json::Num(scale.seconds)),
        ("quick".to_string(), Json::Bool(scale.quick)),
        (
            "config".to_string(),
            Json::Obj(vec![
                ("lp".to_string(), Json::Num(LP as f64)),
                ("shards".to_string(), Json::Num(SHARDS as f64)),
                (
                    "available_parallelism".to_string(),
                    Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
                ),
            ]),
        ),
        ("result".to_string(), result.clone()),
        ("raw".to_string(), Json::Obj(report.raw.clone())),
    ]);
    write_out(&format!("{workload}.{pass}.json"), &doc.render_pretty());
    result
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    let mut last = None;
    for workload in &opts.workloads {
        if opts.e2e {
            let report = run_e2e(workload, opts.scale);
            all_correct &= report.failed == 0;
            last = Some(emit(workload, "e2e", opts.scale, &report, &END_TO_END));
        }
        if opts.layers {
            let report = run_layers(workload, opts.scale);
            all_correct &= report.failed == 0;
            last = Some(emit(workload, "layers", opts.scale, &report, &PER_LAYER));
        }
    }
    let threads = util::threads_peak();
    if threads > (LP + SHARDS + 1) as u64 {
        eprintln!("error: {threads} threads alive at once; the benchmark allows LP + shards + 1");
        all_correct = false;
    }
    // The driver reads the last line of standard output.
    if let Some(result) = last {
        println!("{}", result.render());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
