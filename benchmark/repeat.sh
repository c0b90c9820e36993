#!/usr/bin/env bash
# Repeatability check: runs the e2e pass several times per workload, in
# sets, and compares each end-to-end metric's spread and set-to-set
# drift with its bound in BENCHMARK.json.
#
#   benchmark/repeat.sh                         two sets of three runs, seed 1
#   benchmark/repeat.sh --seed 7                the same on another seed
#   benchmark/repeat.sh --sets 2 --runs 10 --vary-seed
#                                               the acceptance protocol: ten
#                                               seeds per set, spread = IQR/median
#   benchmark/repeat.sh --workload serve_open   one workload only
#
# Every run's result line is kept in target/benchmark/repeat/ so a
# reviewer can recompute. Exit code 1 if any metric x workload FAILs.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
exec python3 - "$@" <<'EOF'
import argparse, json, os, statistics, subprocess, sys

ap = argparse.ArgumentParser()
ap.add_argument("--sets", type=int, default=2)
ap.add_argument("--runs", type=int, default=3)
ap.add_argument("--seed", type=int, default=1)
ap.add_argument("--vary-seed", action="store_true",
                help="run k of a set uses seed+k instead of the same seed")
ap.add_argument("--seconds", type=int)
ap.add_argument("--workload", action="append")
args = ap.parse_args()

spec = json.load(open("BENCHMARK.json"))
seconds = args.seconds or spec["run_seconds"]
workloads = args.workload or [w["name"] for w in spec["workloads"]]
target = os.environ["CARGO_TARGET_DIR"]
out_dir = os.path.join(target, "benchmark", "repeat")
os.makedirs(out_dir, exist_ok=True)
binary = os.path.join(target, "release", "ladder")

def spread(values):
    """IQR over median with four or more values, else range over median."""
    med = statistics.median(values)
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / med
    return (max(values) - min(values)) / med

failed = False
for w in workloads:
    sets = []
    for s in range(args.sets):
        runs = []
        for k in range(args.runs):
            seed = args.seed + (k if args.vary_seed else 0)
            run = subprocess.run(
                [binary, "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {run.returncode}:\n{run.stdout}{run.stderr}")
            line = run.stdout.splitlines()[-1]
            with open(os.path.join(out_dir, f"{w}.set{s}.run{k}.json"), "w") as f:
                f.write(line + "\n")
            result = json.loads(line)
            assert result["correct"], f"{w} seed {seed}: incorrect result"
            runs.append({m: v["value"] for m, v in result["metrics"].items()})
        sets.append(runs)
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = [statistics.median(r[name] for r in runs) for runs in sets]
        spreads = [spread([r[name] for r in runs]) for runs in sets]
        worse = -1.0 if m["better"] == "higher" else 1.0
        drift = max((worse * (b - a) / a for a, b in zip(medians, medians[1:])), default=0.0)
        # setup_s is gated on drift only, as the driver gates it.
        ok = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
        failed |= not ok
        print(f"{w:14} {name:15} medians " + " ".join(f"{x:.6g}" for x in medians)
              + "  spread " + " ".join(f"{x:.3f}" for x in spreads)
              + f"  worse-by {drift:+.3f}  bound {bound}  {'PASS' if ok else 'FAIL'}",
              flush=True)
sys.exit(1 if failed else 0)
EOF
