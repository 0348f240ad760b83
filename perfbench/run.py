#!/usr/bin/env python3
"""Build and run the waso layered benchmark, or compare two result files.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --out FILE
    python3 perfbench/run.py --compare OLD.json NEW.json

One workload: builds the benchmark (release, offline) and runs it; the
last line of standard output is the JSON result. `--workload all` runs
every workload in its own process (so each reports its own peak memory)
and writes their stamped records and results to one file. `--compare`
prints per-workload, per-metric deltas between two such files.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["solve-cold", "serve-hot", "replan-delta"]


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"no waso source tree at {ROOT}: the benchmark builds the program from source")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("building the benchmark failed", done.returncode)
    return os.path.join(target, "release", "perfbench")


def run_one(binary, args):
    """Runs one workload, relaying its output; returns its exit code."""
    return subprocess.run([binary] + args, cwd=ROOT).returncode


def run_all(binary, args, out):
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run([binary, "--workload", workload] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            fail(f"{workload} produced no result", 1)
        results[workload] = {
            "record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1]),
        }
        print_result(workload, results[workload])
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"workloads": results}, f, indent=1)
    print(f"wrote {out}")
    return 0 if all(r["result"]["correct"] for r in results.values()) else 1


def print_result(workload, entry):
    result, stamp = entry["result"], entry["record"]["stamp"]
    print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} cores={stamp['cores']} n={stamp['n']} "
          f"m={stamp['m']} seed={stamp['seed']} rev={stamp['git_rev'][:12]}")
    for name, m in result["metrics"].items():
        print(f"  {name:32} {m['value']:14.6g} {m['unit']}")


def metric_specs():
    """Metric name -> its BENCHMARK.json entry (direction, bound), if present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def compare(old_path, new_path):
    """Prints each metric's change; a worsening beyond the metric's bound
    is flagged as a regression."""
    with open(old_path) as f:
        old = json.load(f)["workloads"]
    with open(new_path) as f:
        new = json.load(f)["workloads"]
    specs = metric_specs()
    for workload in [w for w in WORKLOADS if w in old and w in new]:
        o, n = old[workload], new[workload]
        print(f"{workload}: {o['record']['stamp']['git_rev'][:12]} -> "
              f"{n['record']['stamp']['git_rev'][:12]}")
        for name, m in n["result"]["metrics"].items():
            if name not in o["result"]["metrics"]:
                continue
            a, b = o["result"]["metrics"][name]["value"], m["value"]
            change = (b - a) / abs(a) if a else float("nan")
            spec = specs.get(name, {})
            verdict = ""
            if spec.get("better") in ("lower", "higher") and a != b:
                worse = (b > a) == (spec["better"] == "lower")
                verdict = "worse" if worse else "better"
                if worse and "bound" in spec and abs(change) > spec["bound"]:
                    verdict = f"REGRESSION (bound {spec['bound']:.0%})"
            print(f"  {name:32} {a:14.6g} -> {b:14.6g} {m['unit']:6} {change:+9.2%}  {verdict}")
    return 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            fail("usage: run.py --compare OLD.json NEW.json")
        return compare(argv[1], argv[2])
    out = None
    if "--out" in argv:
        i = argv.index("--out")
        if i + 1 >= len(argv):
            fail("--out needs a file")
        out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    binary = build()
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        i = argv.index("--workload")
        rest = argv[:i] + argv[i + 2:]
        seed = rest[rest.index("--seed") + 1] if "--seed" in rest else "1"
        return run_all(binary, rest, out or os.path.join(ROOT, ".bench_out", f"results-seed{seed}.json"))
    return run_one(binary, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
