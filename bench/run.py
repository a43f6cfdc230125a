"""slope-lab benchmark: three workloads, timed from outside the library.

Run from the root of a checkout (the directory that holds src/slope_lab):

    python3 bench/run.py --workload coverage --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, untraced then traced

Each round runs in a fresh interpreter (bench/worker.py) against the
checkout's own src/, so set-up time and the library's module-level caches
start from nothing, as they do for a user's command.  Rounds repeat until
another one would end after --seconds.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json (end-to-end ones untraced, per-layer ones with --trace 1).
See bench/README.md for what each metric measures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
WORKLOADS = ("coverage", "exact", "cauchy_sample")
ROUND_TIMEOUT_S = 150.0
# Each round times three pieces of reference work (worker.reference_parts)
# before, between and after its two timed parts.  Times in the result are
# scaled to the machine speed at which the reference parts take
# REFERENCE_S, about their times on the 2-core box the benchmark was
# written on, so that a host running faster or slower for minutes at a
# time moves a round and its references alike.  Each workload is scaled
# by the parts like its hot path: the coverage run spends its time in
# NumPy over large arrays, and the other two in interpreted code around
# quadrature and small arrays.
REFERENCE_S = {"quadrature": 0.08, "large_arrays": 0.045, "small_arrays": 0.035}
ALL_PARTS = tuple(REFERENCE_S)
SCALED_BY = {"coverage": ("large_arrays",), "exact": ALL_PARTS, "cauchy_sample": ALL_PARTS}


def speed_scale(refs, parts):
    """REFERENCE_S over the mean measured time of ``parts`` in ``refs``."""
    return sum(REFERENCE_S[p] for p in parts) / statistics.mean(sum(r[p] for p in parts) for r in refs)


def run_round(root, workload, seed, index, traced, spans):
    out = HERE / "runs" / f"{workload}-{seed}-{os.getpid()}-r{index}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["BENCH_SRC"] = str(root / "src")
    env.pop("SLOPE_LAB_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--round", str(index), "--trace", str(int(traced)), "--out", str(out),
           "--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    if traced:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=ROUND_TIMEOUT_S)
    wall = time.monotonic() - t0
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} round {index} exited with {proc.returncode}")
    res = json.loads(lines[-1])
    res["wall_s"] = wall
    res["traced"] = traced
    return res


def pooled_coverage_problems(rounds):
    hits = {m: sum(r["extra"]["hits"][m] for r in rounds) for m in checks.METHODS}
    total = sum(r["extra"]["ok"] for r in rounds)
    return checks.coverage_error_problems(hits, total)


def at_reference_speed(r, parts):
    """A round's end-to-end figures, each time scaled by the references
    taken just before and after it."""
    refs = r["refs"]
    return {
        "setup_s": r["setup_s"] * speed_scale(refs[:1], ALL_PARTS),
        "peak_rss_mb": r["rss_mb"],
        "main_op_s": r["timings"]["main"] * speed_scale(refs[0:2], parts),
        "second_op_s": r["timings"]["second"] * speed_scale(refs[1:3], parts),
    }


def run_workload(root, spec, workload, seed, seconds, trace):
    """Rounds until the next would end after ``seconds``; traced runs alternate
    traced and untraced rounds, starting traced, and make at least two."""
    spans = HERE / "runs" / f"{workload}-seed{seed}-spans.jsonl"
    if trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.unlink(missing_ok=True)
    rounds = []
    t_start = time.monotonic()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 0
        rounds.append(run_round(root, workload, seed, len(rounds), traced, spans))
        elapsed = time.monotonic() - t_start
        longest = max(r["wall_s"] for r in rounds)
        if not (trace and len(rounds) < 2) and elapsed + longest > seconds:
            break

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    problems = [p for r in rounds for p in r["problems"]]
    n_problems = sum(r["n_problems"] for r in rounds)
    if workload == "coverage":
        pooled = pooled_coverage_problems(rounds)
        problems += pooled
        n_problems += len(pooled)
    result = {
        "correct": n_problems == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "rounds": len(rounds),
        "work": rounds[0]["work"],
        "problems": problems,
        "end_to_end": {},
        "raw_end_to_end": {},
        "traced_end_to_end": {},
        "per_layer": {},
    }

    for name, rs in (("end_to_end", plain), ("traced_end_to_end", traced_rounds)):
        if rs:
            figs = [at_reference_speed(r, SCALED_BY[workload]) for r in rs]
            result[name] = {k: statistics.median(f[k] for f in figs) for k in figs[0]}
    if plain:
        result["raw_end_to_end"] = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "main_op_s": statistics.median(r["timings"]["main"] for r in plain),
            "second_op_s": statistics.median(r["timings"]["second"] for r in plain),
        }
    if traced_rounds:
        layers = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if m["unit"] == "count":
                # counts come from round 0, whose inputs depend only on the seed
                layers[name] = traced_rounds[0]["layers"].get(name, 0)
            else:
                layers[name] = statistics.median(
                    r["layers"].get(name, 0.0) * speed_scale(r["refs"], SCALED_BY[workload]) for r in traced_rounds)
        result["per_layer"] = layers
        (HERE / "runs" / f"{workload}-seed{seed}-layers.json").write_text(
            json.dumps({"per_layer": layers, "traced_end_to_end": result["traced_end_to_end"],
                        "end_to_end": result["end_to_end"]}, indent=2) + "\n")
    return result


def describe(workload, result, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e = result["end_to_end"]
    t = result["traced_end_to_end"]
    lines = [f"# workload {workload}: {result['rounds']} rounds, "
             f"{result['attempted']} operations attempted, {result['failed']} failed, "
             f"correct={result['correct']}"]
    for p in result["problems"][:20]:
        lines.append(f"#   problem: {p}")
    for label, figs in (("", e), ("unscaled ", result["raw_end_to_end"]), ("traced ", t)):
        for name, value in figs.items():
            lines.append(f"# {label}{name} = {value:.6g} {units[name]}")
    if e:
        lines += [f"# {name} = {value:.6g} {unit}" for name, value, unit in headline(workload, e, result["work"])]
    if e and t:
        for name in ("main_op_s", "second_op_s"):
            lines.append(f"# tracing overhead on {name}: {t[name] - e[name]:+.4g} s "
                         f"({100.0 * (t[name] / e[name] - 1.0):+.1f}%)")
    for name, value in result["per_layer"].items():
        lines.append(f"# {name} = {value:.6g} {units[name]}")
    return "\n".join(lines)


def headline(workload, e, work):
    """The workload's figures in the units a user reads them in."""
    if workload == "coverage":
        return [("coverage_reps_per_s", work["main"] / e["main_op_s"], "replicates/s"),
                ("coverage_reps_per_s_2t", work["second"] / e["second_op_s"], "replicates/s")]
    if workload == "exact":
        return [("exact_s", e["main_op_s"] + e["second_op_s"], "s")]
    return [("cauchy_sample_per_s", work["main"] / e["main_op_s"], "samples/s"),
            ("slope_mc_draws_per_s", work["second"] / e["second_op_s"], "draws/s")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "slope_lab" / "__init__.py").is_file():
        print(f"no src/slope_lab under {root}: run from the root of a slope-lab checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    if args.workload == "all":
        summary = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(root, spec, workload, args.seed, args.seconds, trace)
                print(describe(workload, result, spec), flush=True)
                summary[f"{workload}/trace={trace}"] = {
                    k: result[k] for k in ("correct", "attempted", "failed", "end_to_end", "per_layer")}
        print(json.dumps(summary))
        return 0

    result = run_workload(root, spec, args.workload, args.seed, args.seconds, args.trace)
    print(describe(args.workload, result, spec))
    if args.trace:
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
