#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, a traced twin.

One workload, as the driver calls it (last stdout line is the result)::

    python3 bench/run.py --workload serve_churn --seed 11 --seconds 20 --trace 0

Everything, for a person (each workload in its own child process, first
untraced for the end-to-end metrics, then traced for the per-layer
ones)::

    python3 bench/run.py            # about 4 minutes
    python3 bench/run.py --quick    # about 30 s, numbers not comparable
    python3 bench/run.py --aa       # two untraced sets, compared to the bounds

See ``bench/README.md`` for what each metric means and which layer is
expected to move it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time

_STARTED = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

MODULES = {
    "serve_steady": "wl_serve",
    "serve_churn": "wl_serve",
    "ingest_recover": "wl_ingest",
    "train_epoch": "wl_train",
}
DEFAULT_SEED = 11
QUICK_SECONDS = 2.0
#: Environment variables that cap BLAS / OpenMP worker threads.  The
#: harness is one thread on a 2-core box; a BLAS pool would share those
#: cores with the loop being timed.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _prepare_imports() -> None:
    """Pin BLAS to one thread and make ``repro`` importable.

    Must run before numpy is first imported: OpenBLAS sizes its pool
    when the library loads.
    """
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def _fresh_import_seconds(module: str) -> float:
    """Import time of ``harness`` and ``module`` in a new interpreter."""
    code = (
        "import os, sys, time\n"
        "started = time.perf_counter()\n"
        f"for name in {THREAD_VARS!r}: os.environ[name] = '1'\n"
        f"sys.path[:0] = [{os.path.join(REPO_ROOT, 'src')!r}, {BENCH_DIR!r}]\n"
        f"import harness, {module}\n"
        "print(time.perf_counter() - started)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _check_against_spec(spec: dict, result: dict, traced: bool):
    """The metrics to print, and what the result owes the contract."""
    problems = []
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    undeclared = [name for name in result["e2e"] if name not in end_to_end]
    undeclared += [name for name in result["layers"] if name not in per_layer]
    if undeclared:
        problems.append(f"metrics not declared in BENCHMARK.json: {undeclared}")
    for name in end_to_end:
        if not result["e2e"].get(name, 0.0) > 0.0:
            problems.append(f"end-to-end metric {name} is missing or not positive")
    if traced:
        # Every declared layer metric is printed on every workload; one
        # that the workload never exercises reads 0.
        metrics = {name: result["layers"].get(name, 0.0) for name in per_layer}
        units = per_layer
    else:
        metrics = {name: result["e2e"].get(name, 0.0) for name in end_to_end}
        units = end_to_end
    return {
        name: {"value": float(value), "unit": units[name]["unit"]}
        for name, value in metrics.items()
    }, problems


def run_one(args) -> int:
    """Run one workload in this process and print its result."""
    _prepare_imports()
    spec = _load_spec()
    import harness
    module = importlib.import_module(MODULES[args.workload])
    import_s = [time.perf_counter() - _STARTED]
    if not args.quick:
        import_s += [_fresh_import_seconds(MODULES[args.workload])
                     for _ in range(3)]

    traced = bool(args.trace)
    result = module.run(args.workload, args.seed, args.seconds, traced,
                        args.quick, import_s)
    metrics, problems = _check_against_spec(spec, result, traced)
    problems = result["problems"] + problems
    outcome = {
        "correct": not problems,
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }

    label = args.workload + (" [traced]" if traced else "")
    if args.quick:
        label += " [QUICK: not comparable with full runs]"
    print(f"== {label} seed={args.seed} seconds={args.seconds:g}")
    for name, metric in metrics.items():
        print(f"{args.workload:15s} {name:40s} {metric['value']:16.6f} {metric['unit']}")
    print(f"{args.workload:15s} ops_attempted={outcome['attempted']} "
          f"ops_failed={outcome['failed']}")
    for problem in problems:
        print(f"{args.workload:15s} PROBLEM: {problem}")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "quick": args.quick,
        **harness.environment(),
        "threads": {name: os.environ[name] for name in THREAD_VARS},
        **result["info"],
    }
    print(f"{args.workload:15s} stamp: {json.dumps(stamp)}")
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-traced" if traced else ""
    (harness.OUT_DIR / f"result-{args.workload}{suffix}.json").write_text(
        json.dumps({"stamp": stamp, "problems": problems, **outcome,
                    "end_to_end": result["e2e"], "per_layer": result["layers"]},
                   indent=1) + "\n")
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


def _child(workload: str, args, trace: int) -> dict:
    """Run one workload in a child process; return its parsed result.

    The child's report lines are passed through.  A result that cannot
    be read counts as a failed run (``ok`` false), with the child's
    stderr shown.
    """
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, ValueError):
        outcome = {}
    outcome["ok"] = (done.returncode == 0 and outcome.get("correct", False)
                     and outcome.get("failed", 1) == 0)
    if not outcome["ok"]:
        sys.stderr.write(done.stderr[-4000:])
    return outcome


def run_suite(args) -> int:
    """Every workload, each in its own process so peaks do not leak."""
    workloads = [w["name"] for w in _load_spec()["workloads"]]
    traces = [0, 1] if args.trace is None else [args.trace]
    outcomes = [_child(workload, args, trace)
                for trace in traces for workload in workloads]
    good = sum(outcome["ok"] for outcome in outcomes)
    print(f"== {good} of {len(outcomes)} runs correct with no failed operation")
    return 0 if good == len(outcomes) else 1


def run_aa(args) -> int:
    """Two sets of untraced runs of the same code against the bounds."""
    spec = _load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    sets = [{w: _child(w, args, 0) for w in workloads} for _ in range(2)]
    breaches = 0
    print("== A/A: relative difference of the second set against the first")
    for workload in workloads:
        first, second = sets[0][workload], sets[1][workload]
        if not (first["ok"] and second["ok"]):
            print(f"{workload:15s} FAILED RUN")
            breaches += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = "BREACH" if worse > metric["bound"] else "ok"
            breaches += flag == "BREACH"
            print(f"{workload:15s} {name:20s} {a:14.4f} {b:14.4f} "
                  f"{worse:+8.3f} bound {metric['bound']:.2f} {flag}")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="small worlds and short windows; same code "
                             "paths, numbers not comparable")
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced suite twice and compare")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick \
            else float(_load_spec()["run_seconds"])
    if args.aa:
        return run_aa(args)
    if args.workload is None:
        return run_suite(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
