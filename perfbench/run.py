"""End-to-end benchmark of the online train→publish→serve loop.

    python3 perfbench/run.py --workload online_dlrm_cafe --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # --seconds defaults to run_seconds

Run from the repository root.  Each workload runs in a fresh Python process
(``perfbench/online.py``) with OpenBLAS, OpenMP and MKL pinned to one thread,
``PYTHONHASHSEED=0`` and ``REPRO_SANITIZE`` removed from its environment; the
program itself is not changed to do this.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones, from a separate run with layer spans.

Every metric is printed by name with its unit, then the operation counts,
then a host record (BLAS library and threads, CPUs, Python and numpy
versions, host steal time over the run); the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A copy of the result and
the host record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170.0


def steal_jiffies() -> int | None:
    """Host-wide steal time so far (``/proc/stat``), or None if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("REPRO_SANITIZE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload process; returns the final result object."""
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    steal_before = steal_jiffies()
    t0 = time.monotonic()
    command = [
        sys.executable, "-m", "perfbench.online",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--t0", repr(t0), "--out", str(OUT),
    ]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload {name} did not finish within {CHILD_TIMEOUT_S:.0f} s")
    wall_s = time.monotonic() - t0
    steal_after = steal_jiffies()
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"workload {name} exited with code {completed.returncode}")
    child = json.loads(lines[-1])
    missing = [m["name"] for m in expected if m["name"] not in child["metrics"]]
    if missing:
        raise SystemExit(f"workload {name} did not report {missing}")
    host = child["host"]
    host["steal_jiffies"] = (
        steal_after - steal_before if steal_before is not None and steal_after is not None else None
    )
    host["wall_s"] = wall_s
    result = {
        "correct": child["num_failures"] == 0,
        "attempted": sum(child["ops"].values()),
        "failed": sum(child["failed"].values()),
        "metrics": {
            m["name"]: {"value": child["metrics"][m["name"]], "unit": m["unit"]} for m in expected
        },
    }
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    for kind, count in child["ops"].items():
        print(f"{name} ops.{kind} attempted={count} failed={child['failed'][kind]}")
    for failure in child["failures"]:
        print(f"{name} CHECK FAILED: {failure}")
    print(f"{name} host {json.dumps(host, sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace, host=host)
    with open(OUT / f"result-{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
    chosen = names if args.workload == "all" else [args.workload]
    results = {name: run_workload(spec, name, args.seed, seconds, args.trace) for name in chosen}
    if len(results) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
