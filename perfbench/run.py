"""rclcheck benchmark: time to verdict and decided share, end to end and per layer.

    python3 perfbench/run.py --workload fixtures --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, one after the other

Run from anywhere; the package is loaded from ``src/`` beside this
directory.  One check at a time in one process, no threads: a closed loop
with a single client.  The checks run in a fresh worker process
(``worker.py``), so peak memory is the run's own.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a traced run.  Human-readable lines come first; the last line is one
JSON object.  The exit code is 1 when an output is wrong, and 2 when the
benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Set-up is timed in this many fresh interpreters: the worker and ones
# that only set up.
SETUP_SAMPLES = 6
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def child(args: list[str]) -> dict:
    try:
        done = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past {WORKER_TIMEOUT_S}s") from None
    if done.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, listed: dict) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    result = child(common + ["--seconds", str(seconds), "--trace", str(trace)])
    if not trace:
        setups = [result["setup_s"]]
        setups += [child(common + ["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        result["setup_s"] = statistics.median(setups)
    attempted, failed, errors = result["attempted"], result["failed"], result["errors"]

    units = {"check_s.p90": "s", "failed_share": "ratio", "passes": "count",
             "wall_checks_per_s": "1/s", "host_slowdown": "ratio"}
    units.update(listed)
    print(f"== {workload}  seed {seed}  trace {trace}  attempted {attempted}  "
          f"verdicts {result['verdicts']}  root universe p50/max {result['root_universe']}")
    for name, value in result.items():
        if name in units or name.startswith("check_s.p50."):
            print(f"   {name:34} {value:.6g} {units.get(name, 's')}")
    for error in errors:
        print(f"   ERROR {error}")

    missing = [name for name in listed if name not in result]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result[name], "unit": unit} for name, unit in listed.items()},
    }


def main() -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: all of them")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        if not (ROOT / "src" / "rclcheck" / "__init__.py").is_file():
            raise BenchError(f"no rclcheck sources under {ROOT / 'src'}")
        section = "end_to_end" if args.trace == 0 else "per_layer"
        listed = {m["name"]: m["unit"] for m in spec[section]}
        workloads = [args.workload] if args.workload else names
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, listed)
                   for w in workloads}
    except (BenchError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if args.workload:
        out = results[args.workload]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
