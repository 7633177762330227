"""Self-test of the benchmark at its smallest size.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` shrunk to seconds, untraced
and traced, each in its own process, and checks that

* every end-to-end and every per-layer metric is emitted with the unit
  ``BENCHMARK.json`` gives it, and the end-to-end values are positive;
* all answers pass their checks (``ok_share`` is 1.0);
* the traced run charges most of the timed phase to named layers and
  reports the remainder as ``trace.other_s``;
* as a negative control, one deliberately falsified serving answer
  lowers ``ok_share`` and clears ``correct``.

Exits non-zero with a message on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Class-constant overrides that shrink each workload to seconds.
SMALL = {
    "kernel-sweep": {"MAX_EDGES": 5_000, "PER_PARENT": 4, "KS": (64,)},
    "world-sweep": {"CONFIGS": 8, "MAX_NODES": 512},
    "serve-open": {"MAX_EDGES": 5_000, "RATE_HZ": 200.0, "HOT_GRAPHS": 3},
    "train-gcn": {"MAX_EDGES": 5_000, "EPOCHS": 3, "HIDDENS": (32,)},
}


def run_case(workload: str, trace: bool, corrupt: bool) -> None:
    """Child process: one shrunk run, result JSON on stdout."""
    import run

    run_dir = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    run._clean_env(run_dir)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    def configure(wl):
        for key, value in SMALL[workload].items():
            setattr(wl, key, value)
        wl.corrupt_one = corrupt

    try:
        result = run.measure(workload, 1, 1.0, trace, run_dir, configure)
    finally:
        run.release(run_dir)
    print(json.dumps(result))


def case(workload: str, trace: bool = False, corrupt: bool = False) -> dict:
    args = [sys.executable, os.path.abspath(__file__), "--case", workload,
            str(int(trace)), str(int(corrupt))]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} (trace={trace}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_metrics(label: str, result: dict, declared: dict) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(n for n in got if n in declared and got[n] != declared[n])
        fail(f"{label}: missing {missing}, undeclared {extra}, wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]):
            fail(f"{label}: {name} is {m['value']}")


def main() -> int:
    if len(sys.argv) == 5 and sys.argv[1] == "--case":
        run_case(sys.argv[2], sys.argv[3] == "1", sys.argv[4] == "1")
        return 0
    import run

    other = run._python_with_numpy()
    if other is not None:
        os.execv(other, [other, os.path.abspath(__file__)] + sys.argv[1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(SMALL):
        fail(f"BENCHMARK.json workloads {names} != {sorted(SMALL)}")

    for workload in names:
        plain = case(workload)
        check_metrics(f"{workload} untraced", plain, end_to_end)
        zero = [n for n, m in plain["metrics"].items() if not m["value"] > 0]
        if zero:
            fail(f"{workload}: end-to-end metrics not positive: {zero}")
        if not plain["correct"] or plain["failed"] or plain["metrics"]["ok_share"]["value"] != 1.0:
            fail(f"{workload}: answers failed their checks: {plain}")

        traced = case(workload, trace=True)
        check_metrics(f"{workload} traced", traced, per_layer)
        share = traced["metrics"]["trace.other_share"]["value"]
        if not 0 <= share < 0.5:
            fail(f"{workload}: only {1 - share:.0%} of the timed phase is in named layers")
        print(f"selftest: {workload}: ok ({plain['attempted']} operations, "
              f"{1 - share:.1%} of the timed phase in named layers)")

    bad = case("serve-open", corrupt=True)
    if bad["correct"] or not bad["metrics"]["ok_share"]["value"] < 1.0:
        fail(f"negative control: a falsified answer was not caught: {bad}")
    print(f"selftest: negative control: ok (ok_share "
          f"{bad['metrics']['ok_share']['value']:.4f}, correct={bad['correct']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
