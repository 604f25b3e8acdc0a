"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table2-cold --seed 2014 \\
        --seconds 30 --trace 0

Workloads are ``table2-cold``, ``session-10k`` and ``http-zipf`` (see
perfbench/README.md).  With ``--trace 0`` the result holds the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it holds the per-layer
metrics of a traced run, compared against an untraced run of the same
inputs for the tracing overhead.  Human-readable lines come first; the
last line of standard output is the result as one JSON object.

Every workload runs in fresh interpreters (``child.py``) with the
program's escape hatches and fault injection removed from the
environment, so only the production path is measured.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("table2-cold", "session-10k", "http-zipf")
# Set-ups measured per run; setup_s is their median.
SETUP_SAMPLES = 3
# Children must finish within this many seconds of a run's start; a
# child past it gets STOP_GRACE seconds to stop what it started.
RUN_BUDGET = 140.0
STOP_GRACE = 35.0
SCRUBBED_ENV = ("REPRO_NO_INTERN", "REPRO_NO_COLUMNAR", "REPRO_FAULTS",
                "REPRO_LOG")


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def run(args) -> dict:
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program under {src}; run from a checkout root")
    spec = _spec(root)
    env = _environment(src)
    # Compile ahead so no run's set-up pays for writing bytecode.
    compileall.compile_dir(str(src), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)

    deadline = time.monotonic() + RUN_BUDGET
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        traced = _child(args, env, deadline, seconds=args.seconds / 2,
                        trace=1)
        children = [traced]
        untraced = traced.get("untraced_op_seconds")
        if untraced is None:
            # A workload that cannot interleave traced and untraced
            # operations is run again untraced on the same inputs.
            base = _child(args, env, deadline, seconds=args.seconds / 2,
                          trace=0)
            children.insert(0, base)
            untraced = base["op_seconds"]
        values = dict(traced["layers"])
        values["trace.op_ms"] = 1000.0 * traced["op_seconds"]
        values["trace.overhead_frac"] = traced["op_seconds"] / untraced - 1
        values["trace.unattributed_frac"] = traced["unattributed_frac"]
        names = spec["per_layer"]
    else:
        main_run = _child(args, env, deadline, seconds=args.seconds, trace=0)
        setups = [main_run["setup_s"]] + [
            _child(args, env, deadline, seconds=args.seconds, trace=0,
                   extra=("--setup-only",))["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        children = [main_run]
        values = dict(main_run["metrics"])
        values["setup_s"] = statistics.median(setups)
        names = spec["end_to_end"]
        print(f"# setup_s samples {json.dumps(setups)}")

    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise BenchError(f"metrics missing {missing}, unexpected {extra}")
    info = _info(root, children[-1])
    print(f"# env {json.dumps(info, sort_keys=True)}")
    for child in children:
        print(f"# input {json.dumps(child['inputs'], sort_keys=True)}")
        print(f"# checks {json.dumps(child['checks'], sort_keys=True)}")
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    correct = failed == 0 and all(child["ok"] for child in children)
    for name, unit in names.items():
        print(f"{name:<28} {values[name]:>14.6f} {unit}")
    print(f"{'attempted':<28} {attempted:>14d}")
    print(f"{'failed':<28} {failed:>14d}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in names.items()
        },
    }


def _spec(root: Path) -> dict:
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _environment(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(src)
    return env


def _child(args, env: dict, deadline: float, seconds: float, trace: int,
           extra: tuple[str, ...] = ()) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace), *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next child run")
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        # SIGTERM lets the child stop the server it started.
        proc.terminate()
        try:
            proc.communicate(timeout=STOP_GRACE)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise BenchError(f"{args.workload} did not finish in time") from exc
    if proc.returncode != 0:
        sys.stderr.write(stderr[-4000:])
        raise BenchError(
            f"{args.workload} child exited with {proc.returncode}"
        )
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{args.workload} child printed no result") from exc


def _info(root: Path, child: dict) -> dict:
    """What the result was measured on."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            # A checkout that is not a repository must not report the sha
            # of a repository it happens to sit in.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "numpy": child["have_numpy"],
    }


if __name__ == "__main__":
    sys.exit(main())
