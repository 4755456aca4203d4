#!/usr/bin/env python3
"""Benchmark for muharmonic: drives ``muharmonic.cli.main`` in-process.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 44 --trace 0

Run it from the root of a source checkout: the package is imported from that
checkout's ``src/``, never from an installed copy, and scratch files go to a
``.perfbench_*`` directory of the run's own there, removed at exit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it holds the environment and
every pass's time.  README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
MIN_WARM_PASSES = 2
# one fresh interpreter's set-up: import the package and build the catalog
_PROBE = ("import sys, time\n"
          "t0 = time.perf_counter()\n"
          "sys.path.insert(0, sys.argv[1])\n"
          "import muharmonic\n"
          "muharmonic.catalog()\n"
          "print(time.perf_counter() - t0)\n")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one first pass in this fresh interpreter and report it
    p.add_argument("--fresh", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _probe_setup() -> float:
    done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ environment

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_commit() -> str | None:
    """The checkout's commit, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(np, args, nproc: int) -> dict:
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------ passes

class RecordCapture:
    """Keeps every RunRecord the CLI gets back, by standing in for ``cli.run``.

    It calls ``experiments.run`` through the module, so a tracer installed
    later still sees the call.
    """

    def __init__(self, cli, experiments):
        self._cli, self._experiments = cli, experiments
        self.records = []

    def _run(self, cfg):
        record = self._experiments.run(cfg)
        self.records.append(record)
        return record

    def __enter__(self):
        self._original = self._cli.run
        self._cli.run = self._run
        return self

    def __exit__(self, *exc):
        self._cli.run = self._original
        return False


def _run_pass(cli, capture: RecordCapture, argvs) -> tuple[float, list]:
    """Time one pass; each call's stdout and stderr are captured, not printed."""
    capture.records.clear()
    calls = []
    gc.collect()  # every pass starts from a collected heap
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # a crash in the program is a failed pass, not a crashed benchmark
                rc = "exception"
                traceback.print_exc()
        calls.append((argv, rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, calls


def _out_dir_contents(out_dir: Path) -> tuple[dict, int]:
    """Files written in a pass, record timestamps removed, and their total size."""
    contents, size = {}, 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        if path.name.startswith("record_") and path.suffix == ".json":
            body = json.loads(data)
            body.pop("started", None)
            body.pop("finished", None)
            data = json.dumps(body, sort_keys=True).encode()
        contents[str(path.relative_to(out_dir))] = data
    return contents, size


def _check_pass(calls, records, out_dir: Path, reference):
    """Count the pass's checks and compare its output with the first pass's.

    Returns (attempted, failed, problems, signature, out_bytes).  A nonzero
    exit, or output that differs from the first pass, fails every check of
    the pass.
    """
    lines = [line for _, _, out, _ in calls for line in out.splitlines()
             if line.startswith(("[pass] ", "[FAIL] "))]
    attempted = max(len(lines), 1)
    failed = sum(line.startswith("[FAIL] ") for line in lines)
    problems = [f"{' '.join(argv)}: exit {rc}: {err.strip()[-300:]}"
                for argv, rc, _, err in calls if rc != 0]
    if len(records) != len(calls):
        problems.append(f"{len(records)} records for {len(calls)} calls")
    elif len(lines) != sum(len(r.checks) for r in records):
        problems.append("printed check lines do not match the records' checks")
    files, out_bytes = _out_dir_contents(out_dir)
    digest = hashlib.sha256()
    for part in [r.canonical_json().encode() for r in records] + \
            [name.encode() + b"\0" + data for name, data in files.items()]:
        digest.update(len(part).to_bytes(8, "little") + part)
    signature = digest.hexdigest()
    if reference is not None and signature != reference:
        problems.append("records or output files differ from the first pass")
    if problems:
        failed = attempted
    return attempted, failed, problems, signature, out_bytes


# ------------------------------------------------------------ measurement

def _fresh_first_pass(args) -> dict:
    """A first pass in a fresh interpreter: this script with ``--fresh``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--fresh"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        return {"wall": None, "attempted": 1, "failed": 1, "signature": None,
                "problems": [f"exit {done.returncode}: {done.stderr.strip()[-300:]}"]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def _next_pass(log, trace: bool) -> tuple[str, bool]:
    """The kind of the next pass, and whether the minimum is already met.

    Traced runs alternate untraced warm and traced passes, at least one of
    each.  Untraced runs add warm passes; past the minimum of warm passes, a
    first pass in a fresh interpreter comes whenever there are at least twice
    as many warm passes as first passes, so that one first pass does not set
    ``first_pass_s`` alone.
    """
    if not trace:
        if len(log["warm"]) < MIN_WARM_PASSES:
            return "warm", False
        return ("fresh" if 2 * len(log["first"]) <= len(log["warm"]) else "warm"), True
    if not log["warm"] or not log["traced"]:
        return ("warm" if not log["warm"] else "traced"), False
    return ("warm" if len(log["warm"]) <= len(log["traced"]) else "traced"), True


def _measure(args, deadline: float, work: Path, cli, experiments, tracing, argvs_for) -> dict:
    """Run the first pass, then further passes until the next one would end
    after ``deadline``; with ``--fresh``, the first pass only."""
    log = {"attempted": 0, "failed": 0, "problems": [], "first": [], "warm": [],
           "traced": [], "layer_samples": [], "signature": None}

    def one_pass(kind):
        if kind == "fresh":
            result = _fresh_first_pass(args)
            attempted, failed, problems = result["attempted"], result["failed"], result["problems"]
            if not problems and result["signature"] != log["signature"]:
                problems, failed = ["records or output files differ from the first pass"], attempted
            log["attempted"] += attempted
            log["failed"] += failed
            log["problems"] += [f"fresh pass: {p}" for p in problems]
            if result["wall"] is not None:
                log["first"].append(result["wall"])
            return
        out_dir = work / f"pass{sum(map(len, (log['first'], log['warm'], log['traced'])))}"
        out_dir.mkdir()
        argvs = argvs_for(args.seed, out_dir)
        if kind == "traced":
            with tracing.Tracer() as tracer:
                problems = tracer.check_installed()
                wall, calls = _run_pass(cli, capture, argvs)
            problems += tracer.check_restored() + tracer.check_times(wall)
        else:
            wall, calls = _run_pass(cli, capture, argvs)
            problems = []
        attempted, failed, more, signature, out_bytes = _check_pass(
            calls, capture.records, out_dir, log["signature"])
        shutil.rmtree(out_dir)
        problems += more
        log["signature"] = log["signature"] or signature
        if kind == "traced":
            log["layer_samples"].append((tracer, out_bytes))
        log["attempted"] += attempted
        log["failed"] += failed
        log["problems"] += [f"{kind} pass: {p}" for p in problems]
        log[kind].append(wall)

    with RecordCapture(cli, experiments) as capture:
        one_pass("first")
        while not args.fresh:
            kind, enough = _next_pass(log, args.trace)
            expected = statistics.median(log["first" if kind == "fresh" else kind] or log["first"])
            if enough and time.perf_counter() + expected > deadline:
                break
            one_pass(kind)
    return log


def _per_layer(args, tracing, log) -> dict:
    overhead = statistics.median(log["traced"]) - statistics.median(log["warm"])
    samples = [tracing.per_layer_metrics(tracer, out_bytes, overhead)
               for tracer, out_bytes in log["layer_samples"]]
    metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
               for name, (_, unit) in samples[0].items()}
    if args.workload == "suite":
        silent = [layer for layer in tracing.LAYERS if metrics[f"{layer}.calls"][0] == 0]
        if silent:
            log["problems"].append(f"layers with no traced call on suite: {silent}")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "muharmonic" / "__init__.py").is_file():
        print(f"perfbench: no muharmonic package under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # before numpy loads; set for this process and the interpreters it starts only
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    deadline = time.perf_counter() + args.seconds
    setup_samples = ([_probe_setup() for _ in range(SETUP_PROBES)]
                     if not (args.trace or args.fresh) else [])

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import muharmonic
    from muharmonic import cli, experiments

    muharmonic.catalog()
    own_setup = time.perf_counter() - start
    import numpy as np

    import tracer as tracing  # imports numpy, so only after OPENBLAS_NUM_THREADS is set

    with tempfile.TemporaryDirectory(prefix=".perfbench_", dir=ROOT) as work:
        argvs_for = workloads.prepare(args.workload, muharmonic, Path(work))
        log = _measure(args, deadline, Path(work), cli, experiments, tracing, argvs_for)
    if args.fresh:
        print(json.dumps({"wall": log["first"][0], "attempted": log["attempted"],
                          "failed": log["failed"], "problems": log["problems"],
                          "signature": log["signature"]}))
        return 0

    if args.trace:
        metrics = _per_layer(args, tracing, log)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "first_pass_s": (statistics.median(log["first"]), "s"),
            "wall_s": (statistics.median(log["warm"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for problem in log["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    detail = {
        "environment": _environment(np, args, nproc),
        "setup_probe_s": setup_samples,
        "in_process_setup_s": own_setup,
        "first_pass_s": log["first"],
        "warm_pass_s": log["warm"],
        "traced_pass_s": log["traced"],
        "fail_ratio": log["failed"] / log["attempted"],
        "problems": log["problems"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": log["failed"] == 0 and not log["problems"],
        "attempted": log["attempted"],
        "failed": log["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
