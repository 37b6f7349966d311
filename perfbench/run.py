"""susyxyz benchmark: one workload, measured in fresh Python processes.

    python3 perfbench/run.py --workload exact-certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every timed run of the workload is a new process, because the
program's module-level caches would turn a second run in one process into
dictionary lookups, and a ``susyxyz`` user pays the cold cost on every call.
One parent thread runs one child at a time; BLAS keeps its default thread
count.

The run first spawns set-up-only children (interpreter start plus the
workload's imports), then timed children until ``--seconds`` would be
exceeded (at least one).  With ``--trace 1`` the timed children alternate
untraced and traced (at least one of each); the per-layer numbers come from
the traced ones.  Human-readable lines start with ``#``; the last line is
the JSON result.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from inputs import WORKLOADS
from spans import covered, self_time_by_name

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 5
DEADLINE_S = 170.0

#: spans whose metric is the mean time per call rather than the total
PER_CALL_SPANS = {"thetanum.identity_suite", "thetanum.baxter"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles(n=4)
    gives them; a single value is its own quartiles."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(child: dict) -> dict[str, float]:
    """Per-layer numbers of one traced child: each span name's self time as
    ``<name>_s``, the child's size counts, and the wall time no span covers."""
    spans = child["spans"]
    selfs = self_time_by_name(spans)
    calls: dict[str, int] = {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    got = {
        f"{name}_s": total / (calls[name] if name in PER_CALL_SPANS else 1)
        for name, total in selfs.items()
    }
    got["corrfn.f_in_Z_n8_s"] = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "corrfn.f_in_Z" and s.get("n") == 8
    )
    got["trace.uncovered_s"] = child["wall_s"] - covered(spans)
    got.update(child["sizes"])
    return got


# -- environment -------------------------------------------------------------

def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(root: str, seed: int) -> dict:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "susyxyz", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(root),
        "source_sha256": h.hexdigest(),
        "seed": seed,
    }


# -- children ----------------------------------------------------------------

def spawn(root: str, argv: list[str], deadline: float) -> dict:
    """Run one child to completion; its result gains ``setup_s``, the time
    from spawn until its imports were done."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, *argv], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t_spawn
    return res


def run(args, root: str) -> dict:
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    # the first import of a checkout writes bytecode; that is not set-up cost
    spawn(root, [*base, "--setup-only"], deadline)
    setups = [spawn(root, [*base, "--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]

    untraced, traced = [], []
    t_timed = time.monotonic()
    while True:
        k = len(untraced) + len(traced)
        trace = bool(args.trace) and k % 2 == 1
        child = spawn(root, [*base, "--trace", str(int(trace)),
                             "--run-id", f"{args.workload}-{args.seed}-{k}"], deadline)
        (traced if trace else untraced).append(child)
        setups.append(child["setup_s"])
        done = len(untraced) + len(traced)
        elapsed = time.monotonic() - t_timed
        enough = done >= (2 if args.trace else 1)
        if enough and elapsed * (done + 1) / done > args.seconds:
            break

    children = untraced + traced
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    unexpected = sorted({n for c in children for n in c["unexpected"]})
    margins = [c["min_margin_decades"] for c in children if c["min_margin_decades"] is not None]

    walls = [c["wall_s"] for c in untraced]
    u_attempted = sum(c["attempted"] for c in untraced)
    u_failed = sum(c["failed"] for c in untraced)
    e2e = {
        "wall_s": quartiles(walls),
        "setup_s": quartiles(setups),
        "peak_rss_mib": quartiles([c["peak_rss_kib"] / 1024 for c in untraced]),
        "pass_ratio": ((u_attempted - u_failed) / u_attempted,) * 3,
    }
    report = {
        "e2e": e2e,
        "samples": {"wall_s": len(walls), "setup_s": len(setups), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else None,
        "min_margin_decades": min(margins) if margins else None,
        "unexpected": unexpected,
        "failed_checks": children[0]["failed_checks"],
        "digests": children[0]["digests"],
        "correct": attempted > 0 and not unexpected,
    }
    if traced:
        per_child = [layer_metrics(c) for c in traced]
        names = {n for m in per_child for n in m}
        layers = {n: statistics.median(m.get(n, 0.0) for m in per_child) for n in names}
        layers["trace.overhead_s"] = (
            statistics.median(c["wall_s"] for c in traced) - statistics.median(walls))
        report["layers"] = layers
    return report


# -- output ------------------------------------------------------------------

def _fmt(v) -> str:
    return "null" if v is None else f"{v:.6g}"


def result_line(report: dict, bench: dict, trace: bool) -> dict:
    if trace:
        layers = report["layers"]
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": report["e2e"][m["name"]][1], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report: dict, bench: dict, env: dict, workload: str):
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {workload}: {report['samples']}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, (q1, med, q3) in report["e2e"].items():
        print(f"# {name} = {_fmt(med)} {units.get(name, '')} (q1 {_fmt(q1)}, q3 {_fmt(q3)})")
    print(f"# fail_ratio = {_fmt(report['fail_ratio'])} "
          f"(failed {report['failed']} of {report['attempted']} checks)")
    print(f"# min_margin_decades = {_fmt(report['min_margin_decades'])}")
    for f in report["failed_checks"]:
        print(f"# failed check: {json.dumps(f, sort_keys=True)}")
    if report["unexpected"]:
        print(f"# unexpected failures: {report['unexpected']}")
    print(f"# digests {json.dumps(report['digests'], sort_keys=True)}")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, v in sorted(report.get("layers", {}).items()):
        print(f"# layer {name} = {_fmt(v)} {units.get(name, '')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="susyxyz benchmark (cold process per run)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "susyxyz", "__init__.py")):
            raise BenchError(f"no susyxyz sources under {os.path.join(root, 'src')}")
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        env = environment(root, args.seed)
        report = run(args, root)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print_report(report, bench, env, args.workload)
    print(json.dumps(result_line(report, bench, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
