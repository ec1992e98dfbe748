#!/usr/bin/env python3
"""hmfem benchmark: time to solution per workload, and a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref17 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json:
``run_s`` and ``setup_s`` (wall times normalized by a probe kernel timed
just before and after each timed call, see probe.py) and ``peak_rss_mb``;
it prints the raw wall times too.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer split of the median traced
one.  ``--seconds`` counts from the start of the warm-up.  Every run passes
the correctness gate in ``workloads.py``.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every value with its unit, the timing
samples and the environment.
"""

import os

# One process, one thread: pin every BLAS/OpenMP pool before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import Probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Repetitions measured even when one overruns the window, so every
#: median has at least two samples.
MIN_REPS = 2
#: Set-up is timed at least this many times, and for at least
#: SETUP_SECONDS, per run and reported as the median.
SETUP_SAMPLES = 3
SETUP_SECONDS = 2.0
#: Percentiles tried, highest first, for the tail of a timing.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def summarize(xs: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    import numpy as np

    tail = None
    for q in TAIL_LADDER:
        if len(xs) * (1 - q / 100) >= 10:
            tail = {"p": q, "value": float(np.percentile(xs, q))}
            break
    return {"median": statistics.median(xs), "tail": tail, "n": len(xs), "samples": xs}


def timing_note(d: dict) -> str:
    tail = (
        f"p{d['tail']['p']:g} = {d['tail']['value']:.6g}"
        if d["tail"]
        else "no percentile has 10 samples beyond it"
    )
    return f"median of n={d['n']}; {tail}"


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return None


def environment(args, wl) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "hmfem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    n = wl.n
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": wl.name,
        "n": n,
        "dofs": (n - 1) ** 2,
        "elements": 2 * (n - 1) ** 2,
        "runs": [f"{r.key}@T={r.T:g}" for r in wl.runs],
    }


class Bench:
    """One workload in one process: repetitions, their outcomes and timings."""

    def __init__(self, wl, seed: int, tmp: Path):
        from workloads import mass_matrices

        self.probe = Probe()
        self.wl = wl
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.masses = mass_matrices(wl)
        self.outcomes = []

    def repetition(self, span, probe: bool = False) -> tuple[float, float, list]:
        """Run every (test, method) once in a seed-determined order.

        Returns the summed wall time of the user-facing calls, the same sum
        normalized by the probe (only with ``probe``, else 0), and the
        outcomes.  The gate's checks and the probe run outside the timers.
        """
        from workloads import check_agreement

        order = list(self.wl.runs)
        self.rng.shuffle(order)
        gc.collect()  # start every repetition from the same heap state
        outs = []
        wall = scaled = 0.0
        for run in order:
            before = self.probe.before() if probe else 0.0
            out = self._call(run, span)
            if probe:
                scaled += self.probe.normalize(out.seconds, before)
            wall += out.seconds
            outs.append(out)
        check_agreement(self.wl, outs, self.masses)
        for o in outs:
            o.final = None  # keep no solution vectors past the gate
        self.outcomes.extend(outs)
        return wall, scaled, outs

    def setup(self) -> tuple[float, float]:
        """One set-up timing: wall seconds and seconds normalized by the probe."""
        from workloads import setup_once

        before = self.probe.before()
        seconds = setup_once(self.wl)
        return seconds, self.probe.normalize(seconds, before)

    def _call(self, run, span):
        from workloads import Outcome, run_cli, run_library

        try:
            if self.wl.cli:
                return run_cli(self.wl, run, span, self.tmp)
            return run_library(self.wl, run, span)
        except Exception as exc:  # a raising run is a failed run, not a crash
            return Outcome(run, failures=[f"{run.key}: {type(exc).__name__}: {exc}"])


def warm_up() -> None:
    import hmfem

    cfg = hmfem.SolverConfig(tau=0.1, method="modified")
    hmfem.run(hmfem.preset(2), cfg, 0.2, n=17)


def measure_end_to_end(bench: Bench, start: float, seconds: float) -> tuple[dict, dict]:
    """Set-up timings, then repetitions until the window from ``start`` ends."""
    from workloads import untraced

    setup_wall: list[float] = []
    setup: list[float] = []
    until = time.perf_counter() + SETUP_SECONDS
    while len(setup) < SETUP_SAMPLES or time.perf_counter() < until:
        wall, scaled = bench.setup()
        setup_wall.append(wall)
        setup.append(scaled)
    run_wall: list[float] = []
    runs: list[float] = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        wall, scaled, _ = bench.repetition(untraced, probe=True)
        run_wall.append(wall)
        runs.append(scaled)
        longest = max(longest, time.perf_counter() - t0)
        if len(runs) >= MIN_REPS and time.perf_counter() + longest > start + seconds:
            break
    values = {
        "run_s": statistics.median(runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "run_s": summarize(runs),
        "setup_s": summarize(setup),
        "run_wall_s": summarize(run_wall),
        "setup_wall_s": summarize(setup_wall),
    }
    return values, detail


def _traced_repetition(bench: Bench, tracer_cls) -> tuple[float, list, list]:
    tracer = tracer_cls()
    tracer.install()
    try:
        run_s, _, outs = bench.repetition(tracer.span)
    finally:
        tracer.uninstall()
    return run_s, tracer.spans, outs


def measure_layers(bench: Bench, start: float, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced repetitions; split the median traced one.

    The pairs swap their order each time, and the tracing overhead is the
    median of the paired relative differences, so a drift in host speed
    cancels instead of reading as overhead.
    """
    from spans import SELF_TIME_METRICS, Tracer, layer_metrics
    from workloads import untraced

    plain: list[float] = []
    traced: list[tuple[float, list, list]] = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        if len(plain) % 2 == 0:
            plain.append(bench.repetition(untraced)[0])
            traced.append(_traced_repetition(bench, Tracer))
        else:
            traced.append(_traced_repetition(bench, Tracer))
            plain.append(bench.repetition(untraced)[0])
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() + longest > start + seconds:
            break

    overhead = statistics.median((t[0] - p) / p for t, p in zip(traced, plain))
    run_s, spans, outs = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    values, ratios, by_method = layer_metrics(spans, bench.wl.elements)
    base = statistics.median(plain)
    attributed = sum(values[m] for m in SELF_TIME_METRICS.values())
    values.update(
        {
            "cli.bytes_written": sum(o.bytes_written for o in outs),
            "other_s": run_s - attributed,
            "trace.run_s": run_s,
            "trace.untraced_run_s": base,
            "trace.overhead_s": overhead * base,
            "trace.overhead_share": overhead,
        }
    )
    detail = {
        "ratios": ratios,
        "by_method": by_method,
        "trace.untraced_run_s": summarize(plain),
        "trace.run_s": summarize([t[0] for t in traced]),
    }
    return values, detail


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "hmfem" / "__init__.py").is_file():
        print(f"perfbench: no hmfem sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = environment(args, wl)
    print("# env " + json.dumps(env), flush=True)

    start = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        warm_up()
        bench = Bench(wl, args.seed, tmp)
        if args.trace:
            values, detail = measure_layers(bench, start, args.seconds)
            listed = declared["per_layer"]
        else:
            values, detail = measure_end_to_end(bench, start, args.seconds)
            listed = declared["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(bench.outcomes)
    failures = [f for o in bench.outcomes for f in o.failures]
    failed = sum(1 for o in bench.outcomes if o.failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in values.items():
        line = f"{wl.name} {name} = {value:.6g} {units[name]}"
        if name in detail:
            line += f"  ({timing_note(detail[name])})"
        print(line)
    for name in ("run_wall_s", "setup_wall_s"):
        if name in detail:
            d = detail[name]
            print(f"{wl.name} {name} = {d['median']:.6g} s  (raw wall, not gated; {timing_note(d)})")
    print(f"{wl.name} failed_share = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    for f in failures[:20]:
        print(f"FAIL {f}")
    report = {"values": values, "detail": detail, "failures": failures[:20]}
    print("# report " + json.dumps(report))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
