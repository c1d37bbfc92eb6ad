"""trisep benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload count --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``count`` and
``isolate``.  One process, one client,
no threads: each request starts when the previous one has returned.  The
run warms up on instances outside the timed set, then sends whole rounds of
the seeded corpus until ``--seconds`` of request time have passed.  Every
answer is then checked by an independent referee; a wrong answer exits 1
and prints no metrics.  Failed requests (typed trisep errors and untyped
exceptions alike) stay in the corpus and are counted by exception type.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds run under the span wrappers of ``spans.py``,
half the time each, and prints the per-layer metrics, the import times
and the tracing overhead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21
IMPORT_REPEATS = 5
WARMUP_SECONDS = 0.5
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND_MIN = 10

SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); from trisep.cli import main; "
    "sys.exit(main(['count', '2,0;-3,1;1,2']))"
)
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import trisep.cli; print(time.perf_counter() - t)"
)
IMPORTTIME_RE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*trisep\.oracle\s*$")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="trisep benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# fresh-interpreter timings

def _spawn(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code.format(src=str(SRC))],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)


class SetupSampler:
    """Wall times of fresh interpreters running one trivial CLI request.

    The SETUP_REPEATS samples are spread over the timed phase, one whenever
    another 1/SETUP_REPEATS of its request time has passed, and taken
    between rounds, outside the timed requests.  Spread so, their median
    sees the host's speed over the whole run, not over one moment of it.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.samples: list = []
        _spawn(SETUP_CODE)  # writes the bytecode caches; not timed

    def due(self, busy: float) -> None:
        while (len(self.samples) < SETUP_REPEATS
               and busy >= len(self.samples) * self.seconds / SETUP_REPEATS):
            self._sample()

    def finish(self) -> list:
        while len(self.samples) < SETUP_REPEATS:
            self._sample()
        return self.samples

    def _sample(self) -> None:
        t0 = time.perf_counter()
        proc = _spawn(SETUP_CODE)
        self.samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"trivial CLI request failed: {proc.stderr.strip()}")


def measure_imports() -> tuple:
    """Median (import trisep.cli, cumulative trisep.oracle) in seconds."""
    _spawn(IMPORT_CODE)
    cli, oracle = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_CODE.format(src=str(SRC))],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        cli.append(float(proc.stdout.strip().splitlines()[-1]))
        oracle.append(sum(int(m.group(1)) for line in proc.stderr.splitlines()
                          if (m := IMPORTTIME_RE.search(line))) / 1e6)
    return statistics.median(cli), statistics.median(oracle)


# ---------------------------------------------------------------------------
# the closed loop

class Phase:
    """One phase of the closed loop: whole rounds until ``seconds`` of requests.

    Each round's answers go to the referee right after the round, outside
    the timed requests, and are then dropped.  Per request only its time is
    kept, 8 bytes in its family's array, and a failure only bumps its
    exception type's count, so the harness's memory stays out of the
    peak RSS figure whatever the number of requests.
    """

    def __init__(self, workload, check, tracer=None):
        self.workload = workload
        self.check = check
        self.tracer = tracer
        self.latencies: dict = {}
        self.failures: Counter = Counter()
        self.attempted = 0
        self.busy = 0.0

    def run(self, stream, seconds: float, after_round=None) -> None:
        while self.busy < seconds or not self.attempted:
            self.run_round(stream)
            if after_round is not None:
                after_round(self.busy)

    def run_round(self, stream) -> None:
        """One round; a tracer's wrappers are installed for its requests only."""
        round_ = stream.next_round()
        if self.tracer is not None:
            self.tracer.install()
        try:
            answers = [(inst, self._one(inst)) for inst in round_]
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        for inst, answer in answers:
            if answer is not None:
                self.check(inst, answer)

    def _one(self, inst):
        if self.tracer is None:
            result, error, dt = self._timed(inst)
        else:
            with self.tracer.request(self.attempted):
                result, error, dt = self._timed(inst)
        self.busy += dt
        self.attempted += 1
        self.latencies.setdefault(inst.family, array("d")).append(dt)
        if error:
            self.failures[error] += 1
            return None
        return self.workload.answer(result)

    def _timed(self, inst):
        t0 = time.perf_counter()
        try:
            result = self.workload.request(*inst.args)
        except Exception as exc:  # counted by type; the run goes on
            return None, type(exc).__name__, time.perf_counter() - t0
        return result, None, time.perf_counter() - t0

    @property
    def ok(self) -> int:
        return self.attempted - sum(self.failures.values())


def tail_latency(latencies: list) -> tuple:
    """(percentile, value): the highest ladder percentile with >= 10 beyond."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND_MIN:
            return p, xs[rank - 1]
    return 100, xs[-1]


# ---------------------------------------------------------------------------
# provenance

def _commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "trisep").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, families, warmup_families, tail_p, failures) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "corpus": families, "warmup_corpus": warmup_families,
        "tail_percentile": tail_p, "failures_by_type": failures,
        "python": platform.python_version(), "nproc": nproc,
        "commit": _commit(), "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trisep" / "__init__.py").is_file():
        print(f"perfbench: no trisep sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trisep
    if Path(trisep.__file__).resolve().parent != SRC / "trisep":
        print(f"perfbench: imported trisep from {trisep.__file__}", file=sys.stderr)
        return 2
    import referees
    import spans
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]

    setup = SetupSampler(args.seconds) if args.trace == 0 else None
    imports = measure_imports() if args.trace == 1 else None

    check = functools.partial(referees.check, args.workload)
    seen = wl.SeenFilter()
    phases = []
    tracer = None
    try:
        warm = Phase(workload, check)
        warm.run(wl.Stream(workload, args.seed, "warmup", seen), WARMUP_SECONDS)
        stream = wl.Stream(workload, args.seed, "timed", seen)
        if args.trace == 0:
            phases.append(Phase(workload, check))
            phases[0].run(stream, args.seconds, setup.due)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            # traced and untraced rounds alternate, so both see the same
            # host speed and the same cache history
            tracer = spans.Tracer()
            phases = [Phase(workload, check), Phase(workload, check, tracer)]
            ln_cached = getattr(sys.modules["trisep.bigmath"], "_ln_cached", None)
            cache = [0, 0]
            while min(ph.busy for ph in phases) < args.seconds / 2:
                phases[0].run_round(stream)
                info0 = ln_cached.cache_info() if ln_cached is not None else None
                phases[1].run_round(stream)
                if info0 is not None:
                    info1 = ln_cached.cache_info()
                    cache[0] += info1.hits - info0.hits
                    cache[1] += info1.misses - info0.misses
            if tracer.missing:
                print(f"perfbench: trace targets not found: {tracer.missing}",
                      file=sys.stderr)
    except referees.RefereeError as exc:
        print(f"perfbench: WRONG ANSWER: {exc}", file=sys.stderr)
        return 1

    by_family: dict = {}
    for ph in phases:
        for family, times in ph.latencies.items():
            by_family.setdefault(family, []).extend(times)
    latencies = [dt for times in by_family.values() for dt in times]
    attempted = len(latencies)
    failed = attempted - sum(ph.ok for ph in phases)
    tail_p, tail_v = tail_latency(latencies)
    if args.trace == 0:
        ph = phases[0]
        setup_samples = setup.finish()
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (ph.ok / ph.busy, "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (tail_v * 1e3, "ms"),
            "ok_ratio": (ph.ok / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        untraced, traced = phases
        metrics = tracer.layer_metrics(traced.attempted, *cache)
        traced_ops = traced.ok / traced.busy
        metrics["cli.import_s"] = (imports[0], "s")
        metrics["oracle.import_s"] = (imports[1], "s")
        metrics["trace.ops_per_s"] = (traced_ops, "1/s")
        metrics["trace.overhead_ops_per_s"] = (untraced.ok / untraced.busy - traced_ops, "1/s")

    prov = provenance(args, {k: len(v) for k, v in sorted(by_family.items())},
                      {k: len(v) for k, v in sorted(warm.latencies.items())}, tail_p,
                      dict(sum((ph.failures for ph in phases), Counter())))
    if setup is not None:
        prov["setup_samples_s"] = setup_samples
    prov["latency_p50_ms_by_family"] = {k: statistics.median(v) * 1e3
                                        for k, v in sorted(by_family.items())}
    print("provenance " + json.dumps(prov, sort_keys=True))
    failed_ratio = failed / attempted
    print(f"failed_ratio = {failed_ratio!r} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
