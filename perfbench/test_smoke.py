"""Smoke test of the benchmark itself:  python3 -m pytest perfbench -q

A tiny corpus per workload passes the referees, the referees reject
corrupted answers, the trace wrappers leave the original objects in place
once removed, and the printed metrics are exactly those BENCHMARK.json
names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import referees  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _answered(name, seed=7):
    workload = wl.WORKLOADS[name]
    stream = wl.Stream(workload, seed, "smoke", wl.SeenFilter())
    out = []
    for inst in stream.next_round():
        out.append((inst, workload.answer(workload.request(*inst.args))))
    return out


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_corpus_passes_referees(name):
    for inst, answer in _answered(name):
        referees.CHECKS[name](inst, answer)


def test_referees_reject_wrong_answers():
    inst, answer = _answered("count")[0]
    bad = dict(answer, positive=answer["positive"] + 1)
    with pytest.raises(referees.RefereeError):
        referees.check_count(inst, bad)

    isolated = _answered("isolate")
    inst, answer = next((i, a) for i, a in isolated if i.family == "desk" and a)
    lo, hi, cert, side = answer[0]
    shifted = [(hi + 1, hi + 1 + (hi - lo), cert, side)] + answer[1:]
    with pytest.raises(referees.RefereeError):
        referees.check_isolation(inst, shifted)

    inst, answer = isolated[-1]
    with pytest.raises(referees.RefereeError):
        referees.check_isolation(inst, answer[1:])


def test_same_seed_same_corpus():
    for name, workload in wl.WORKLOADS.items():
        a = wl.Stream(workload, 3, "timed", wl.SeenFilter()).next_round()
        b = wl.Stream(workload, 3, "timed", wl.SeenFilter()).next_round()
        assert [i.key() for i in a] == [i.key() for i in b]


def test_no_instance_repeats():
    seen = wl.SeenFilter()
    for name, workload in wl.WORKLOADS.items():
        stream = wl.Stream(workload, 5, "timed", seen)
        keys = [i.key() for _ in range(3) for i in stream.next_round()]
        assert len(set(keys)) == len(keys)
        assert all(k in seen for k in keys)


def test_trace_wrappers_are_removed():
    import trisep
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer.patched)
        assert not tracer.missing
        for name in wl.WORKLOADS:
            workload = wl.WORKLOADS[name]
            for inst in wl.Stream(workload, 1, "smoke", wl.SeenFilter()).next_round()[:3]:
                with tracer.request(0):
                    workload.request(*inst.args)
    finally:
        tracer.uninstall()
    assert patched and not tracer.patched
    for holder, key, original in patched:
        assert vars(holder)[key] is original, f"{holder}.{key} still wrapped"
    assert trisep.ln_interval is sys.modules["trisep.bigmath"].ln_interval
    metrics = tracer.layer_metrics(3, 0, 0)
    assert metrics["bigmath.ln_interval.calls"][0] > 0
    assert metrics["dyadic.pow_int.calls"][0] > 0


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(cwd, *extra):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count",
                           "--seed", "1", "--seconds", "0.2", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_printed_metrics_match_benchmark_json():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        res = _result(_run(ROOT, "--trace", trace))
        assert res["correct"] is True and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
