"""Self-tests of the benchmark: tracer coverage, clean uninstall, digests.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import inspect
import json
import shutil
import subprocess
import sys
import types

import pytest

import bench
from tracer import MODULES, Tracer

distpac = bench.load_distpac()


def snapshot(package) -> dict:
    """Identity of every attribute of the distpac modules, of the classes they
    define, of every ``cli.PROTOCOLS`` entry and of every function's default
    arguments, keyed by location."""
    objs = {}
    for mod in [package] + [getattr(package, name) for name in MODULES]:
        for attr, obj in vars(mod).items():
            objs[(mod.__name__, attr)] = obj
            if isinstance(obj, types.FunctionType):
                objs[(mod.__name__, attr, "__defaults__")] = \
                    obj.__defaults__
                objs[(mod.__name__, attr, "__kwdefaults__")] = \
                    obj.__kwdefaults__
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    objs[(mod.__name__, attr, cattr)] = cobj
    for key, runner in package.cli.PROTOCOLS.items():
        objs[("PROTOCOLS", key)] = runner
    return objs


def span_total(tracer, name):
    return sum(rec[0] for agg in tracer.spans.values()
               for (_parent, span), rec in agg.items() if span == name)


def traced_run(name, seeds, tmp_path):
    wl = bench.Workload(name, tmp_path)
    tracer = Tracer(distpac)
    with tracer:
        points = []
        for i, seed in enumerate(seeds):
            tracer.begin(i)
            points.append(wl.run(seed, tracer))
    return wl, tracer, points


@pytest.mark.parametrize("name", ["center-k8", "desk-mix"])
def test_send_example_calls_equal_reported_examples(name, tmp_path):
    wl, tracer, points = traced_run(name, [0, 1], tmp_path)
    assert all(wl.matches(sp) for sp in points)
    examples = sum(int(row.split(",")[3])
                   for sp in points for row in sp.rows if row)
    assert examples > 0
    assert span_total(tracer, "channel.send_example") == examples
    assert sum(c.get("channel.drift_examples", 0)
               for c in tracer.counters.values()) == 0


def test_draw_sample_calls_include_every_importer(tmp_path):
    original = distpac.core.draw_sample
    importers = [mod for mod in [distpac] + list(Tracer(distpac).mods.values())
                 if vars(mod).get("draw_sample") is original]
    assert len(importers) >= 9
    code = original.__code__
    executed = [0]

    def count(frame, event, _arg):
        if event == "call" and frame.f_code is code:
            executed[0] += 1

    wl = bench.Workload("desk-mix", tmp_path)
    tracer = Tracer(distpac)
    with tracer:
        assert all(vars(mod)["draw_sample"] is not original
                   for mod in importers)
        tracer.begin(0)
        sys.setprofile(count)
        try:
            sp = wl.run(0, tracer)
        finally:
            sys.setprofile(None)
    assert wl.matches(sp)
    assert span_total(tracer, "core.draw_sample") == executed[0] > 0
    callers = {parent.split(".")[0] for (parent, name) in tracer.spans[0]
               if name == "core.draw_sample"}
    assert {"baseline", "closed", "core", "parity", "declist", "linear",
            "cli"} <= callers


def test_uninstall_restores_every_original(tmp_path):
    before = snapshot(distpac)
    wl, tracer, points = traced_run("halving-noisy", [0], tmp_path)
    after = snapshot(distpac)
    assert before.keys() == after.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    # halving's elimination loop evaluates the runtime threshold class
    # directly; those calls are concept evaluations, not agnostic time
    assert ("agnostic.run_robust_halving", "core.predict") in tracer.spans[0]
    grid = distpac.cli._threshold_class(3)
    assert not hasattr(type(grid[0]).predict, "__wrapped__")
    assert wl.matches(points[0])


def test_failing_seed_is_failed_but_reproduced(tmp_path):
    data = json.loads(bench.golden_path("halving-noisy").read_text())
    seed = data["failing_seeds"][0]
    wl = bench.Workload("halving-noisy", tmp_path)
    sp = wl.run(seed)
    assert sp.codes == [1] and not sp.exit_ok
    assert wl.matches(sp)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
