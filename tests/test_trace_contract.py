"""The benchmark's traced pass names dyadwave functions from outside.

``perfbench/trace.py`` wraps module-level names of the package and probes
some of their results, and ``perfbench/run.py`` reports per-layer metrics
under those names.  A name that no longer resolves, or a probe that reads
a field that is gone or yields NaN, turns into an absent metric or a
result line that strict JSON refuses; these tests catch both here.
"""

import importlib
import importlib.util
import math
import numbers
from pathlib import Path

import pytest

from dyadwave.nets import build_nets
from dyadwave.randgrid import build_grid
from dyadwave.space import gen_example
from dyadwave.spline import compute_splines

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench/<name>.py as a module, loaded by path without running it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    trace, run = load("trace"), load("run")
    names = (list(trace.TRACED) + list(trace.PEAK) + list(run.PER_LAYER_TIMES)
             + list(run.PER_LAYER_CALLS) + list(run.PER_LAYER_PEAKS))
    assert len(names) == 74
    missing = []
    for qual in names:
        module, attr = qual.split(".", 1)
        if not callable(getattr(importlib.import_module(f"dyadwave.{module}"),
                                attr, None)):
            missing.append(qual)
    assert missing == []


@pytest.fixture(scope="module")
def probe_inputs():
    """{traced name: (result, args)} of each probed call on a small build."""
    space = gen_example("point_cloud", seed=0, n=40, dim=2)
    nets = build_nets(space, 0.4)
    labels, tables = build_grid(space, nets)
    system = compute_splines(space, nets, tables)
    return {
        "nets.build_nets": (nets, (space, 0.4)),
        "randgrid.grid_labels": (labels, (space, nets)),
        "spline.compute_splines": (system, (space, nets)),
        "cli._write_text": (None, ("report.json", '{"ok": true}\n')),
    }


def test_spline_density_reads_the_dense_levels(probe_inputs):
    # the fraction of the dense per-level values, before they were stored
    # as triples: 320 nonzeros over 136 rows of 40 points
    trace = load("trace")
    assert trace._spline_density(*probe_inputs["spline.compute_splines"]) \
        == {"spline.values_nnz_frac": 320 / 5440}


def test_every_probe_gives_finite_numbers(probe_inputs):
    trace, run = load("trace"), load("run")
    assert probe_inputs.keys() == trace.PROBES.keys()
    produced = set()
    for qual, (counters, probe) in trace.PROBES.items():
        values = probe(*probe_inputs[qual])
        assert set(values) == set(counters), qual
        for key, value in values.items():
            assert isinstance(value, numbers.Real), (key, value)
            assert not isinstance(value, bool), key
            assert math.isfinite(value), (key, value)
        produced.update(values)
    assert set(run.PER_LAYER_COUNTERS) <= produced
