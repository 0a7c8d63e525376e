#!/usr/bin/env python3
"""Traced in-process run of dyadwave CLI commands.

    python3 perfbench/trace.py PLAN.json

The plan names the source directory, the working directory, the output
path for the spans and the list of ``[run_id, argv]`` commands.  Each
command runs through ``dyadwave.cli.main(argv)`` in this one process, so
the traced code is the CLI's own code.  Timing comes only from wrapping
module-level names from outside: every binding of a traced function in
any ``dyadwave`` module (for example ``cli``'s and ``spline``'s imports
of ``randgrid.transition_parents``) is replaced by one wrapper.  A name
that no longer exists is reported as absent.

Spans are kept in memory and written once at the end as
``[name, start, end, parent_index, run_id]``.
"""

import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

# Qualified names (module under dyadwave, attribute) that get a span.
TRACED = (
    "cli.cmd_build", "cli.cmd_verify", "cli.cmd_analyze", "cli.cmd_boundary",
    "cli.write_csv", "cli.write_json", "cli._write_text", "cli._load_matrix",
    "cli._versions",
    "space.load_space_json", "space.build_space", "space.compute_a0",
    "space.exponent_a", "space.space_to_dict",
    "nets.build_nets", "nets.verify_nets", "nets.load_nets_json",
    "nets.nets_to_dict",
    "randgrid.reference_order", "randgrid.grid_labels", "randgrid.grid_checks",
    "randgrid.transition_parents", "randgrid.boundary_layer_stats",
    "randgrid.fit_boundary_exponent",
    "spline.compute_splines", "spline.verify_splines",
    "wavelet.build_mra", "wavelet.build_wavelet_basis",
    "wavelet.verify_wavelet_theorem", "wavelet.gram_decay_certificates",
    "decaymat.spectral_inverse_sqrt",
    "lpanalysis.build_lp", "lpanalysis.kernel_estimates",
    "lpanalysis.lp_equivalence", "lpanalysis.cz_kernel_bound",
    "lpanalysis.random_sign_operator", "lpanalysis.random_signs",
    "lpanalysis.substitute_inequality_check", "lpanalysis.growth_sequence",
)

# Spans whose peak traced allocation is recorded (tracemalloc runs only
# inside them, so the rest of the run pays no allocation-tracing cost).
PEAK = ("wavelet.build_mra", "lpanalysis.build_lp")


def _nets_counts(result, args):
    return {"nets.level_count": len(result.levels),
            "nets.points_total": sum(len(v) for v in result.levels.values())}


def _label_counts(result, args):
    return {"L": result.L, "M": result.M,
            "randgrid.coords_per_level": (result.L + 1) * result.M}


def _spline_density(result, args):
    import numpy as np
    nnz = sum(int(np.count_nonzero(v)) for v in result.values.values())
    size = sum(v.size for v in result.values.values())
    return {"spline.values_nnz_frac": nnz / size}


def _bytes_written(result, args):
    return {"cli.artifact_bytes": len(args[1].encode())}


# name -> (counter names, function of (result, args) giving their values);
# counters named in ACCUMULATE are summed over calls, the others keep the
# last value.
PROBES = {
    "nets.build_nets": (("nets.level_count", "nets.points_total"),
                        _nets_counts),
    "randgrid.grid_labels": (("L", "M", "randgrid.coords_per_level"),
                             _label_counts),
    "spline.compute_splines": (("spline.values_nnz_frac",), _spline_density),
    "cli._write_text": (("cli.artifact_bytes",), _bytes_written),
}
ACCUMULATE = ("cli.artifact_bytes",)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = None
        self.counters = {}
        self.peaks = {}
        self.absent = {}

    def install(self, names) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "dyadwave" or key.startswith("dyadwave.")]
        for qual in names:
            mod_name, attr = qual.split(".", 1)
            mod = sys.modules.get(f"dyadwave.{mod_name}")
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.absent[qual] = f"dyadwave.{qual} not found"
                continue
            wrapper = self.wrap(qual, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
        for qual, (counters, _) in PROBES.items():
            if qual in self.absent:
                for c in counters:
                    self.absent[c] = f"dyadwave.{qual} not found"

    def wrap(self, qual, fn):
        probe = PROBES.get(qual, (None, None))[1]
        peak = qual in PEAK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(index)
            tracing = peak and not tracemalloc.is_tracing()
            if tracing:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans[index] = [qual, t0, t1, parent, self.run_id]
                if tracing:
                    used = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[qual] = max(self.peaks.get(qual, 0), used)
            if probe is not None:
                self.record(qual, probe, result, args)
            return result
        return traced

    def record(self, qual, probe, result, args) -> None:
        try:
            values = probe(result, args)
        except (AttributeError, TypeError, IndexError, ValueError) as exc:
            for c in PROBES[qual][0]:
                self.absent[c] = f"probe on {qual} failed: {exc}"
            return
        for key, val in values.items():
            if key in ACCUMULATE:
                self.counters[key] = self.counters.get(key, 0) + val
            else:
                self.counters[key] = val


def main(argv) -> int:
    plan = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    os.chdir(plan["cwd"])
    cli = importlib.import_module("dyadwave.cli")
    for mod in ("space", "nets", "randgrid", "spline", "wavelet", "decaymat",
                "lpanalysis"):
        with contextlib.suppress(ImportError):
            importlib.import_module(f"dyadwave.{mod}")
    tracer = Tracer()
    tracer.install(TRACED)

    commands = {}
    for run_id, cmd_argv in plan["commands"]:
        tracer.run_id = run_id
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(cmd_argv)
        t1 = time.perf_counter()
        commands[run_id] = {"argv": cmd_argv, "rc": rc, "start": t0,
                            "end": t1, "stdout": out.getvalue()}

    Path(plan["spans"]).write_text(json.dumps({
        "spans": tracer.spans, "commands": commands,
        "counters": tracer.counters, "peaks": tracer.peaks,
        "absent": tracer.absent}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
