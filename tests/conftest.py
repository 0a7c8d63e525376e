import importlib
import tracemalloc

from hypothesis import settings

# Property tests must repeat exactly and stay quick on a small machine:
# examples come from a fixed derivation instead of a random seed, and
# slow shared hosts must not turn into deadline failures.
settings.register_profile("dyadwave", derandomize=True, deadline=None,
                          max_examples=40)
settings.load_profile("dyadwave")


def traced_peak(call, n):
    """(result, traced peak of ``call()`` in n x n float64 arrays).

    The modules the commands import are loaded first, so their code and
    constants are not counted."""
    for mod in ("nets", "randgrid", "spline", "wavelet", "lpanalysis",
                "pipeline"):
        importlib.import_module(f"dyadwave.{mod}")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak / (n * n * 8)


def stage_peaks(call, n, stages):
    """(result, peaks) of ``call()``: ``peaks["command"]`` is its traced
    peak, and ``peaks[name]`` the largest traced peak of any call of the
    function ``stages[name]``, a (module, attribute) pair, above the
    memory traced when that call began; all in n x n float64 arrays.

    Each stage is wrapped where its module holds it, so it is caught
    wherever the package looks it up at call time.  A stage's peak
    counts its own temporaries and whatever its callees and arguments'
    generators form while it runs, not what was held at its entry."""
    for mod in ("nets", "randgrid", "spline", "wavelet", "lpanalysis",
                "pipeline"):
        importlib.import_module(f"dyadwave.{mod}")
    frames, peaks = [], {}

    def enter():
        current, peak = tracemalloc.get_traced_memory()
        for frame in frames:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        frames.append([current, current])

    def leave(name):
        peak = tracemalloc.get_traced_memory()[1]
        start, top = frames.pop()
        top = max(top, peak)
        for frame in frames:
            frame[1] = max(frame[1], top)
        tracemalloc.reset_peak()
        peaks[name] = max(peaks.get(name, 0.0), (top - start) / (n * n * 8))

    def wrapped(name, fn):
        def stage(*args, **kwargs):
            enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name)
        return stage

    saved = {name: (mod, getattr(mod, attr), attr)
             for name, (mod, attr) in stages.items()}
    for name, (mod, fn, attr) in saved.items():
        setattr(mod, attr, wrapped(name, fn))
    tracemalloc.start()
    try:
        enter()
        try:
            result = call()
        finally:
            leave("command")
    finally:
        tracemalloc.stop()
        for mod, fn, attr in saved.values():
            setattr(mod, attr, fn)
    return result, peaks
