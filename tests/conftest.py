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
    for mod in ("nets", "randgrid", "spline", "wavelet", "lpanalysis"):
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
