"""Randomized dyadic cubes, splines and wavelets on finite quasi-metric measure spaces."""

__version__ = "0.1.0"

__all__ = ["QuasiMetricSpace", "build_space", "gen_example", "__version__"]

# each example kind's parameters, in order, with their types
EXAMPLE_KINDS = {
    "cyclic": (("n", int),),
    "interval": (("n", int),),
    "binary_tree": (("depth", int),),
    "point_cloud": (("n", int), ("dim", int)),
    "koranyi_sphere": (("n", int), ("dim", int)),
    "snowflake": (("n", int), ("eps", float)),
}


def _from_space(name: str):
    # space loads on first use: ``import dyadwave`` loads no NumPy
    if name not in __all__[:3]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import space
    return getattr(space, name)


__getattr__ = _from_space
