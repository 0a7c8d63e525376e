"""The one eigenvalue routine: ``extreme_eigs`` and the Riesz bounds of
the spline Grams."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyadwave.decaymat import extreme_eigs
from dyadwave.errors import NotPositiveDefinite
from dyadwave.wavelet import build_mra, gram_matrix
from test_wavelet import FLEET, setup


@st.composite
def spd_matrices(draw):
    """A A^T plus a positive shift, on 1 to 8 indices."""
    n = draw(st.integers(1, 8))
    A = draw(hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    shift = draw(st.floats(1e-3, 10.0))
    return A @ A.T + shift * np.eye(n)


@given(spd_matrices())
def test_extreme_eigs_is_the_dense_eigensolve(M):
    est = extreme_eigs(M)
    vals = np.linalg.eigvalsh(M)
    assert est == {"lmin": vals[0], "lmax": vals[-1]}
    # the smallest eigenvalue of the shifted matrix is about -1
    with pytest.raises(NotPositiveDefinite):
        extreme_eigs(M - (vals[0] + 1.0) * np.eye(M.shape[0]))
    if M.shape[0] > 1:
        skew = M.copy()
        skew[0, 1] += 1.0
        with pytest.raises(NotPositiveDefinite):
            extreme_eigs(skew)


@pytest.mark.parametrize("kind,params", FLEET)
def test_dual_riesz_bounds_are_extreme_eigs_of_the_gram(kind, params):
    space, nets, system = setup(kind, params)
    mra = build_mra(space, system)
    for k in nets.level_range:
        # the MRA keeps this Gram, and the duals are solved against it
        gram = gram_matrix(space, system, k)
        assert np.array_equal(mra.grams[k].dense(), gram), k
        est = extreme_eigs(gram)
        vals = np.linalg.eigvalsh(gram)
        assert (est["lmin"], est["lmax"]) == (vals[0], vals[-1]), k
        assert est["lmin"] > 0.0, k


def test_series_inverses_load_no_scipy_linalg():
    code = ("import sys\n"
            "import numpy as np\n"
            "from dyadwave.decaymat import (extreme_eigs, inverse_sqrt,\n"
            "                               neumann_inverse)\n"
            "M = np.diag([1.0, 2.0, 3.0]) + 0.1\n"
            "extreme_eigs(M)\n"
            "neumann_inverse(M)\n"
            "inverse_sqrt(M)\n"
            "print('scipy.linalg' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
