"""The one decay sampler: ``envelope_fit`` on whole arrays of magnitudes
equals a 1-D fit of the logs each caller used to mask itself."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fit_oracle as oracle
from dyadwave.cli import _dumps
from dyadwave.decaymat import TINY, envelope_fit
from dyadwave.errors import DyadwaveError
from dyadwave.lpanalysis import build_lp, kernel_estimates, lp_projectors
from dyadwave.nets import build_nets
from dyadwave.randgrid import build_grid
from dyadwave.space import build_space, gen_example
from dyadwave.spline import compute_splines
from dyadwave.wavelet import (build_mra, build_wavelet_basis,
                              gram_decay_certificates, verify_wavelet_theorem)
from test_randgrid import GENERATORS, quasi_metric_spaces

# the floor, one ulp below it, zero and subnormals, among ordinary values
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, TINY, np.nextafter(TINY, 0.0), 5e-324, 1e-310]),
    st.floats(1e-300, 1e3))


@st.composite
def samples(draw):
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=5))
    # repeated distances give tied slopes
    xs = draw(hnp.arrays(float, shape, elements=st.one_of(
        st.sampled_from([1.0, 2.0]), st.floats(0.0, 5.0))))
    vals = draw(hnp.arrays(float, shape, elements=MAGNITUDES))
    return xs, vals, draw(st.sampled_from([0.5, 1.0, 2.0]))


@given(samples())
def test_envelope_fit_equals_fit_of_masked_logs(case):
    xs, vals, x_cut = case
    assert (_dumps(envelope_fit(xs, vals, x_cut))
            == _dumps(oracle.masked_fit(xs, vals, x_cut)))


def test_envelope_fit_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        envelope_fit(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        envelope_fit(np.zeros((2, 3)), np.zeros(6))


def assemble(space, delta):
    nets = build_nets(space, delta)
    system = compute_splines(space, nets, build_grid(space, nets)[1])
    mra = build_mra(space, system)
    return nets, mra, build_wavelet_basis(space, nets, mra)


def assert_fits_match_oracle(space, nets, mra, basis):
    lp = build_lp(space, nets, basis)
    rep = kernel_estimates(space, nets, lp, lp_projectors(space, nets, basis))
    got = {k: {key: entry[key] for key in ("p_size", "q_size")
               if key in entry and not entry[key].get("empty")}
           for k, entry in rep["levels"].items()}
    want = oracle.kernel_sizes(space, nets, lp,
                               lp_projectors(space, nets, basis))
    assert _dumps(got) == _dumps(want)
    assert (_dumps(verify_wavelet_theorem(space, nets, basis)["decay"])
            == _dumps(oracle.wavelet_decay(space, nets, basis)))
    assert (_dumps(gram_decay_certificates(space, nets, mra, basis))
            == _dumps(oracle.gram_certificates(space, nets, mra.system,
                                               basis)))


@pytest.mark.parametrize("kind,params,delta", GENERATORS)
def test_decay_fits_match_oracle_on_generators(kind, params, delta):
    space = gen_example(kind, seed=1, **params)
    nets, mra, basis = assemble(space, delta)
    assert_fits_match_oracle(space, nets, mra, basis)


@given(quasi_metric_spaces())
def test_decay_fits_match_oracle_on_random_spaces(case):
    dist, weights, delta = case
    try:
        space = build_space(dist, weights)
        nets, mra, basis = assemble(space, delta)
    except DyadwaveError:
        assume(False)
    assert_fits_match_oracle(space, nets, mra, basis)
