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


def float_bits(report):
    """The report with every float replaced by its IEEE bit pattern."""
    if isinstance(report, dict):
        return {key: float_bits(val) for key, val in report.items()}
    if isinstance(report, list):
        return [float_bits(val) for val in report]
    if isinstance(report, float):
        return np.float64(report).view(np.uint64).item()
    return report


@st.composite
def partly_kept_samples(draw, shares=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """(xs, values, x_cut) of up to 3 x 12 x 12 entries, about one of
    ``shares`` of them below the floor (zeros, subnormals, one ulp under
    TINY)."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=12))
    xs = draw(hnp.arrays(float, shape, elements=st.one_of(
        st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 40.0))))
    kept = draw(hnp.arrays(float, shape, elements=st.floats(1e-300, 1e3)))
    dropped = draw(hnp.arrays(float, shape, elements=st.sampled_from(
        [0.0, 5e-324, 1e-310, float(np.nextafter(TINY, 0.0))])))
    share = draw(st.sampled_from(shares))
    mask = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1.0))) < share
    return xs, np.where(mask, dropped, kept), draw(st.sampled_from([1.0, 2.5]))


@given(partly_kept_samples())
def test_envelope_fit_has_the_bits_of_the_gathering_fit(case):
    xs, vals, x_cut = case
    assert (float_bits(envelope_fit(xs, vals, x_cut))
            == float_bits(oracle.gathered_envelope_fit(xs, vals, x_cut)))


@given(partly_kept_samples(shares=(0.75, 0.9, 0.97)))
def test_mostly_dropped_arrays_have_the_bits_of_the_gathering_fit(case):
    # fewer than half the entries are samples: the fit reads every entry
    # all the same, and equals the fit of the gathered samples
    xs, vals, x_cut = case
    assume(2 * np.count_nonzero(vals >= TINY) < vals.size)
    assert (float_bits(envelope_fit(xs, vals, x_cut))
            == float_bits(oracle.gathered_envelope_fit(xs, vals, x_cut)))


@given(partly_kept_samples())
def test_envelope_fit_leaves_its_arguments_unchanged(case):
    xs, vals, x_cut = case
    copies = [arr.copy() for arr in (xs, vals)]
    envelope_fit(xs, vals, x_cut)
    assert all(np.array_equal(arr.view(np.uint64), copy.view(np.uint64))
               for arr, copy in zip((xs, vals), copies))


@pytest.mark.parametrize("share", [0.0, 0.5, 0.51, 0.9])
@pytest.mark.parametrize("below", [0.0, 5e-324, 1e-310])
def test_envelope_fit_reads_half_kept_arrays_in_place(share, below):
    # whatever share is dropped, the fit reads every entry and equals the
    # gathering fit bit for bit
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 6.0, (24, 24))
    vals = np.exp(-2.0 * xs) * rng.uniform(0.5, 1.0, xs.shape)
    vals.ravel()[:int(share * vals.size)] = below
    got = envelope_fit(xs, vals)
    assert got["n_pairs"] == vals.size - int(share * vals.size)
    assert float_bits(got) == float_bits(
        oracle.gathered_envelope_fit(xs, vals))


@pytest.mark.parametrize("below", [0.0, 1e-310])
def test_refuted_fit_names_the_same_worst_samples(below):
    # values that grow with the distance refute decay; the five worst
    # samples are the kept ones, whatever entries below the floor sit
    # between them
    xs = np.tile([0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 4)
    vals = np.exp(0.3 * xs)
    vals[1::3] = below
    got = envelope_fit(xs, vals)
    assert got["refuted"] and len(got["worst"]) == 5
    assert all(w["log_value"] > -np.inf for w in got["worst"])
    assert float_bits(got) == float_bits(
        oracle.gathered_envelope_fit(xs, vals))


@pytest.mark.parametrize("below", [1e-310, -1.0, np.nan])
def test_dropped_entries_move_no_extreme(below):
    # a far entry below the floor would have the slackest slope (713 / 40
    # for 1e-310, NaN for a negative or NaN value); read in place, it must
    # count as absent, so the rate stays at the cap
    xs = np.array([0.0, 1.0, 40.0])
    vals = np.array([1.0, np.exp(-100.0), below])
    got = envelope_fit(xs, vals)
    assert got["c"] == 50.0 and got["n_pairs"] == 2 and got["n_far"] == 1
    assert float_bits(got) == float_bits(
        oracle.gathered_envelope_fit(xs, vals))
