"""The blocked stages of build and verify against their whole-array forms,
and what each stage forms: traced peaks and dense spline levels."""

import dataclasses
import io
from contextlib import redirect_stdout

import numpy as np
import pytest

import stage_oracle as oracle
from conftest import stage_peaks
from dyadwave import cli, lpanalysis, spline, wavelet
from dyadwave.cli import _dumps
from dyadwave.errors import BadParams
from dyadwave.nets import build_nets
from dyadwave.randgrid import build_grid
from dyadwave.space import build_space, gen_example
from dyadwave.spline import compute_splines
from dyadwave.wavelet import (GramBlocks, build_mra, build_wavelet_basis,
                              gram_decay_certificates, verify_wavelet_theorem)
from test_randgrid import GENERATORS

# spaces in the randomized regime whose spline Grams have components of
# more than one row
RANDOMIZED = [("interval", {"n": 64}, 1 / 6),
              ("point_cloud", {"n": 150, "dim": 2}, 0.2)]


def assemble(space, delta):
    nets = build_nets(space, delta)
    mra = build_mra(space, compute_splines(space, nets,
                                           build_grid(space, nets)[1]))
    return nets, mra, build_wavelet_basis(space, nets, mra)


def assert_stages_match_oracles(space, nets, mra, basis, tmp_path):
    assert (_dumps(gram_decay_certificates(space, nets, mra, basis))
            == _dumps(oracle.gram_decay_certificates(space, nets, mra,
                                                     basis)))
    assert (_dumps(verify_wavelet_theorem(space, nets, basis)["holder"])
            == _dumps(oracle.wavelet_holder(space, nets, basis)))
    cli.write_csv(tmp_path / "blocked.csv", basis.rows)
    oracle.write_csv(tmp_path / "whole.csv", basis.rows)
    assert ((tmp_path / "blocked.csv").read_bytes()
            == (tmp_path / "whole.csv").read_bytes())


@pytest.mark.parametrize("kind,params,delta", GENERATORS)
def test_stages_match_oracles_on_generators(kind, params, delta, tmp_path):
    space = gen_example(kind, seed=1, **params)
    assert_stages_match_oracles(space, *assemble(space, delta), tmp_path)


@pytest.mark.parametrize("kind,params,delta", RANDOMIZED)
def test_stages_match_oracles_in_the_randomized_regime(kind, params, delta,
                                                       tmp_path):
    space = gen_example(kind, seed=0, **params)
    nets, mra, basis = assemble(space, delta)
    assert any(gram.larger for gram in mra.grams.values())
    assert_stages_match_oracles(space, nets, mra, basis, tmp_path)


def test_wavelet_holder_keeps_a_nan_sample_of_a_later_level():
    # a NaN in a row of the finest wavelets makes that level's pair maxima
    # NaN while the coarser levels' stay finite; the fit over the levels
    # must report it as the one fit of their concatenated samples does
    space = gen_example(*RANDOMIZED[1][:1], seed=0, **RANDOMIZED[1][1])
    nets, mra, basis = assemble(space, RANDOMIZED[1][2])
    rows = basis.rows.copy()
    rows[list(basis.blocks.values())[-1].start] = np.nan
    basis = dataclasses.replace(basis, rows=rows)
    want = oracle.wavelet_holder(space, nets, basis)
    assert np.isnan(want["eta_hat"]) and len(basis.blocks) > 1
    assert (_dumps(verify_wavelet_theorem(space, nets, basis)["holder"])
            == _dumps(want))


def test_gram_certificates_never_form_a_dense_spline_gram(monkeypatch):
    space = gen_example(*RANDOMIZED[0][:1], seed=0, **RANDOMIZED[0][1])
    nets, mra, basis = assemble(space, RANDOMIZED[0][2])
    want = _dumps(oracle.gram_decay_certificates(space, nets, mra, basis))

    # both kinds of Gram are held as blocks, and some pre-wavelet Gram has
    # a component of more than one row
    assert all(isinstance(gram, GramBlocks)
               for gram in (*mra.grams.values(), *basis.mgram.values()))
    assert any(gram.larger for gram in basis.mgram.values())

    def refuse(self):
        raise AssertionError("a Gram was made dense")

    monkeypatch.setattr(GramBlocks, "dense", refuse)
    assert _dumps(gram_decay_certificates(space, nets, mra, basis)) == want


@pytest.mark.parametrize("grams", ["spline", "prewavelet"])
def test_certificates_refuse_an_index_set_that_is_not_separated(grams):
    # halved distances put the points of each level, and the pre-wavelet
    # centers, closer than the scale that should separate them
    space = gen_example(*RANDOMIZED[1][:1], seed=0, **RANDOMIZED[1][1])
    nets, mra, basis = assemble(space, RANDOMIZED[1][2])
    half = build_space(space.dist * 0.5, space.weights)
    if grams == "prewavelet":
        mra = dataclasses.replace(mra, grams={})
    with pytest.raises(BadParams) as want:
        oracle.gram_decay_certificates(half, nets, mra, basis)
    with pytest.raises(BadParams) as got:
        gram_decay_certificates(half, nets, mra, basis)
    assert str(got.value) == str(want.value)
    assert "not 1-separated" in str(got.value)


def run_quiet(*argv):
    with redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def test_dense_spline_levels_formed_per_build_and_verify(tmp_path,
                                                         monkeypatch):
    """A build forms each dense spline level three times (the smoothness
    fit, the spline checks and the Gram), plus level k once for the
    pre-wavelets of each level k with new points; verify adds the spline
    projector's two per level.  The pre-wavelets form only the rows of
    level k + 1 at the new points (a build formed 3 L + 2 W levels, and a
    verify 5 L + 2 W, when they formed all of level k + 1)."""
    formed = []
    dense = spline._DenseLevels.__getitem__

    def counting(self, k):
        formed.append(k)
        return dense(self, k)

    monkeypatch.setattr(spline._DenseLevels, "__getitem__", counting)
    art = tmp_path / "art"
    assert run_quiet("build", "--gen", "point_cloud", 256, 2, "--delta", 0.4,
                     "--out", art) == 0
    built = len(formed)
    formed.clear()
    assert run_quiet("verify", "--artifacts", art) == 0
    space = gen_example("point_cloud", seed=0, n=256, dim=2)
    nets = build_nets(space, 0.4)
    levels = len(nets.level_range)
    new = sum(1 for k in nets.level_range if len(nets.ydiff.get(k, [])))
    assert (levels, new) == (10, 7)
    assert built == 3 * levels + new
    assert len(formed) == 5 * levels + new


@pytest.fixture(scope="module")
def snowflake_peaks(tmp_path_factory):
    """The stage peaks of one build and one verify at snowflake 384 0.5
    (delta 0.5)."""
    root = tmp_path_factory.mktemp("snowflake")
    assert run_quiet("gen", "snowflake", 384, 0.5, "--out",
                     root / "space.json") == 0
    stages = {
        "write_csv": (cli, "write_csv"),
        "wavelet_theorem": (wavelet, "verify_wavelet_theorem"),
        "kernel_estimates": (lpanalysis, "kernel_estimates"),
        "gram_certificates": (wavelet, "gram_decay_certificates"),
    }
    peaks = {}
    for command, argv in (
            ("build", ["build", "--input", root / "space.json",
                       "--delta", 0.5, "--out", root / "art"]),
            ("verify", ["verify", "--artifacts", root / "art"])):
        rc, peaks[command] = stage_peaks(lambda: run_quiet(*argv), 384,
                                         stages)
        assert rc == 0
    return peaks


@pytest.mark.parametrize("command,stage,bound", [
    # basis_values.csv formatted in blocks of rows (5.13 at once)
    ("build", "write_csv", 1.0),
    # the wavelet Hölder fit keeps one sample array per level (4.80 when it
    # concatenated them)
    ("build", "wavelet_theorem", 3.5),
    ("verify", "wavelet_theorem", 3.5),
    # the size fits take their logs in the magnitudes' buffers, and no
    # level's kernels are held into the next (7.32)
    ("verify", "kernel_estimates", 5.5),
    # the certificates read the spline Grams' blocks (5.12 when each was
    # made dense with its distances)
    ("verify", "gram_certificates", 1.5),
    # the command itself (10.04)
    ("verify", "command", 8.5)])
def test_stage_peaks_on_the_snowflake_input(snowflake_peaks, command, stage,
                                            bound):
    """Traced peaks in n x n float64 arrays above each stage's entry, at
    snowflake 384 0.5 (delta 0.5); the figures in parentheses are the
    peaks when each stage formed its whole arrays at once."""
    peak = snowflake_peaks[command][stage]
    assert peak <= bound, snowflake_peaks
