import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stage_oracle
import writer_oracle as oracle
from dyadwave import cli, pipeline, randgrid
from dyadwave.spline import dense_from_triples, sparse_triples

SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, 1e300, -1e300,
            1e-300, -1e-300, 0.1, 1.0 / 3.0, 2.0 ** 53, -(2.0 ** 53)]

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(SPECIALS),
    st.integers(2 ** 53 - 4, 2 ** 53 + 4).map(float),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.9, 9.9),
              st.sampled_from([-300, 300])),
)

SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(2, 12), st.integers(2, 12)),
)

MATRICES = hnp.arrays(np.float64, SHAPES, elements=FLOATS)


def _nan_bits(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# A small pool, so matrices drawn from it repeat values often.  The NaNs
# differ in payload and sign bit, which only a uint64 view can make.
POOL = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                 2.2250738585072009e-308, 1.0, -2.5, 1.0 / 3.0,
                 _nan_bits(0x7FF8000000000000), _nan_bits(0xFFF8000000000000),
                 _nan_bits(0x7FF0000000000001), _nan_bits(0xFFF4000000000abc)])


def _pool_arrays(shapes):
    return hnp.arrays(np.intp, shapes, elements=st.integers(0, len(POOL) - 1)
                      ).map(lambda idx: POOL[idx.ravel()].reshape(idx.shape))


POOL_MATRICES = _pool_arrays(SHAPES)
ANY_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
POOL_ARRAYS = _pool_arrays(ANY_SHAPES)

TEXT = st.one_of(st.text(max_size=6),
                 st.sampled_from(["nan", "inf", "-Infinity", "NaN", "1e5"]))
KEYS = st.one_of(TEXT, st.integers(-20, 20).map(str))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), TEXT, FLOATS,
    st.just([]), st.lists(FLOATS, max_size=6),
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-100, 100).map(np.int64), st.booleans().map(np.bool_),
    hnp.arrays(np.float64, st.integers(0, 5), elements=FLOATS),
    MATRICES,
    hnp.arrays(np.int64, st.integers(1, 5)),
)
PAYLOADS = st.dictionaries(
    KEYS,
    st.recursive(LEAVES, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.tuples(kids, kids),
        st.dictionaries(KEYS, kids, max_size=4)), max_leaves=12),
    max_size=6)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@given(FLOATS)
def test_fmt_matches_oracle(x):
    assert cli._fmt(x) == oracle.fmt(x)
    assert cli._fmt(np.float64(x)) == oracle.fmt(np.float64(x))


@given(MATRICES)
def test_write_csv_matches_oracle(out_dir, M):
    path = out_dir / "m.csv"
    cli.write_csv(path, M)
    assert path.read_text() == oracle.csv_text(M)
    cli.write_csv(path, M[0])
    assert path.read_text() == oracle.csv_text(M[0])


@given(POOL_MATRICES)
def test_write_csv_of_repeated_values_matches_oracle(out_dir, M):
    assert len(np.unique(M.view(np.uint64))) <= len(POOL)
    path = out_dir / "r.csv"
    cli.write_csv(path, M)
    assert path.read_text() == oracle.csv_text(M)


@given(st.one_of(POOL_ARRAYS, MATRICES,
                 hnp.arrays(np.int64, ANY_SHAPES),
                 hnp.arrays(np.bool_, ANY_SHAPES)))
def test_dumps_of_array_equals_dumps_of_its_list(a):
    """Every rank and dtype: the array path writes what ``tolist`` would."""
    assert cli._dumps(a) == cli._dumps(a.tolist())
    assert cli._dumps({"a": [a]}) == cli._dumps({"a": [a.tolist()]})


@given(st.one_of(POOL_MATRICES, MATRICES))
def test_write_sparse_matches_oracle_and_reads_back(out_dir, M):
    """The stored triples keep every entry whose bits are not +0.0 (-0.0
    and each NaN payload included), and read back to the same bits."""
    path = out_dir / "s.npy"
    cli._write_array(path, sparse_triples(M))
    data = path.read_bytes()
    assert data.startswith(b"\x93NUMPY")
    assert data.endswith(oracle.sparse_npy_data(M))
    assert np.load(path).nbytes == len(oracle.sparse_npy_data(M))
    back = dense_from_triples(pipeline._load_triples(path, M.shape), M.shape)
    assert np.array_equal(back.view(np.uint64), M.view(np.uint64))


def test_write_csv_formats_each_distinct_float_once(out_dir, monkeypatch):
    """A 200 x 200 matrix of three bit patterns costs three formatted
    floats, not 40,000."""
    M = np.zeros((200, 200))
    M[::3] = -0.0
    M[1::7, ::2] = 0.5
    assert len(np.unique(M.view(np.uint64))) == 3
    formatted = []
    fmt_floats = cli._fmt_floats

    def counting(row, sep=","):
        formatted.append(len(row))
        return fmt_floats(row, sep)

    monkeypatch.setattr(cli, "_fmt_floats", counting)
    path = out_dir / "guard.csv"
    cli.write_csv(path, M)
    assert sum(formatted) <= 3
    assert path.read_text() == oracle.csv_text(M)


def test_write_csv_edge_shapes(out_dir):
    path = out_dir / "e.csv"
    for rows in ([], np.zeros((0, 3)), [[1, 2]], 7.0, np.float32(0.1)):
        cli.write_csv(path, rows)
        assert path.read_text() == oracle.csv_text(rows)


@pytest.mark.parametrize("cols", [100, 1, cli.CSV_BLOCK + 3])
def test_write_csv_blocks_keep_the_bytes_of_edge_values(tmp_path, cols):
    """NaN payloads, signed zeros and infinities on both sides of a block
    boundary, and a pattern of the block before that recurs after it."""
    step = max(1, cli.CSV_BLOCK // cols)
    rows = 2 * step + 3
    M = np.random.default_rng(0).standard_normal((rows, cols))
    M[::5] = 0.0
    edge = np.array([_nan_bits(0x7FF0000000000001),
                     _nan_bits(0x7FF8000000000000),
                     _nan_bits(0xFFF0000000000005), np.inf, -np.inf, -0.0,
                     0.0, 5e-324, -1.7976931348623157e308])
    for r in (step - 1, step, 2 * step):
        vals = np.roll(edge, r)[:cols]
        M[r, :len(vals)] = vals
    bits = set(M.view(np.uint64).ravel().tolist())
    assert len(set(edge.view(np.uint64).tolist()) & bits) >= min(cols, 9)
    path = tmp_path / "b.csv"
    cli.write_csv(path, M)
    stage_oracle.write_csv(tmp_path / "w.csv", M)
    assert path.read_bytes() == (tmp_path / "w.csv").read_bytes()
    assert path.read_text() == oracle.csv_text(M)


@given(PAYLOADS)
def test_write_json_matches_oracle(out_dir, payload):
    path = out_dir / "p.json"
    cli.write_json(path, payload)
    assert path.read_text() == oracle.json_text(payload)


def test_session_files_match_oracle(tmp_path, monkeypatch):
    """Every file of a small session, byte for byte against the oracle."""
    expected = {}

    def record(writer, render):
        # recorded after the write, so a writer that calls another one
        # leaves the outer writer's oracle text
        def wrapped(path, payload):
            writer(path, payload)
            expected[Path(path)] = render(payload)
        return wrapped

    def record_stats(*args, **kwargs):
        stats = boundary_layer_stats(*args, **kwargs)
        expected[art / "boundary.csv"] = oracle.boundary_csv_text(stats)
        return stats

    def record_sf(B, blocks, coeffs):
        sf = square_function(B, blocks, coeffs)
        labels = json.loads((art / "basis.json").read_text())["row_labels"]
        expected[art / "coefficients.csv"] = oracle.coefficients_csv_text(
            labels, coeffs)
        expected[art / "sf.csv"] = oracle.sf_csv_text(sf)
        return sf

    art = tmp_path / "art"
    boundary_layer_stats = randgrid.boundary_layer_stats
    square_function = cli.square_function
    monkeypatch.setattr(cli, "write_json",
                        record(cli.write_json, oracle.json_text))
    monkeypatch.setattr(cli, "write_csv",
                        record(cli.write_csv, oracle.csv_text))
    monkeypatch.setattr(cli, "_write_array",
                        record(cli._write_array, oracle.npy_data))
    # boundary imports the sampler from randgrid when it runs
    monkeypatch.setattr(randgrid, "boundary_layer_stats", record_stats)
    monkeypatch.setattr(cli, "square_function", record_sf)
    signal = tmp_path / "signal.csv"
    signal.write_text("".join(f"{math.sin(i) * 1e3!r}\n" for i in range(16)))
    for argv in (["gen", "cyclic", "16", "--out", tmp_path / "space.json"],
                 ["build", "--input", tmp_path / "space.json", "--out", art],
                 ["verify", "--artifacts", art],
                 ["analyze", "--artifacts", art, "--signal", signal],
                 ["boundary", "--artifacts", art, "--num-samples", "16"]):
        assert cli.main([str(a) for a in argv]) == 0

    written = {p for p in tmp_path.rglob("*") if p.is_file()} - {signal}
    assert written == set(expected)
    assert len(expected) > 10
    for path, text in expected.items():
        if path.suffix == ".npy":
            # a .npy header, then the raw bits of the array written
            data = path.read_bytes()
            assert data.startswith(b"\x93NUMPY") and data.endswith(text)
            assert np.load(path).nbytes == len(text), path
        else:
            assert path.read_text() == text, path
    # each spline level is stored as the oracle's triples of its values
    report = json.loads((art / "build_report.json").read_text())
    for k, size in report["level_sizes"].items():
        path = art / "splines" / f"level_{k}.npy"
        values = dense_from_triples(np.load(path), (size, report["n"]))
        assert path.read_bytes().endswith(oracle.sparse_npy_data(values)), k
    core = json.loads((art / "build_config.json").read_text())
    want = hashlib.sha256(oracle.dumps(core["config"]).encode()).hexdigest()
    assert core["config_sha256"] == want
