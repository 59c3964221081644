import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legendrelab as ll
from legendrelab import report_io as rio
from legendrelab.errors import IoFailureError, SchemaViolationError
from legendrelab.generators import random_grid_function
from legendrelab.moduli import Modulus


def test_grid_function_round_trip(tmp_path):
    g = ll.grid_1d(-1.0, 1.0, 5)
    f = ll.build_grid_function(g, lambda x: 0.5 * x * x, name="halfsq")
    path = tmp_path / "f.json"
    rio.write_grid_function(f, path)
    back = rio.read_grid_function(path)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)
    assert back.name == "halfsq"


def test_inf_token_round_trip(tmp_path):
    g = ll.grid_1d(-1.0, 1.0, 3)
    f = ll.GridFunction(g, np.array([math.inf, 0.0, math.inf]), name="point")
    path = tmp_path / "ind.json"
    rio.write_grid_function(f, path)
    raw = json.loads(path.read_text())
    assert raw["values"] == ["inf", 0.0, "inf"]
    back = rio.read_grid_function(path)
    assert np.array_equal(back.values, f.values)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 40),
       inf_frac=st.sampled_from([0.0, 0.2]))
def test_round_trip_random(tmp_path_factory, seed, n, inf_frac):
    rng = np.random.default_rng(seed)
    g = ll.grid_1d(-2.0, 2.0, n)
    f = random_grid_function(rng, g, inf_frac=inf_frac)
    path = tmp_path_factory.mktemp("rt") / "f.json"
    rio.write_grid_function(f, path)
    back = rio.read_grid_function(path)
    assert np.array_equal(back.values, f.values)  # bit-exact


def test_value_count_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "kind": "grid_function", "dim": 1, "bounds": [[0.0, 1.0]],
        "counts": [3], "name": "", "values": [0.0, 1.0]}))
    with pytest.raises(SchemaViolationError):
        rio.read_grid_function(path)


def test_bad_kind_and_bad_token_rejected(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({
        "kind": "grid_function", "dim": 1, "bounds": [[0.0, 1.0]],
        "counts": [2], "values": ["oops", 1.0]}))
    with pytest.raises(SchemaViolationError):
        rio.read_grid_function(path)
    path2 = tmp_path / "bad3.json"
    path2.write_text(json.dumps({"kind": "mystery"}))
    with pytest.raises(SchemaViolationError):
        rio.read_grid_function(path2)


def test_mask_round_trip(tmp_path):
    g = ll.grid_2d(0.0, 1.0, 3)
    mask = np.zeros(g.size, dtype=bool)
    mask[[0, 4, 8]] = True
    path = tmp_path / "m.json"
    rio.write_mask(g, mask, path, name="diag")
    g2, m2, name = rio.read_mask(path)
    assert g2 == g and name == "diag"
    assert np.array_equal(m2, mask)


def test_constraint_set_round_trip(tmp_path):
    g = ll.grid_2d(-2.0, 2.0, 21)
    S = ll.make_set("disk", g)
    path = tmp_path / "disk.json"
    rio.write_mask(S.grid, S.mask, path, name=S.name)
    back = rio.read_constraint_set(path)
    assert np.array_equal(back.mask, S.mask)
    assert back.name == "disk"


def test_modulus_csv_round_trip(tmp_path):
    m = Modulus("firm", 0, np.array([0.1, 0.2, 0.3]),
                np.array([0.005, math.inf, 0.045]),
                np.array([False, False, True]),
                np.array([3, -1, -1]), ll.NormChoice.L2)
    path = tmp_path / "m.csv"
    rio.write_modulus_csv(m, path)
    assert path.read_text().splitlines()[0] == "t,value,empty"
    ts, vs, es = rio.read_modulus_csv(path)
    assert np.array_equal(ts, m.radii)
    assert vs[1] == math.inf and vs[0] == 0.005
    assert list(es) == [False, False, True]


@pytest.mark.parametrize("row", ["0.1,nan,0", "0.2,-inf,0", "0.3,Infinity,1",
                                 "0.4,1e999,0", "nan,0.5,0", "inf,0.5,0"])
def test_modulus_csv_rejects_what_json_rejects(tmp_path, row):
    """A value is a finite number or the inf token; a radius is finite."""
    path = tmp_path / "m.csv"
    path.write_text(f"t,value,empty\n0.05,0.001,0\n{row}\n")
    with pytest.raises(SchemaViolationError, match="line 3"):
        rio.read_modulus_csv(path)


@pytest.mark.parametrize("bad", [-math.inf, math.nan])
def test_modulus_csv_writer_rejects_what_json_rejects(tmp_path, bad):
    m = Modulus("firm", 0, np.array([0.1, 0.2]), np.array([0.005, bad]),
                np.array([False, False]), np.array([3, 4]), ll.NormChoice.L2)
    with pytest.raises(SchemaViolationError):
        rio.write_modulus_csv(m, tmp_path / "m.csv")
    with pytest.raises(SchemaViolationError):
        rio.write_json({"value": m.values}, tmp_path / "m.json")


def test_write_is_deterministic(tmp_path):
    g = ll.grid_1d(-2.0, 2.0, 31)
    f = random_grid_function(np.random.default_rng(5), g, inf_frac=0.1)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    rio.write_grid_function(f, a)
    rio.write_grid_function(f, b)
    assert a.read_bytes() == b.read_bytes()


def test_manifest_hashes(tmp_path):
    p1 = tmp_path / "x.json"
    rio.write_json({"kind": "thing", "v": 1.5}, p1)
    man = rio.build_manifest("0.0", {"seed": 1}, tmp_path, [p1])
    assert man["artifacts"][0]["path"] == "x.json"
    assert man["artifacts"][0]["sha256"] == rio.sha256_of(p1)
    rio.write_json(man, tmp_path / "manifest.json")
    doc = rio.read_json(tmp_path / "manifest.json")
    assert doc["kind"] == "run_manifest"


def test_nan_rejected():
    with pytest.raises(SchemaViolationError):
        rio.write_json({"v": float("nan")}, "/tmp/never-written.json")


@pytest.mark.parametrize("dim", [1, 2])
def test_written_headers_round_trip(tmp_path, dim):
    g = ll.grid_1d(-2, 2, 5) if dim == 1 else ll.grid_2d(-1, 1, 3, 0, 2, 4)
    f = ll.GridFunction(g, np.arange(g.size, dtype=float).reshape(g.shape))
    rio.write_grid_function(f, tmp_path / "f.json")
    back = rio.read_grid_function(tmp_path / "f.json")
    assert back.grid == g and np.array_equal(back.flat, f.flat)
    mask = np.arange(g.size) % 2 == 0
    rio.write_mask(g, mask, tmp_path / "m.json")
    grid, got, _ = rio.read_mask(tmp_path / "m.json")
    assert grid == g and np.array_equal(got, mask)
    # Integer bounds are JSON numbers too.
    doc = json.loads((tmp_path / "f.json").read_text())
    doc["bounds"] = [[int(lo), int(hi)] for lo, hi in doc["bounds"]]
    (tmp_path / "g.json").write_text(json.dumps(doc))
    assert rio.read_grid_function(tmp_path / "g.json").grid == g


def test_header_with_bad_counts_rejected(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "kind": "grid_function", "dim": 1, "bounds": [[0.0, 1.0]],
        "counts": [1], "values": [0.0]}))
    with pytest.raises(SchemaViolationError):
        rio.read_grid_function(path)


# -- malformed artifacts raise SchemaViolationError only ------------------

_DROP = object()
_ATOMS = st.one_of(st.none(), st.booleans(), st.integers(-10**30, 10**30),
                   st.floats(), st.text(max_size=5),
                   st.sampled_from(["inf", "-inf", "nan", "1e999", "2", "-1.5"]))
_JSON = st.recursive(_ATOMS, lambda kids: st.one_of(
    st.lists(kids, max_size=3),
    st.dictionaries(st.text(max_size=4), kids, max_size=3)), max_leaves=8)
_HEADER_VALUES = st.one_of(
    st.just(_DROP), _JSON,
    st.lists(st.lists(_ATOMS, max_size=3), max_size=3),   # bounds-like
    st.lists(_ATOMS, max_size=3))                          # counts-like


def _header_doc(kind):
    values = [False] * 6 if kind == "grid_mask" else [0.0, "inf", 1.5] * 2
    return {"kind": kind, "dim": 2, "bounds": [[-1.0, 1.0], [0.0, 2.0]],
            "counts": [3, 2], "name": "f", "values": values}


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["grid_function", "grid_mask"]),
       key=st.sampled_from(["dim", "bounds", "counts", "kind", "name"]),
       value=_HEADER_VALUES)
def test_mutated_header_raises_only_schema_violation(tmp_path_factory, kind,
                                                      key, value):
    doc = _header_doc(kind)
    if value is _DROP:
        del doc[key]
    else:
        doc[key] = value
    path = tmp_path_factory.mktemp("hdr") / "doc.json"
    path.write_text(json.dumps(doc))
    read = rio.read_grid_function if kind == "grid_function" else rio.read_mask
    try:
        read(path)
    except SchemaViolationError:
        pass


@settings(max_examples=50, deadline=None)
@given(doc=_JSON)
def test_any_json_document_raises_only_schema_violation(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc))
    for read in (rio.read_grid_function, rio.read_mask):
        try:
            read(path)
        except SchemaViolationError:
            pass


_CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=14)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.one_of(
    _CSV_TEXT,
    st.text(alphabet="0123456789.,-+einfa_ ", max_size=14),
    st.tuples(st.sampled_from(["0.25", "x", "", "nan", "1e999"]),
              st.sampled_from(["inf", "0.5", "", "-0.0", "inff"]),
              st.sampled_from(["0", "1", "2", "", "true", " 1"])
              ).map(",".join)), max_size=4),
       at=st.integers(0, 4))
def test_mutated_modulus_rows_raise_only_schema_violation(tmp_path_factory,
                                                          rows, at):
    lines = ["0.1,0.005,0", "0.2,inf,1"]
    lines[at:at] = rows
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_text("\n".join(["t,value,empty", *lines]) + "\n")
    try:
        ts, vs, es = rio.read_modulus_csv(path)
    except SchemaViolationError:
        return
    assert ts.shape == vs.shape == es.shape and es.dtype == bool


@pytest.mark.parametrize("change", [
    {"counts": [2**62, 2**62], "values": []},       # size overflows int64
    {"bounds": [[-1e308, 1e308], [0.0, 2.0]]},      # infinite spacing
    {"bounds": [["-inf", 1.0], [0.0, 2.0]]},
    {"counts": ["three", 2]},
    {"bounds": [[0.0], [0.0, 2.0]]},
    {"values": [0.0, float("nan"), 0.0, 0.0, 0.0, 0.0]},
    {"values": [0.0, 10**400, 0.0, 0.0, 0.0, 0.0]},
    {"values": [0.0, 1.7e308, 0.0, 0.0, 0.0, 0.0]},   # 4 max |f| overflows
    {"counts": [3.0, 2]},
    {"counts": [3.7, 2]},
    {"counts": [True, 2]},
    {"dim": 2.0},
    {"dim": True, "bounds": [[-1.0, 1.0]], "counts": [3],
     "values": [0.0, 0.0, 0.0]},
    {"bounds": [["-1", "1"], [0.0, 2.0]]},
    {"bounds": [[False, True], [0.0, 2.0]]},
    {"bounds": [[-10**400, 1.0], [0.0, 2.0]]},
], ids=["size-overflow", "infinite-spacing", "infinite-bound", "text-count",
        "short-bound", "nan-value", "huge-int-value", "beyond-finite-range",
        "float-count", "fractional-count", "bool-count", "float-dim",
        "bool-dim", "text-bounds", "bool-bounds", "huge-int-bound"])
def test_header_edge_cases_rejected(tmp_path, change):
    doc = {**_header_doc("grid_function"), **change}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolationError):
        rio.read_grid_function(path)


def test_writers_make_missing_directories_and_fail_on_unwritable(tmp_path):
    """A missing parent directory is made; a parent that is a file is an
    IoFailureError, and nothing is written."""
    m = Modulus("total", 0, np.array([0.1, 0.2]), np.array([0.0, 0.5]),
                np.array([False, False]), np.array([1, 2]), ll.NormChoice.L2)
    rio.write_json({"kind": "x"}, tmp_path / "a" / "b" / "doc.json")
    rio.write_modulus_csv(m, tmp_path / "c" / "m.csv")
    assert rio.read_json(tmp_path / "a" / "b" / "doc.json") == {"kind": "x"}
    assert rio.read_modulus_csv(tmp_path / "c" / "m.csv")[1].tolist() == [0.0, 0.5]
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    with pytest.raises(IoFailureError):
        rio.write_json({"kind": "x"}, blocker / "doc.json")
    with pytest.raises(IoFailureError):
        rio.write_modulus_csv(m, blocker / "sub" / "m.csv")
    assert blocker.read_text() == "kept\n"
