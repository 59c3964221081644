"""Serialization: grid functions, masks, modulus curves, reports, manifests.

JSON floats are written in shortest round-trip decimal form (Python's
repr), so re-reading reproduces the exact doubles; ``+inf`` is spelled as
the string ``"inf"``. Keys are emitted in a fixed order for byte-exact
regression baselines.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import IoFailureError, SchemaViolationError
from .grids import Grid, GridFunction, NormChoice, finite_range
from .moduli import Modulus
from .projections import ConstraintSet

_INF_TOKEN = "inf"


def _encode_value(v: float) -> Any:
    if math.isinf(v):
        if v < 0:
            raise SchemaViolationError("-inf is not serializable")
        return _INF_TOKEN
    if math.isnan(v):
        raise SchemaViolationError("nan is not serializable")
    return float(v)


def _decode_value(v: Any, where: str) -> float:
    if v == _INF_TOKEN:
        return math.inf
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:      # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise SchemaViolationError(f"bad value {v!r} in {where}")


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _encode_value(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, str):
        return obj
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    raise SchemaViolationError(f"cannot serialize {type(obj).__name__}")


def write_json(payload: dict, path: str | Path) -> None:
    try:
        Path(path).write_text(json.dumps(_jsonable(payload), indent=1,
                                         sort_keys=False) + "\n")
    except OSError as err:
        raise IoFailureError(str(err)) from err


def read_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise IoFailureError(str(err)) from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaViolationError(f"not valid JSON: {err}") from err


def _grid_header(grid: Grid) -> dict:
    return {
        "dim": grid.dim,
        "bounds": [[lo, hi] for lo, hi in grid.bounds],
        "counts": list(grid.counts),
    }


def _is_json_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_json_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_grid_header(doc: dict, where: str) -> Grid:
    for key in ("dim", "bounds", "counts"):
        if key not in doc:
            raise SchemaViolationError(f"{where}: missing key {key!r}")
    dim, bounds, counts = doc["dim"], doc["bounds"], doc["counts"]
    if not (_is_json_int(dim) and isinstance(counts, list)
            and all(map(_is_json_int, counts))):
        raise SchemaViolationError(f"{where}: dim and counts must be integers")
    if not (isinstance(bounds, list)
            and all(isinstance(b, list) and len(b) == 2
                    and all(map(_is_json_number, b)) for b in bounds)):
        raise SchemaViolationError(
            f"{where}: bounds must be [lo, hi] pairs of numbers")
    if len(bounds) != dim or len(counts) != dim:
        raise SchemaViolationError(f"{where}: header lengths disagree with dim")
    try:
        return Grid(tuple((float(lo), float(hi)) for lo, hi in bounds),
                    tuple(counts))
    except (ValueError, OverflowError) as err:
        raise SchemaViolationError(f"{where}: {err}") from None


def _read_document(path: str | Path, kind: str) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise SchemaViolationError(f"{path}: kind is not {kind}")
    if not isinstance(doc.get("name", ""), str):
        raise SchemaViolationError(f"{path}: name is not a string")
    return doc


def write_grid_function(f: GridFunction, path: str | Path) -> None:
    doc = {"kind": "grid_function", **_grid_header(f.grid),
           "norm": NormChoice.L2.value, "name": f.name,
           "values": [_encode_value(float(v)) for v in f.flat]}
    write_json(doc, path)


def read_grid_function(path: str | Path) -> GridFunction:
    doc = _read_document(path, "grid_function")
    grid = _parse_grid_header(doc, str(path))
    values = doc.get("values")
    if not isinstance(values, list) or len(values) != grid.size:
        raise SchemaViolationError(
            f"{path}: values length {len(values) if isinstance(values, list) else '??'} "
            f"does not match grid size {grid.size}")
    vals = np.array([_decode_value(v, str(path)) for v in values])
    f = GridFunction(grid, vals.reshape(grid.shape), name=doc.get("name", ""))
    if not finite_range(f):
        raise SchemaViolationError(f"{path}: values break the finite-range "
                                   "rule: 4 max |f| or 4 max one-step slope "
                                   "on dom f overflows")
    return f


def write_mask(grid: Grid, mask: np.ndarray, path: str | Path,
               name: str = "") -> None:
    m = np.asarray(mask, dtype=bool).reshape(grid.size)
    doc = {"kind": "grid_mask", **_grid_header(grid), "name": name,
           "values": [bool(b) for b in m]}
    write_json(doc, path)


def read_mask(path: str | Path) -> tuple[Grid, np.ndarray, str]:
    doc = _read_document(path, "grid_mask")
    grid = _parse_grid_header(doc, str(path))
    values = doc.get("values")
    if not isinstance(values, list) or len(values) != grid.size:
        raise SchemaViolationError(f"{path}: mask length mismatch")
    if not all(isinstance(b, bool) for b in values):
        raise SchemaViolationError(f"{path}: mask entries must be booleans")
    return grid, np.array(values, dtype=bool), doc.get("name", "")


def read_constraint_set(path: str | Path) -> ConstraintSet:
    grid, mask, name = read_mask(path)
    if not mask.any():
        raise SchemaViolationError(f"{path}: constraint set has no member")
    return ConstraintSet(grid, mask, name)


def write_indices(grid: Grid, indices: np.ndarray, path: str | Path,
                  name: str = "") -> None:
    doc = {"kind": "grid_indices", **_grid_header(grid), "name": name,
           "values": [int(i) for i in np.asarray(indices).reshape(-1)]}
    write_json(doc, path)


def write_modulus_csv(m: Modulus, path: str | Path) -> None:
    lines = ["t,value,empty"]
    for t, v, e in zip(m.radii, m.values, m.empty):
        val = _INF_TOKEN if math.isinf(v) else repr(float(v))
        lines.append(f"{float(t)!r},{val},{int(e)}")
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as err:
        raise IoFailureError(str(err)) from err


def read_modulus_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        lines = Path(path).read_text().strip().splitlines()
    except OSError as err:
        raise IoFailureError(str(err)) from err
    if not lines or lines[0] != "t,value,empty":
        raise SchemaViolationError(f"{path}: missing modulus CSV header")
    ts, vs, es = [], [], []
    for row, ln in enumerate(lines[1:], start=2):
        try:
            t, v, e = ln.split(",")
            if e not in ("0", "1"):
                raise ValueError(f"empty flag {e!r} is not 0 or 1")
            ts.append(float(t))
            vs.append(math.inf if v == _INF_TOKEN else float(v))
        except ValueError as err:
            raise SchemaViolationError(
                f"{path}: line {row} is not a 't,value,empty' row: {err}") from None
        es.append(e == "1")
    return np.array(ts), np.array(vs), np.array(es, dtype=bool)


def sha256_of(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Configuration echo plus content hashes of produced artifacts."""

    version: str
    config: dict
    artifacts: tuple[tuple[str, str], ...]   # (relative path, sha256)

    def to_dict(self) -> dict:
        return {"kind": "run_manifest", "version": self.version,
                "config": self.config,
                "artifacts": [{"path": p, "sha256": h} for p, h in self.artifacts]}


def build_manifest(version: str, config: dict, out_dir: str | Path,
                   paths: Sequence[str | Path]) -> RunManifest:
    out_dir = Path(out_dir)
    arts = []
    for p in sorted(Path(p) for p in paths):
        arts.append((str(p.relative_to(out_dir)), sha256_of(p)))
    return RunManifest(version, config, tuple(arts))
