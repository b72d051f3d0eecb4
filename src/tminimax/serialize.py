"""File formats: matrix/assignment CSV, schedule JSON, table writers.

CSV matrices carry a ``unit,t1..tT`` header and 17-significant-digit
decimal floats, which round-trip float64 exactly; each row is written
with one ``%d,%.17g,...`` template.  The matrix reader accepts a cell
exactly when Python's ``float()`` accepts it and rejects nan and inf.  It
reports the first error in file order among, in turn, the cell counts,
then the unit numbers and non-numbers, then the non-finite values.  It
checks and parses all cells in one pass and rescans row by row only to
locate an error.  JSON documents are canonical (sorted keys, compact
separators, shortest round-trip floats), so identical inputs always
produce identical bytes.  The JSON readers take an object with every
field present, integer fields as JSON integers, ``labels`` as a list,
``arms`` as an object, each matrix cell as a finite JSON number and each
matrix row with the shape of its first row, and raise ``ParseError``
naming the field or arm otherwise.  All writes go through a temp file and
rename, never a partial file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .core import (
    ArmId,
    AssignmentMatrix,
    Family,
    PotentialOutcomeSchedule,
    _arm_code,
    _arm_vectors,
    _check_codes,
    _check_horizon,
    arm_from_label,
    pulse_arm,
)

__all__ = [
    "ParseError",
    "format_float",
    "canonical_json",
    "atomic_write_text",
    "matrix_to_csv",
    "read_matrix_csv",
    "write_matrix_csv",
    "assignment_to_csv",
    "read_assignment_csv",
    "write_assignment_csv",
    "assignment_to_json",
    "assignment_from_json",
    "schedule_to_json",
    "schedule_from_json",
    "write_schedule_csv",
    "read_schedule_csv",
    "rows_to_csv",
    "rows_to_json",
]


class ParseError(ValueError):
    """Malformed input file; the message carries file, line, and column."""


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def canonical_json(obj) -> str:
    """Sorted keys, no spaces, one trailing newline.  A value that was not
    computed is ``None`` (``null``); NaN and infinities are not JSON, so
    they raise ``ValueError``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(T: int) -> list[str]:
    return ["unit"] + [f"t{t}" for t in range(1, T + 1)]


def matrix_to_csv(values: np.ndarray) -> str:
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {values.shape}")
    N, T = values.shape
    # "%.17g" formats float() of a Python number, as format_float does, so
    # one template per row writes the same bytes as formatting cell by cell;
    # other cells (strings, complex) need the explicit float() first
    if values.dtype.kind in "biuf":
        rows = (cells.tolist() for cells in values)
    else:
        rows = ([float(v) for v in cells] for cells in values)
    row = ",".join(["%d"] + ["%.17g"] * T)
    lines = [",".join(_header(T))]
    lines.extend(row % (i, *cells) for i, cells in enumerate(rows, start=1))
    return "\n".join(lines) + "\n"


def write_matrix_csv(path: str, values: np.ndarray) -> None:
    atomic_write_text(path, matrix_to_csv(values))


def _csv_body(path: str, text: str) -> tuple[int, list[str]]:
    """Checks the header of a unit,t1..tT file; returns T and the non-blank
    data lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty input, expected a unit,t1..tT matrix")
    header = lines[0].split(",")
    if header[0] != "unit" or len(header) < 3:
        raise ParseError(f"{path}, line 1: expected header unit,t1..tT, got {lines[0]!r}")
    for j, name in enumerate(header[1:], start=1):
        if name != f"t{j}":
            raise ParseError(f"{path}, line 1, column {j + 1}: expected t{j}, got {name!r}")
    if len(lines) == 1:
        raise ParseError(f"{path}: no data rows")
    return len(header) - 1, lines[1:]


def _check_cell_counts(path: str, T: int, body: list[str]) -> None:
    for ln, line in enumerate(body, start=2):
        if line.count(",") != T:
            raise ParseError(
                f"{path}, line {ln}: row has {line.count(',') + 1} cells, expected {T + 1}"
            )


def _unit_error(path: str, r: int, cell: str) -> ParseError:
    return ParseError(f"{path}, line {r + 2}: expected unit {r + 1}, got {cell!r}")


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a unit,t1..tT matrix of finite floats.

    A cell is accepted exactly when Python's ``float()`` accepts it and the
    value is finite.  Errors name their line and column.  A row with the
    wrong cell count anywhere is reported first, then the first wrong unit
    number or non-number in file order, then the first nan or inf."""
    with open(path) as handle:
        text = handle.read()
    T, body = _csv_body(path, text)
    del text  # the cell strings are the peak; the raw text is no longer needed
    parsed = _parse_cells(T, body)
    if parsed is None:
        _raise_first_row_error(path, T, body)
    out, cells = parsed
    bad = np.flatnonzero(~np.isfinite(out))  # row-major, so file order
    if len(bad):
        r, c = divmod(int(bad[0]), T)
        raise ParseError(
            f"{path}, line {r + 2}, column {c + 2}: not a finite number: {cells[bad[0]]!r}"
        )
    return out


def _parse_cells(T: int, body: list[str]) -> tuple[np.ndarray, list[str]] | None:
    """All data lines checked and parsed in one pass: the n x T values and
    their cell texts, or None when a line has the wrong cell count or unit,
    or a cell that ``float()`` rejects."""
    n = len(body)
    if any(line.count(",") != T for line in body):
        return None
    cells = ",".join(body).split(",")
    if cells[::T + 1] != [str(i) for i in range(1, n + 1)]:
        return None
    del cells[::T + 1]
    try:
        values = np.fromiter(map(float, cells), float, count=n * T)
    except ValueError:
        return None
    return values.reshape(n, T), cells


def _raise_first_row_error(path: str, T: int, body: list[str]) -> NoReturn:
    """Locates what made ``_parse_cells`` fail: scans row by row and raises
    the first cell-count, unit or non-number error in file order."""
    _check_cell_counts(path, T, body)
    for r, cells in enumerate(line.split(",") for line in body):
        if cells[0] != str(r + 1):
            raise _unit_error(path, r, cells[0])
        for c, cell in enumerate(cells[1:], start=2):
            try:
                float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}, line {r + 2}, column {c}: not a number: {cell!r}"
                ) from None
    raise AssertionError(f"{path}: no malformed row found")


# ---------------------------------------------------------------------------
# Assignment matrices.  The CSV form stores the expanded 0/1 matrix; rows
# decode back to arms (all zeros, all ones, a single one, or a run of ones
# through the last period).
# ---------------------------------------------------------------------------


def assignment_to_csv(Z: AssignmentMatrix) -> str:
    # a unit's row depends only on its arm: format the T+1 rows once
    rows = [",".join(map(str, bits.tolist())) for bits in _arm_vectors(Z.T, Z.family)]
    lines = [",".join(_header(Z.T))]
    lines.extend(f"{i},{rows[code]}" for i, code in enumerate(Z.codes.tolist(), start=1))
    return "\n".join(lines) + "\n"


def write_assignment_csv(path: str, Z: AssignmentMatrix) -> None:
    atomic_write_text(path, assignment_to_csv(Z))


def _decode_bits(bits: np.ndarray, where: str) -> tuple[ArmId | None, Family | None]:
    """Returns (arm with a placeholder family, family vote).  The vote is
    None when the pattern fits both families."""
    T = len(bits)
    ones = np.nonzero(bits)[0]
    if len(ones) == 0:
        return arm_from_label("always0"), None
    if len(ones) == T:
        return arm_from_label("always1"), None
    start = int(ones[0]) + 1
    if len(ones) == 1:
        if start < 2:
            raise ParseError(f"{where}: single treated period at t=1 is not a valid arm")
        return pulse_arm(start), None if start == T else Family.PULSE
    if np.array_equal(ones, np.arange(ones[0], T)) and start >= 2:
        return pulse_arm(start), Family.WEDGE
    raise ParseError(f"{where}: row pattern {bits.tolist()} is not a valid arm")


def read_assignment_csv(path: str, family: Family = Family.PULSE) -> AssignmentMatrix:
    """Decode an assignment matrix from its 0/1 CSV form.  The family is
    inferred from the row patterns when they pin it down; ``family``
    breaks the tie when every row is ambiguous."""
    with open(path) as handle:
        text = handle.read()
    T, body = _csv_body(path, text)
    _check_cell_counts(path, T, body)
    # each distinct row text is decoded once, at its first occurrence, so an
    # invalid row is reported at the first line that carries it
    decoded: dict[str, int] = {}
    codes = []
    votes = set()
    for r, line in enumerate(body):
        unit, _, key = line.partition(",")
        if unit != str(r + 1):
            raise _unit_error(path, r, unit)
        code = decoded.get(key)
        if code is None:
            ln = r + 2
            try:
                bits = np.array([int(c) for c in key.split(",")])
            except ValueError:
                raise ParseError(f"{path}, line {ln}: assignment cells must be 0 or 1") from None
            if not np.isin(bits, (0, 1)).all():
                raise ParseError(f"{path}, line {ln}: assignment cells must be 0 or 1")
            arm, vote = _decode_bits(bits, f"{path}, line {ln}")
            code = decoded[key] = _arm_code(arm)
            if vote is not None:
                votes.add(vote)
        codes.append(code)
    if len(votes) > 1:
        raise ParseError(f"{path}: rows mix pulse and wedge patterns")
    chosen = votes.pop() if votes else family
    return AssignmentMatrix._from_codes(np.array(codes, dtype=np.int64), T, chosen)


def assignment_to_json(Z: AssignmentMatrix) -> str:
    return canonical_json({
        "t": Z.T,
        "family": Z.family.value,
        "labels": [a.label for a in Z.arm_labels],
    })


_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "list", dict: "object", type(None): "null"}


def _json_object(text: str, fields: dict[str, type | None]) -> dict:
    """Parse a JSON document that must be an object holding every field,
    each of the given type (None: any).  An integer field takes a JSON
    integer only, never a number with a fraction part or a boolean."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ParseError(f"JSON document must be an object, got {_JSON_TYPES[type(doc)]}")
    for name, kind in fields.items():
        if name not in doc:
            raise ParseError(f"JSON document has no {name!r} field")
        if kind is not None and type(doc[name]) is not kind:
            raise ParseError(f"field {name!r} must be a JSON {_JSON_TYPES[kind]}, "
                             f"got {_JSON_TYPES[type(doc[name])]}")
    return doc


def assignment_from_json(text: str) -> AssignmentMatrix:
    doc = _json_object(text, {"t": int, "family": None, "labels": list})
    family = Family(doc["family"])
    labels = doc["labels"]
    bad = [lbl for lbl in labels if not isinstance(lbl, str)]
    if bad:
        raise ParseError(f"arm label must be a string, got {bad[0]!r}")
    # each distinct label is parsed once, in order of first occurrence
    table = {lbl: _arm_code(arm_from_label(lbl, family)) for lbl in dict.fromkeys(labels)}
    codes = np.fromiter(map(table.__getitem__, labels), dtype=np.int64, count=len(labels))
    T = doc["t"]
    _check_horizon(T)
    _check_codes(codes, T, lambda i: arm_from_label(labels[i], family))
    return AssignmentMatrix._from_codes(codes, T, family)


# ---------------------------------------------------------------------------
# Schedules.
# ---------------------------------------------------------------------------


def schedule_to_json(sched: PotentialOutcomeSchedule) -> str:
    """Single-document schedule serialization; floats round-trip exactly."""
    return canonical_json({
        "n": sched.N,
        "t": sched.T,
        "arms": {arm.label: sched.matrix(arm).tolist() for arm in sched.arms},
    })


def _row_shape(row) -> str:
    return f"a list of length {len(row)}" if type(row) is list else "a number"


def _arm_matrix(label: str, matrix) -> np.ndarray:
    """One arm's matrix as floats.  Every cell must be a JSON integer or
    float within float range, never a boolean, string, null, NaN or
    Infinity, and every row must have the shape of row 0; the matrix's
    N x T shape is checked by the schedule."""
    rows = matrix if type(matrix) is list else [matrix]
    for row in rows:
        for cell in row if type(row) is list else [row]:
            if type(cell) not in (int, float) or not abs(cell) <= sys.float_info.max:
                if type(cell) is float:  # NaN, Infinity or -Infinity
                    got = json.dumps(cell)
                elif type(cell) is int:
                    got = "integer beyond float range"
                else:
                    got = _JSON_TYPES[type(cell)]
                raise ParseError(
                    f"arm {label!r}: matrix cell must be a finite JSON number, got {got}"
                )
    for i, row in enumerate(rows):
        if _row_shape(row) != _row_shape(rows[0]):
            raise ParseError(f"arm {label!r}: row {i} is {_row_shape(row)} "
                             f"but row 0 is {_row_shape(rows[0])}")
    return np.array(matrix, dtype=float)


def _shared_schedule(arms: Iterable[tuple[ArmId, np.ndarray]]) -> PotentialOutcomeSchedule:
    """A schedule from parsed arm matrices, in which arms whose matrices
    hold the same bytes are one object, so the schedule stores them once.
    A hash of the bytes finds the candidate and a bitwise comparison
    confirms it; only the distinct matrices are kept while parsing."""
    first: dict[bytes, np.ndarray] = {}
    shared = {}
    for arm, m in arms:
        kept = first.setdefault(hashlib.blake2b(m, digest_size=16).digest(), m)
        shared[arm] = kept if np.array_equal(kept.view(np.int64), m.view(np.int64)) else m
    return PotentialOutcomeSchedule(shared)


def schedule_from_json(text: str) -> PotentialOutcomeSchedule:
    doc = _json_object(text, {"n": int, "t": int, "arms": dict})
    sched = _shared_schedule(
        (arm_from_label(label), _arm_matrix(label, matrix))
        for label, matrix in doc["arms"].items()
    )
    if (sched.N, sched.T) != (doc["n"], doc["t"]):
        raise ParseError(
            f"schedule document says N={doc['n']}, T={doc['t']} but matrices are "
            f"{sched.N} x {sched.T}"
        )
    return sched


def write_schedule_csv(directory: str, sched: PotentialOutcomeSchedule) -> list[str]:
    """One CSV per arm, named by arm label; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for arm in sched.arms:
        path = os.path.join(directory, f"{arm.label}.csv")
        write_matrix_csv(path, sched.matrix(arm))
        paths.append(path)
    return paths


def read_schedule_csv(directory: str) -> PotentialOutcomeSchedule:
    files = sorted(f for f in os.listdir(directory) if f.endswith(".csv"))
    if not files:
        raise ParseError(f"{directory}: no arm CSV files found")
    return _shared_schedule(
        (arm_from_label(name[:-4]), read_matrix_csv(os.path.join(directory, name)))
        for name in files
    )


# ---------------------------------------------------------------------------
# Row tables (design / estimate / risk / simulate outputs).
# ---------------------------------------------------------------------------


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def rows_to_csv(rows: Sequence[dict]) -> str:
    if not rows:
        raise ValueError("cannot write an empty table")
    fields = list(rows[0].keys())
    lines = [",".join(fields)]
    for row in rows:
        if list(row.keys()) != fields:
            raise ValueError("all table rows must share the same columns")
        lines.append(",".join(_format_cell(row[f]) for f in fields))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[dict]) -> str:
    return canonical_json(list(rows))
