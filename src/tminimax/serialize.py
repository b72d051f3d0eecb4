"""File formats: matrix/assignment CSV and the row tables.

CSV matrices carry a ``unit,t1..tT`` header and 17-significant-digit
decimal floats, the text ``format_float`` (``%.17g``) gives, which
round-trips float64 exactly.  The matrix writer makes that text for a
block of cells at a time in numpy (``_cells_text``), byte for byte:

- A cell in the band 1e-4 <= |x| < 1e16, which ``%.17g`` writes in fixed
  notation, has E = floor(log10 |x|) in -4..15, so 10**k with k = 16 - E
  is an exact double (k <= 20, and 10**22 is the largest exact one).
  Dekker's two-product (Dekker 1971, "A floating-point technique for
  extending the available precision") splits |x| 10**k into hi + lo
  exactly, as no product in it can overflow or underflow in the band.
- When 10**16 <= hi + lo and D = hi + rint(lo) < 10**17, D is the 17-digit
  integer of |x| correctly rounded, ties to even, as CPython's dtoa rounds:
  hi is an integer above 2**53 and so even, |lo| is at most half its ulp,
  and rint breaks a tie in lo to even, which makes D even.  The range
  check also catches an E that ``log10`` made one off near a power of ten.
- The digits of D come four at a time from a table, its trailing zeros are
  dropped, and a template keyed by (E, digit count, sign) places the sign,
  the point and a leading "0.000"; pad bytes are then removed.
- Every other cell is written by ``format_float`` itself: 0 and -0.0,
  subnormals, |x| < 1e-4 or >= 1e16, nan, inf, and a cell whose D fails
  the range check.

The matrix reader accepts a cell exactly when Python's ``float()``
accepts it and rejects nan and inf.  It reports the first error in file
order among, in turn, the cell counts, then the unit numbers and
non-numbers, then the non-finite values.  Errors name the physical line:
its 1-based position in ``text.splitlines()``, blank lines included.
Both CSV families are read in two passes over the open file: one checks
the header and every row's cell count, and one parses the rows into the
preallocated result, the matrix reader a block of ``_BLOCK_CELLS`` cells
at a time and the assignment reader a run of lines read at once,
rescanning a block row by row only to locate an error.  Both are written
a block of rows at a time.  So reading an N x T matrix needs about 8 N T
bytes plus one block, never the file's text or one Python string per
cell.  JSON output is canonical (sorted keys, compact separators,
shortest round-trip floats), so identical inputs always produce
identical bytes.  All writes go through a temp file and rename, never a
partial file, and the file gets the mode ``open()`` would give it under
the process umask.
"""

from __future__ import annotations

import io
import itertools
import json
import os
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .core import AssignmentMatrix, Family, _arm_vectors

__all__ = [
    "ParseError",
    "format_float",
    "canonical_json",
    "atomic_write_text",
    "read_matrix_csv",
    "write_matrix_csv",
    "read_assignment_csv",
    "write_assignment_csv",
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
    _write_chunks(path, (text,))


def _write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks in order to a sibling temp file, then rename it
    over ``path``, which gets the mode ``open()`` would give a new file.
    If a chunk raises, the temp file is removed and ``path`` is left as it
    was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    # 0o666 narrowed by the umask, as open() creates a file (mkstemp: 0o600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Cells parsed or formatted at a time: the CSV readers and the assignment
# writer hold one block of cell strings, never the whole file's.
_BLOCK_CELLS = 1 << 14
# Cells the matrix writer formats at a time, unit numbers included: the
# temporaries of ``_cells_text`` stay near 500 bytes per cell.
_WRITE_CELLS = 1 << 12


def _block_rows(T: int) -> int:
    """Rows per block of a matrix with T periods (and one unit column)."""
    return max(1, _BLOCK_CELLS // (T + 1))


def _header(T: int) -> list[str]:
    return ["unit"] + [f"t{t}" for t in range(1, T + 1)]


def _matrix_blocks(values: np.ndarray) -> Iterator[str]:
    """The CSV text of a matrix: its header line, then its rows in blocks
    of at most ``_WRITE_CELLS`` cells, or one row split into such blocks,
    each written by ``_cells_text``.  The unit numbers go through it as the
    first column: a unit number up to 2**53 is an exact float whose
    ``format_float`` text is its ``%d`` text.  The shape is checked before
    any text is made."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {values.shape}")
    N, T = values.shape
    # a numeric cell cast to float64 is float() of it, as format_float takes;
    # other cells (strings, complex) are passed through float() one by one
    numeric = values.dtype.kind in "biuf"
    size = max(1, _WRITE_CELLS // (T + 1))

    def blocks(r0: int) -> Iterator[str]:
        rows = values[r0:r0 + size]
        cells = np.empty((len(rows), T + 1))
        cells[:, 0] = np.arange(r0 + 1, r0 + len(rows) + 1)
        cells[:, 1:] = rows if numeric else np.fromiter(
            map(float, rows.flat), float, count=rows.size).reshape(rows.shape)
        flat = cells.reshape(-1)
        for i in range(0, flat.size, _WRITE_CELLS):
            yield _cells_text(flat[i:i + _WRITE_CELLS], i, T + 1)

    rows = itertools.chain.from_iterable(map(blocks, range(0, N, size)))
    return itertools.chain([",".join(_header(T)) + "\n"], rows)


# Bytes per cell of the kernel's text: the longest format_float text (24,
# as in -1.2345678901234567e-308) and a separator.
_SLOT = 25
# A template names, for each byte of a cell's text, a column of the cell's
# source row: its 17 digits, then these.
_MINUS, _POINT, _ZERO, _SEP, _PAD = range(17, 22)


@lru_cache(maxsize=None)
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """The 4 ASCII digits of each number 0..9999, as a 10000 x 4 uint8
    array, and the count of its trailing zero digits (4 for 0)."""
    texts = [f"{g:04d}" for g in range(10000)]
    digits = np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(10000, 4)
    trailing = np.array([4 - len(text.rstrip("0")) for text in texts], np.int8)
    return digits, trailing


@lru_cache(maxsize=None)
def _templates() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The constants of the band exponents E = -4..15: 10**(16 - E) with its
    Veltkamp halves (high 26 bits and the rest), and a 20 x 17 x 2 x
    ``_SLOT`` table of the source columns of the text of a cell with
    exponent E, n significant digits and the sign bit s, flattened to one
    row per key ((E + 4) * 17 + n - 1) * 2 + s.  The text is fixed notation
    with trailing zeros dropped, as ``%.17g`` writes it: a minus sign, then
    "0." and -E - 1 zeros before the digits when E < 0, else the first
    max(n, E + 1) digits with a point after digit E when n > E + 1; then the
    separator, and pads to the end of the slot."""
    scale = np.array([float(10 ** (16 - E)) for E in range(-4, 16)])
    c = scale * 134217729.0  # 2**27 + 1
    scale_hi = c - (c - scale)
    table = np.full((20, 17, 2, _SLOT), _PAD, np.int32)
    for E, n, s in itertools.product(range(-4, 16), range(1, 18), (0, 1)):
        cols = [_MINUS] if s else []
        if E < 0:
            cols += [_ZERO, _POINT] + [_ZERO] * (-E - 1) + list(range(n))
        else:
            cols += list(range(E + 1))
            if n > E + 1:
                cols += [_POINT] + list(range(E + 1, n))
        cols.append(_SEP)
        table[E + 4, n - 1, s, :len(cols)] = cols
    return scale, scale_hi, scale - scale_hi, table.reshape(-1, _SLOT)


def _cells_text(x: np.ndarray, first: int, C: int) -> str:
    """The text of cells first..first + len(x) - 1 of a flattened block of
    rows of C cells: each cell's ``format_float`` text and a comma, or a
    line break after the last cell of a row.  A cell in the band 1e-4 <=
    |x| < 1e16 is formatted in numpy from its 17 correctly rounded digits,
    any other cell, and any whose digits fail the range check, by
    ``format_float`` itself (see the module docstring)."""
    scale, scale_hi, scale_lo, templates = _templates()
    four, trailing = _digit_table()
    m = len(x)
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        E = np.floor(np.log10(a))  # may be one off near a power of ten
    band = (E >= -4) & (E <= 15)
    e = np.where(band, E + 4, 4).astype(np.intp)
    a[~band] = 1.0
    # Dekker's two-product: hi + lo == a * 10**(16 - E) exactly
    s_hi, s_lo = scale_hi.take(e), scale_lo.take(e)
    hi = a * scale.take(e)
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # 10**16 <= hi + lo, so E is not too high, and D < 10**17, so E is not
    # too low and the rounding did not carry to 10**(E + 1)
    fast = band & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (D < 10 ** 17)
    D[~fast] = 10 ** 16  # placeholder digits: format_float writes these cells
    top, low = np.divmod(D, 10 ** 8)
    d0, rest = np.divmod(top.astype(np.int32), 10 ** 8)
    groups = np.empty((m, 4), np.int32)  # digits 1-4, 5-8, 9-12, 13-16
    np.divmod(rest, 10 ** 4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low.astype(np.int32), 10 ** 4, out=(groups[:, 2], groups[:, 3]))
    # D's trailing zeros: a group of four zeros adds the previous group's
    z = trailing.take(groups)
    zeros = z[:, 3] + (z[:, 3] == 4) * (z[:, 2] + (z[:, 2] == 4) * (
        z[:, 1] + (z[:, 1] == 4) * z[:, 0]))
    key = (e * 17 + 16 - zeros) * 2 + np.signbit(x)
    source = np.empty((m, _PAD + 1), np.uint8)
    source[:, 0] = d0 + ord("0")
    source[:, 1:17].reshape(m, 4, 4)[:] = four.take(groups, axis=0)
    source[:, _MINUS:] = np.frombuffer(b"-.0,\0", np.uint8)
    source[(C - 1 - first) % C::C, _SEP] = ord("\n")
    at = templates.take(key, axis=0)
    at += np.arange(0, m * (_PAD + 1), _PAD + 1, dtype=np.int32)[:, None]
    text = source.reshape(-1).take(at)
    for i in np.flatnonzero(~fast).tolist():
        slow = (format_float(x[i]) + ("," if (first + i + 1) % C else "\n")).encode("ascii")
        text[i] = 0
        text[i, :len(slow)] = np.frombuffer(slow, np.uint8)
    text = text.reshape(-1)
    return text[text != 0].tobytes().decode("ascii")


def write_matrix_csv(path: str, values: np.ndarray) -> None:
    _write_chunks(path, _matrix_blocks(values))


# The line numbers and texts of a run of lines read at once.
_Run = tuple[Sequence[int], list[str]]


def _line_runs(handle: TextIO) -> Iterator[_Run]:
    """The line numbers and texts of the non-blank lines of an open text
    file, a run of whole lines of about ``_BLOCK_CELLS`` characters at a
    time.  Lines and their numbers are those of ``text.splitlines()`` on
    the whole text, so a form feed or a line separator also ends a line; a
    run ends at a line break, so splitting it gives the lines that
    splitting the whole text would.  Every run holds at least one line."""
    ln = 0
    while chunk := handle.readlines(_BLOCK_CELLS):
        texts = "".join(chunk).splitlines()
        numbers: Sequence[int] = range(ln + 1, ln + 1 + len(texts))
        ln += len(texts)
        if not all(map(str.strip, texts)):
            kept = [(n, line) for n, line in zip(numbers, texts) if line.strip()]
            numbers, texts = [n for n, _ in kept], [line for _, line in kept]
        if texts:
            yield numbers, texts


def _after_first(handle: TextIO) -> tuple[tuple[int, str], Iterator[_Run]]:
    """The number and text of the first non-blank line of an open text
    file, ``(0, "")`` if there is none, and the runs of ``_line_runs``
    after it."""
    runs = _line_runs(handle)
    numbers, texts = next(runs, ((0,), [""]))
    rest = [(numbers[1:], texts[1:])] if len(texts) > 1 else []
    return (numbers[0], texts[0]), itertools.chain(rest, runs)


def _scan(path: str, handle: TextIO) -> tuple[int, int]:
    """First pass over a unit,t1..tT file: checks the header and every
    row's cell count; returns T and the number of data rows."""
    (ln, head), runs = _after_first(handle)
    if not ln:
        raise ParseError(f"{path}: empty input, expected a unit,t1..tT matrix")
    header = head.split(",")
    if header[0] != "unit" or len(header) < 3:
        raise ParseError(f"{path}, line {ln}: expected header unit,t1..tT, got {head!r}")
    for j, name in enumerate(header[1:], start=1):
        if name != f"t{j}":
            raise ParseError(f"{path}, line {ln}, column {j + 1}: expected t{j}, got {name!r}")
    T = len(header) - 1
    n = 0
    for numbers, texts in runs:
        commas = list(map(str.count, texts, itertools.repeat(",")))
        if commas.count(T) != len(commas):
            i = next(i for i, count in enumerate(commas) if count != T)
            raise ParseError(
                f"{path}, line {numbers[i]}: row has {commas[i] + 1} cells, expected {T + 1}"
            )
        n += len(texts)
    if not n:
        raise ParseError(f"{path}: no data rows")
    return T, n


def _data_runs(handle: TextIO) -> Iterator[_Run]:
    """Second pass: the numbers and texts of the data lines, from the top
    of the file, a run at a time."""
    handle.seek(0)
    return _after_first(handle)[1]


def _data_lines(handle: TextIO) -> Iterator[tuple[int, str]]:
    """Second pass: the numbered data lines, from the top of the file."""
    return itertools.chain.from_iterable(zip(*run) for run in _data_runs(handle))


def _open_text(path: str) -> TextIO:
    """The file opened for the two passes of a reader; a pipe, which
    cannot seek back, is read into memory first."""
    handle = open(path)
    if handle.seekable():
        return handle
    with handle:
        return io.StringIO(handle.read())


def _unit_error(path: str, ln: int, r: int, cell: str) -> ParseError:
    return ParseError(f"{path}, line {ln}: expected unit {r + 1}, got {cell!r}")


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a unit,t1..tT matrix of finite floats.

    A cell is accepted exactly when Python's ``float()`` accepts it and the
    value is finite.  Errors name their line and column.  A row with the
    wrong cell count anywhere is reported first, then the first wrong unit
    number or non-number in file order, then the first nan or inf."""
    with _open_text(path) as handle:
        T, n = _scan(path, handle)
        out = np.empty((n, T))
        flat = out.reshape(-1)
        lines = _data_lines(handle)
        size = _block_rows(T)
        non_finite = None
        r = 0
        while block := list(itertools.islice(lines, size)):
            b = len(block)
            cells = ",".join([line for _, line in block]).split(",")
            if cells[::T + 1] != [str(i) for i in range(r + 1, r + b + 1)]:
                _raise_first_row_error(path, r, block)
            del cells[::T + 1]
            values = flat[r * T:(r + b) * T]
            try:
                values[:] = np.fromiter(map(float, cells), float, count=b * T)
            except ValueError:
                _raise_first_row_error(path, r, block)
            del cells  # before the next block's cells are made
            if non_finite is None and not np.isfinite(values).all():
                i, c = divmod(int(np.argmin(np.isfinite(values))), T)
                ln, line = block[i]
                non_finite = ParseError(f"{path}, line {ln}, column {c + 2}: "
                                        f"not a finite number: {line.split(',')[c + 1]!r}")
            r += b
    if non_finite is not None:
        raise non_finite
    return out


def _raise_first_row_error(path: str, r0: int, block: list[tuple[int, str]]) -> NoReturn:
    """Locates what made a block of data rows fail to parse: scans it row
    by row and raises the first unit or non-number error in file order.
    ``r0`` is the index of the block's first data row."""
    for r, (ln, line) in enumerate(block, start=r0):
        cells = line.split(",")
        if cells[0] != str(r + 1):
            raise _unit_error(path, ln, r, cells[0])
        for c, cell in enumerate(cells[1:], start=2):
            try:
                float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}, line {ln}, column {c}: not a number: {cell!r}"
                ) from None
    raise AssertionError(f"{path}: no malformed row found")


# ---------------------------------------------------------------------------
# Assignment matrices.  The CSV form stores the expanded 0/1 matrix.  The
# writer formats each arm's row from ``core._arm_vectors`` and the reader
# decodes rows through the same texts, for both families.
# ---------------------------------------------------------------------------


def _row_texts(T: int, family: Family) -> list[str]:
    """The CSV cell text of each arm code's 0/1 row, without the unit."""
    return [",".join(map(str, bits.tolist())) for bits in _arm_vectors(T, family)]


def _assignment_blocks(Z: AssignmentMatrix) -> Iterator[str]:
    """The CSV text of an assignment: its header line, then its rows in
    blocks.  A unit's row depends only on its arm, so the T+1 rows are
    formatted once."""
    rows = [text + "\n" for text in _row_texts(Z.T, Z.family)]
    size = _block_rows(Z.T)

    def block(r0: int) -> str:
        codes = Z.codes[r0:r0 + size].tolist()
        return "".join([f"{i},{rows[code]}" for i, code in enumerate(codes, start=r0 + 1)])

    return itertools.chain([",".join(_header(Z.T)) + "\n"], map(block, range(0, Z.N, size)))


def write_assignment_csv(path: str, Z: AssignmentMatrix) -> None:
    _write_chunks(path, _assignment_blocks(Z))


def _row_table(T: int) -> dict[str, tuple[int, Family | None]]:
    """Each row text the writer makes for either family, mapped to its arm
    code and family vote.  The rows both families write (always0, always1
    and pulse_T) vote for neither."""
    table: dict[str, tuple[int, Family | None]] = {}
    for family in (Family.PULSE, Family.WEDGE):
        for code, text in enumerate(_row_texts(T, family)):
            table[text] = (code, None) if text in table else (code, family)
    return table


def _decode_row(table: dict[str, tuple[int, Family | None]], key: str,
                where: str) -> tuple[int, Family | None]:
    """The arm code and family vote of one row's cell text.  A text the
    writer does not make is read cell by cell through ``int()`` and looked
    up again."""
    entry = table.get(key)
    if entry is not None:
        return entry
    try:
        bits = [int(c) for c in key.split(",")]
    except ValueError:
        raise ParseError(f"{where}: assignment cells must be 0 or 1") from None
    if not set(bits) <= {0, 1}:
        raise ParseError(f"{where}: assignment cells must be 0 or 1")
    entry = table.get(",".join(map(str, bits)))
    if entry is not None:
        return entry
    if bits[0] == 1 and sum(bits) == 1:
        raise ParseError(f"{where}: single treated period at t=1 is not a valid arm")
    raise ParseError(f"{where}: row pattern {bits} is not a valid arm")


def read_assignment_csv(path: str, family: Family = Family.PULSE) -> AssignmentMatrix:
    """Decode an assignment matrix from its 0/1 CSV form.  The family is
    inferred from the row patterns when they pin it down; ``family``
    breaks the tie when every row is ambiguous.

    The second pass decodes a run of rows at a time: the unit column is
    split off the run's rows and checked against the expected numbers at
    once, and the row texts are mapped to arm codes through a memo that
    decodes each distinct text once, at its first occurrence.  So an
    invalid row is reported at the first line that carries it, and before
    a wrong unit number on a later line."""
    with _open_text(path) as handle:
        T, n = _scan(path, handle)
        codes = np.empty(n, dtype=np.int64)
        table = _row_table(T)
        decoded: dict[str, int] = {}
        votes = set()
        r = 0
        for numbers, texts in _data_runs(handle):
            b = len(texts)
            parts = list(map(str.partition, texts, itertools.repeat(",")))
            keys = list(map(itemgetter(2), parts))
            # no unit holds a line break, so the joined texts match exactly
            # when every unit does
            units = "\n".join(map(itemgetter(0), parts)) + "\n"
            bad = b
            if units != ("%d\n" * b) % tuple(range(r + 1, r + b + 1)):
                bad = next(i for i, part in enumerate(parts) if part[0] != str(r + i + 1))
            if not decoded.keys() >= set(keys[:bad]):
                for ln, key in zip(numbers, keys[:bad]):
                    if key not in decoded:
                        decoded[key], vote = _decode_row(table, key, f"{path}, line {ln}")
                        if vote is not None:
                            votes.add(vote)
            if bad < b:
                raise _unit_error(path, numbers[bad], r + bad, parts[bad][0])
            codes[r:r + b] = np.fromiter(map(decoded.__getitem__, keys), np.int64, count=b)
            r += b
    if len(votes) > 1:
        raise ParseError(f"{path}: rows mix pulse and wedge patterns")
    chosen = votes.pop() if votes else family
    return AssignmentMatrix._from_codes(codes, T, chosen)


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
