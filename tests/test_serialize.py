"""Tests for CSV round-trips, parse errors and the row tables."""

import hashlib
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import tminimax
from tminimax.allocation import ObjectiveMode, integer_solve
from tminimax.core import (
    ALWAYS_CONTROL,
    ALWAYS_TREATED,
    Allocation,
    AssignmentMatrix,
    Family,
    draw_assignment,
    observe,
    pulse_arm,
)
from tminimax.serialize import (
    _WRITE_CELLS,
    ParseError,
    _block_rows,
    _decode_row,
    _row_table,
    atomic_write_text,
    format_float,
    read_assignment_csv,
    read_matrix_csv,
    rows_to_csv,
    rows_to_json,
    write_matrix_csv,
    write_assignment_csv,
)
from tminimax.simulate import ModelParams, habituation_model


def _written_text(write, data):
    """The text ``write(path, data)`` puts in a file, line ends as written."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "out.csv")
        write(path, data)
        with open(path, newline="") as handle:
            return handle.read()


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-8, 8, size=(7, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(str(path), values)
        assert np.array_equal(read_matrix_csv(str(path)), values)

    def test_header_and_units(self):
        text = _written_text(write_matrix_csv, np.array([[1.5, 2.0]]))
        lines = text.splitlines()
        assert lines[0] == "unit,t1,t2"
        assert lines[1].startswith("1,")

    def test_seventeen_digit_floats(self):
        x = 0.1 + 0.2
        assert float(format_float(x)) == x

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty input"):
            read_matrix_csv(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("unit,t1,t2\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_matrix_csv(str(path))

    def test_ragged_row_names_the_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("unit,t1,t2\n1,1.0,2.0\n2,3.0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_matrix_csv(str(path))

    def test_bad_float_names_line_and_column(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("unit,t1,t2\n1,1.0,oops\n")
        with pytest.raises(ParseError, match="line 2, column 3"):
            read_matrix_csv(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bh.csv"
        path.write_text("unit,a,b\n1,1.0,2.0\n")
        with pytest.raises(ParseError, match="expected t1"):
            read_matrix_csv(str(path))

    @pytest.mark.parametrize("cell", [
        "nan", "inf", "-inf", "Infinity", "1e999", "NaN", "-Infinity", "-1e999",
        pytest.param("1" + "0" * 400, id="integer_beyond_float_range"),
    ])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "nf.csv"
        path.write_text(f"unit,t1,t2\n1,1.0,2.0\n2,3.0,{cell}\n3,nan,4.0\n")
        with pytest.raises(ParseError, match=f"line 3, column 3: not a finite number: '{cell}'"):
            read_matrix_csv(str(path))

    @pytest.mark.parametrize("cell", ["null", "true", '"1"', "[1]", ""],
                             ids=["null", "bool", "quoted", "list", "empty"])
    def test_non_number_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "nn.csv"
        path.write_text(f"unit,t1,t2\n1,1.0,2.0\n2,3.0,{cell}\n")
        with pytest.raises(ParseError) as info:
            read_matrix_csv(str(path))
        assert str(info.value) == f"{path}, line 3, column 3: not a number: '{cell}'"

    def test_wrong_unit_number(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("unit,t1,t2\n5,1.0,2.0\n")
        with pytest.raises(ParseError, match="expected unit 1"):
            read_matrix_csv(str(path))


def _naive_read_matrix_csv(path):
    """Test-only copy of the row-by-row reader that the bulk reader replaced:
    split each line, check its cell count, then its unit, then float() each
    cell; non-finite values are checked after the whole parse.  Errors name
    the line's 1-based position in ``text.splitlines()``, blank lines
    included."""
    with open(path) as handle:
        text = handle.read()
    lines = [(ln, line) for ln, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty input, expected a unit,t1..tT matrix")
    head_ln, head = lines[0]
    header = head.split(",")
    if header[0] != "unit" or len(header) < 3:
        raise ParseError(f"{path}, line {head_ln}: expected header unit,t1..tT, got {head!r}")
    for j, name in enumerate(header[1:], start=1):
        if name != f"t{j}":
            raise ParseError(
                f"{path}, line {head_ln}, column {j + 1}: expected t{j}, got {name!r}"
            )
    if len(lines) == 1:
        raise ParseError(f"{path}: no data rows")
    rows = []
    for ln, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(
                f"{path}, line {ln}: row has {len(cells)} cells, expected {len(header)}"
            )
        rows.append((ln, cells))
    T = len(header) - 1
    out = np.empty((len(rows), T))
    for r, (ln, cells) in enumerate(rows):
        if cells[0] != str(r + 1):
            raise ParseError(f"{path}, line {ln}: expected unit {r + 1}, got {cells[0]!r}")
        for c, cell in enumerate(cells[1:], start=1):
            try:
                out[r, c - 1] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}, line {ln}, column {c + 1}: not a number: {cell!r}"
                ) from None
    bad = np.argwhere(~np.isfinite(out))
    if len(bad):
        r, c = (int(v) for v in bad[0])
        ln, cells = rows[r]
        raise ParseError(
            f"{path}, line {ln}, column {c + 2}: not a finite number: {cells[c + 1]!r}"
        )
    return out


def _outcome(reader, path):
    """What a reader makes of a file: the result's dtype, shape and bytes,
    or the ParseError text."""
    try:
        out = reader(str(path))
    except ParseError as exc:
        return "error", str(exc)
    return out.dtype, out.shape, out.tobytes()


def _assert_same_as_naive(path):
    got = _outcome(read_matrix_csv, path)
    assert got == _outcome(_naive_read_matrix_csv, path)
    return got


# (file text, first line of the expected error or None for a valid file);
# every case is also checked against the row-by-row reader
READER_CASES = {
    "plain": ("unit,t1,t2\n1,1.5,-2\n2,0,3e-7\n", None),
    "blank_lines": ("\n  \nunit,t1,t2\n\n1,1.5,2\n \t\n2,3,4\n\n", None),
    "crlf": ("unit,t1,t2\r\n1,1.5,2\r\n2,3,4\r\n", None),
    "no_final_newline": ("unit,t1,t2\n1,1.5,2", None),
    "float_syntax": ("unit,t1,t2,t3,t4\n1, 1.5,+1.5,.5,1_0\n2,1E5,-0,5e-324,2\t\n"
                     "3,1.7976931348623157e308,-0.0,0001.25,-.5e-3\n", None),
    "one_data_row": ("unit,t1,t2\n1,0.25,0.5\n", None),
    "overflow": ("unit,t1,t2\n1,1,2\n2,1e999,4\n", "line 3, column 2: not a finite number"),
    "nan": ("unit,t1,t2\n1,nan,2\n", "line 2, column 2: not a finite number: 'nan'"),
    "minus_inf": ("unit,t1,t2\n1,1,-inf\n", "line 2, column 3: not a finite number"),
    "empty_cell": ("unit,t1,t2\n1,1,\n", "line 2, column 3: not a number: ''"),
    "hex_cell": ("unit,t1,t2\n1,0x10,2\n", "line 2, column 2: not a number"),
    "missing_cell": ("unit,t1,t2\n1,1,2\n2,3\n", "line 3: row has 2 cells, expected 3"),
    "extra_cell": ("unit,t1,t2\n1,1,2,3\n", "line 2: row has 4 cells, expected 3"),
    # the cells of the whole file would still line up with the unit column
    "extra_then_missing": ("unit,t1,t2\n1,1,2,2\n3,4\n", "line 2: row has 4 cells"),
    "unit_space": ("unit,t1,t2\n 1,1,2\n", "line 2: expected unit 1, got ' 1'"),
    "unit_zero_padded": ("unit,t1,t2\n1,1,2\n02,1,2\n", "line 3: expected unit 2, got '02'"),
    "unit_zero": ("unit,t1,t2\n0,1,2\n", "line 2: expected unit 1, got '0'"),
    "unit_skipped": ("unit,t1,t2\n1,1,2\n3,1,2\n", "line 3: expected unit 2, got '3'"),
    "header_t1": ("unit,t1\n1,1\n", "line 1: expected header unit,t1..tT"),
    "header_wrong_t": ("unit,t1,t3\n1,1,2\n", "line 1, column 3: expected t2, got 't3'"),
    "header_unit": ("Unit,t1,t2\n1,1,2\n", "line 1: expected header unit,t1..tT"),
    "empty": ("\n \n", "empty input"),
    "header_only": ("unit,t1,t2\n\n", "no data rows"),
    # error order: cell counts first, then row by row (unit, then cells), and
    # a cell that is not a number anywhere before any non-finite value
    "bad_unit_after_non_number": ("unit,t1,t2\n1,1,2\n2,x,2\n9,1,2\n",
                                  "line 3, column 2: not a number: 'x'"),
    "non_number_after_bad_unit": ("unit,t1,t2\n1,1,2\n9,1,2\n3,x,2\n",
                                  "line 3: expected unit 2, got '9'"),
    "unit_before_cell_on_one_line": ("unit,t1,t2\n1,1,2\n9,x,2\n",
                                     "line 3: expected unit 2, got '9'"),
    "nan_before_non_number": ("unit,t1,t2\n1,nan,2\n2,1,2\n3,1,oops\n",
                              "line 4, column 3: not a number: 'oops'"),
    "ragged_after_bad_unit": ("unit,t1,t2\n5,1,2\n2,1\n", "line 3: row has 2 cells"),
    "first_non_finite_in_file_order": ("unit,t1,t2\n1,1,inf\n2,nan,2\n",
                                       "line 2, column 3: not a finite number: 'inf'"),
    # errors name the line's position in text.splitlines(), blank lines included
    "blank_then_non_number": ("unit,t1,t2\n\n1,1,2\n\n2,x,2\n",
                              "line 5, column 2: not a number: 'x'"),
    "blank_then_ragged": ("unit,t1,t2\n\n1,1,2\n \n\n2,3\n", "line 6: row has 2 cells"),
    "blank_then_bad_unit": ("\nunit,t1,t2\n\t\n1,1,2\n\n3,1,2\n",
                            "line 6: expected unit 2, got '3'"),
    "blank_then_non_finite": ("unit,t1,t2\n1,1,2\n\n\n2,1,inf\n",
                              "line 5, column 3: not a finite number: 'inf'"),
    "blank_then_bad_header": ("\n\nunit,t1,t3\n1,1,2\n", "line 3, column 3: expected t2"),
    "blank_then_short_header": ("\n \nunit,t1\n1,1\n", "line 3: expected header"),
    "crlf_blank_then_non_number": ("unit,t1,t2\r\n\r\n1,1,x\r\n",
                                   "line 3, column 3: not a number: 'x'"),
    "form_feed_ends_a_line": ("unit,t1,t2\n1,1,2\x0c2,3,x\n", "line 3, column 3: not a number"),
}


class TestMatrixCsvReaderEquivalence:
    @pytest.mark.parametrize("name", list(READER_CASES))
    def test_case_matches_row_by_row_reader(self, tmp_path, name):
        text, error = READER_CASES[name]
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        got = _assert_same_as_naive(path)
        if error is None:
            assert got[0] == np.float64
        else:
            assert got[0] == "error"
            assert got[1].startswith(f"{path}, {error}") or got[1].startswith(f"{path}: {error}")

    def test_seeded_fuzz_matches_row_by_row_reader(self, tmp_path):
        rng = np.random.default_rng(2024)
        tokens = ["1.5", "-0", "2e-300", "1e999", "nan", "-inf", "x", "", " 3", ".5", "1_0"]
        path = tmp_path / "m.csv"
        errors = 0
        for _ in range(400):
            T = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            lines = ["unit," + ",".join(f"t{j}" for j in range(1, T + 1))]
            for r in range(1, n + 1):
                p = rng.random(T + 1)
                unit = str(r) if p[0] > 0.05 else str(r + 1)
                cells = [format_float(v) if q > 0.08 else tokens[int(rng.integers(len(tokens)))]
                         for v, q in zip(rng.normal(size=T), p[1:])]
                if rng.random() < 0.03:
                    cells = cells[:-1]
                lines.append(",".join([unit] + cells))
                if rng.random() < 0.1:
                    lines.append("")
            path.write_text("\n".join(lines) + "\n")
            errors += _assert_same_as_naive(path)[0] == "error"
        assert 50 < errors < 350  # both outcomes are well covered

    def test_large_file_matches_row_by_row_reader(self, tmp_path):
        values = _golden_matrices()["observed_20000_20"]
        path = tmp_path / "m.csv"
        write_matrix_csv(str(path), values)
        got = _assert_same_as_naive(path)
        assert got[2] == values.tobytes()


# sha256 of the text write_matrix_csv writes for values, as written by
# the cell-by-cell format_float implementation; the CSV bytes must not move.
MATRIX_CSV_GOLDEN = {
    "observed_20000_20": "96fbcf1bfb2df76122eaff113a670be836644572aed42c82349b03e113f2160b",
    "edge_float64": "fba75b6fa4f9e4907c1125cb1b482eaad5920ae3fda4f3356360212c5a8703f9",
    "int64": "d35c99cdb6e8b33da86844e3cc46281f3de35bd26acbed362f81626729ce41dc",
    "bool": "09c839f9d9e7a562c70f1a306182aecaaa4ae0d7e0227927e409d187d940ddd9",
    "float32": "756f8f7111e753054d0548d93fcdbe1dd6aea223231adc9ce65d6a9c3166895b",
    "wide_500_7": "34b7b5483e403d1b29071e30db01068e64345b7c2de6ee6566e1c8d9f30dccee",
    "one_column": "35448cbd2b864b84cbe2039f840254ce78cc645499c4801e7a2127c2345c8ced",
    "no_columns": "4ac170472dc184caddea7b6658a474b71a5caa14b576c11c79d23166aa25d600",
    "no_rows": "db0905ccbb249e41144be5e0a6b58d1e67ad7e77a6ad2e77ad65dee3a956ca28",
}


def _golden_matrices():
    sched = habituation_model(ModelParams(), 20000, 20, seed=np.random.SeedSequence((5,)))
    Z = draw_assignment(integer_solve(20000, 20, ObjectiveMode.augmented()), seed=0)
    f = np.finfo(float)
    edge = np.array([[0.0, -0.0, 5e-324, -5e-324, f.tiny, -f.tiny, f.tiny / 3],
                     [f.max, -f.max, np.nan, np.inf, -np.inf, 0.1 + 0.2, 1.0 / 3.0],
                     [1e16, 1e22, 1e-7, 123456789.0, -2.5, 1e300, 9007199254740993.0]])
    rng3, rng4 = np.random.default_rng(3), np.random.default_rng(4)
    return {
        "observed_20000_20": observe(Z, sched).values,
        "edge_float64": edge,
        "int64": np.array([[0, -1, 2**60 + 1], [2**63 - 1, -2**63, 7]], dtype=np.int64),
        "bool": np.array([[True, False], [False, True], [True, True]]),
        "float32": (rng3.normal(size=(50, 6)) * 1e3).astype(np.float32),
        "wide_500_7": rng4.normal(size=(500, 7)) * 10.0 ** rng4.integers(-300, 301, size=(500, 7)),
        "one_column": np.array([[1.5], [-2.0]]),
        "no_columns": np.empty((3, 0)),
        "no_rows": np.empty((0, 4)),
    }


class TestMatrixCsvGolden:
    def test_bytes_match_golden_digest(self):
        for name, values in _golden_matrices().items():
            digest = hashlib.sha256(_written_text(write_matrix_csv, values).encode()).hexdigest()
            assert digest == MATRIX_CSV_GOLDEN[name], name

    def test_rows_match_format_float_per_cell(self):
        extra = {
            "str": np.array([["1.5", " 2", "1_0"], ["-0", "1e-300", "nan"]]),
            "bytes": np.array([[b"1.5", b"-2"]]),
            "object": np.array([["0.1", 3, 2**60 + 1, np.float32(0.1)]], dtype=object),
            "longdouble": np.array([[1.0, 2.0]], dtype=np.longdouble) / 3,
            "uint64": np.array([[2**64 - 1, 0]], dtype=np.uint64),
            "float16": np.array([[0.1, -65504.0]], dtype=np.float16),
        }
        for name, values in {**_golden_matrices(), **extra}.items():
            if name == "observed_20000_20":
                values = values[:50]
            lines = _written_text(write_matrix_csv, values).splitlines()[1:]
            assert lines == [",".join([str(i)] + [format_float(v) for v in row])
                             for i, row in enumerate(values, start=1)], name


def _format_float_csv(values):
    """The CSV text of values with each cell written by ``format_float``."""
    T = values.shape[1]
    lines = [",".join(["unit"] + [f"t{t}" for t in range(1, T + 1)])]
    lines.extend(",".join([str(i)] + [format_float(v) for v in row])
                 for i, row in enumerate(values.tolist(), start=1))
    return "\n".join(lines) + "\n"


class TestMatrixWriterKernel:
    """The writer formats a cell in the band 1e-4 <= |x| < 1e16 from its
    digits in numpy, and any other cell with ``format_float``; either way
    it writes the bytes ``format_float`` writes."""

    @staticmethod
    def _check(x, T=7):
        x = np.asarray(x, dtype=float).reshape(-1)
        values = np.resize(x, (-(-len(x) // T), T))  # whole rows, the last padded from the top
        assert _written_text(write_matrix_csv, values) == _format_float_csv(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(11)
        self._check(rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64))

    def test_random_scales(self):
        rng = np.random.default_rng(12)
        self._check(rng.normal(size=20000) * 10.0 ** rng.uniform(-8, 20, size=20000))

    def test_powers_of_ten_and_their_neighbours(self):
        # 10**j moved by up to 4 ulp, both signs
        x = np.array([10.0 ** j for j in range(-5, 18)])
        x = (x.view(np.int64)[:, None] + np.arange(-4, 5)).view(np.float64)
        self._check(np.concatenate([x, -x]))

    def test_seventeen_digit_ties_round_both_ways(self):
        # m * 2**(E - 17) with m odd is a tie at 17 digits: times
        # 10**(16 - E) it is m * 5**(16 - E) / 2
        rng = np.random.default_rng(13)
        x, kept = [], set()
        for E in range(-4, 16):
            low = math.ceil(Fraction(10) ** E * 2 ** (17 - E))
            high = min(math.ceil(Fraction(10) ** (E + 1) * 2 ** (17 - E)), 2 ** 53) - 1
            for m in rng.integers(low, high, size=60).tolist():
                v = math.ldexp(m | 1, E - 17)
                scaled = Fraction(v) * 10 ** (16 - E)
                assert scaled.denominator == 2 and f"{v:e}".endswith(f"e{E:+03d}")
                kept.add(math.floor(scaled) % 2)  # even: rounds down; odd: up
                x.append(v)
        assert kept == {0, 1}
        self._check(np.concatenate([x, np.negative(x)]))

    def test_values_that_round_up_to_a_power_of_ten(self):
        # the largest double below each 10**p; some carry to 10**p at 17 digits
        below = []
        for p in range(-307, 309):
            v = float(Fraction(10) ** p)
            below.append(math.nextafter(v, 0) if Fraction(v) >= Fraction(10) ** p else v)
        assert any(format_float(v).startswith("1e") for v in below)
        self._check(np.concatenate([below, np.negative(below)]))

    def test_zeros_subnormals_and_non_finite(self):
        f = np.finfo(float)
        self._check([0.0, -0.0, 5e-324, -5e-324, f.tiny, -f.tiny, f.tiny / 3, f.max, -f.max,
                     np.nan, np.inf, -np.inf, 1e-4, 9.9999999999999991e-05, 1e16,
                     9999999999999998.0, 2.0 ** 53, 2.0 ** 53 + 2], T=4)

    @pytest.mark.parametrize("T", [1, 3, 20])
    def test_band_values_across_block_edges(self, T):
        rng = np.random.default_rng(T)
        B = _WRITE_CELLS // (T + 1)
        for N in (B - 1, B, B + 1, 2 * B + 3):
            values = rng.normal(size=(N, T)) * 10.0 ** rng.uniform(-4, 16, size=(N, T))
            values[N // 2] = 0.0  # a row of fallback cells in the middle
            assert _written_text(write_matrix_csv, values) == _format_float_csv(values), N

    def test_rows_wider_than_a_block(self):
        rng = np.random.default_rng(15)
        T = 2 * _WRITE_CELLS + 5
        values = rng.normal(size=(3, T)) * 10.0 ** rng.uniform(-6, 18, size=(3, T))
        values[1, _WRITE_CELLS - 2:_WRITE_CELLS + 2] = 0.0  # fallback cells at a block edge
        assert _written_text(write_matrix_csv, values) == _format_float_csv(values)

    def test_import_builds_no_table(self):
        code = ("import tminimax.cli; from tminimax import serialize; "
                "assert serialize._digit_table.cache_info().currsize == 0; "
                "assert serialize._templates.cache_info().currsize == 0")
        src = os.path.dirname(os.path.dirname(tminimax.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestAssignmentCsv:
    @pytest.mark.parametrize("family", [Family.PULSE, Family.WEDGE])
    def test_round_trip(self, tmp_path, family):
        Z = draw_assignment(Allocation(2, 2, (1, 2, 1)), family, seed=3)
        path = tmp_path / "z.csv"
        write_assignment_csv(str(path), Z)
        back = read_assignment_csv(str(path))
        assert back == Z and back.family == family

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("alloc", [
        Allocation(3, 1, (2, 0, 4, 1)), Allocation(2, 3, (0, 0)),
        Allocation(5, 4, (3, 3, 2, 2, 1, 1)),
    ], ids=["T5", "no_pulses", "T7"])
    @pytest.mark.parametrize("family", [Family.PULSE, Family.WEDGE])
    def test_round_trip_keeps_family_labels_and_matrix(self, tmp_path, family, alloc, seed):
        Z = draw_assignment(alloc, family, seed)
        path = tmp_path / "z.csv"
        write_assignment_csv(str(path), Z)
        back = read_assignment_csv(str(path))
        assert back == Z and back.family is Z.family
        assert back.arm_labels == Z.arm_labels
        assert np.array_equal(back.matrix, Z.matrix)

    @pytest.mark.parametrize("family", [Family.PULSE, Family.WEDGE])
    def test_codes_match_the_per_unit_constructor(self, tmp_path, family):
        arms = [pulse_arm(3, family), ALWAYS_CONTROL, pulse_arm(2, family), ALWAYS_TREATED,
                pulse_arm(3, family), pulse_arm(4, family)]
        path = tmp_path / "z.csv"
        write_assignment_csv(str(path), AssignmentMatrix(arms, 4))
        got = read_assignment_csv(str(path))
        assert got == AssignmentMatrix(arms, 4) and got.family is family
        assert got.codes.tolist() == [3, 0, 2, 1, 3, 4]

    def test_ambiguous_rows_take_the_default_family(self, tmp_path):
        # a pulse at the last period looks the same in both families
        Z = AssignmentMatrix([ALWAYS_CONTROL, pulse_arm(3)], 3)
        path = tmp_path / "a.csv"
        write_assignment_csv(str(path), Z)
        assert read_assignment_csv(str(path)).family == Family.PULSE

    def test_invalid_pattern_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,t1,t2,t3\n1,1,0,1\n")
        with pytest.raises(ParseError, match="not a valid arm"):
            read_assignment_csv(str(path))

    def test_first_period_pulse_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,t1,t2,t3\n1,1,0,0\n")
        with pytest.raises(ParseError, match="t=1"):
            read_assignment_csv(str(path))

    def test_non_binary_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,t1,t2\n1,0,2\n")
        with pytest.raises(ParseError, match="0 or 1"):
            read_assignment_csv(str(path))

    def test_cells_that_int_accepts_decode_as_before(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("unit,t1,t2,t3\n1,0, 1,0\n2,01,1,+1\n3,0,0,1\n4,0, 1,0\n")
        Z = read_assignment_csv(str(path))
        assert Z.codes.tolist() == [2, 1, 3, 2] and Z.family is Family.PULSE

    def test_repeated_invalid_row_names_its_first_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,t1,t2,t3\n1,0,0,0\n2,0,1,1\n3,1,0,1\n4,1,1,1\n5,1,0,1\n")
        with pytest.raises(ParseError, match="line 4: row pattern"):
            read_assignment_csv(str(path))
        path.write_text("unit,t1,t2\n1,0,0\n2,0,x\n3,0,x\n")
        with pytest.raises(ParseError, match="line 3: assignment cells"):
            read_assignment_csv(str(path))

    def test_rows_without_pulses_are_pulse_family(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("unit,t1,t2,t3\n1,0,0,0\n2,1,1,1\n3,0,0,0\n")
        Z = read_assignment_csv(str(path))
        assert Z.family is Family.PULSE and Z.codes.tolist() == [0, 1, 0]

    def test_unit_column_is_checked(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("unit,t1,t2\n7,0,1\n7,1,1\n")
        with pytest.raises(ParseError, match="line 2: expected unit 1, got '7'$"):
            read_assignment_csv(str(path))

    def test_unit_of_a_memoised_row_is_checked(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("unit,t1,t2\n1,0,1\n3,0,1\n")
        with pytest.raises(ParseError, match="line 3: expected unit 2, got '3'$"):
            read_assignment_csv(str(path))

    @pytest.mark.parametrize("unit", [" 2", "02", "2.0", "", "1"])
    def test_unit_is_checked_before_the_row_is_decoded(self, tmp_path, unit):
        path = tmp_path / "z.csv"
        path.write_text(f"unit,t1,t2\n1,0,0\n{unit},x,1\n")
        with pytest.raises(ParseError, match=f"line 3: expected unit 2, got '{unit}'$"):
            read_assignment_csv(str(path))

    @pytest.mark.parametrize("text,error", [
        ("unit,t1,t2\n\n1,0,1\n\n2,0,x\n", "line 5: assignment cells must be 0 or 1"),
        ("\nunit,t1,t2\n1,0,1\n \n3,0,1\n", "line 5: expected unit 2, got '3'"),
        ("unit,t1,t2,t3\n\n\n1,1,0,1\n", "line 4: row pattern [1, 0, 1] is not a valid arm"),
        ("unit,t1,t2\n\t\n1,0,1\n\n2,0\n", "line 5: row has 2 cells, expected 3"),
        ("\n\nunit,t2\n1,0\n", "line 3: expected header unit,t1..tT"),
        ("unit,t1,t2\r\n\r\n1,0,1\r\n2,1,0\r\n", "line 4: single treated period at t=1"),
    ], ids=["non_binary", "unit", "pattern", "ragged", "header", "crlf"])
    def test_errors_below_blank_lines_name_their_line(self, tmp_path, text, error):
        path = tmp_path / "z.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as info:
            read_assignment_csv(str(path))
        assert str(info.value).startswith(f"{path}, {error}")


# sha256 of the text write_assignment_csv writes for
# draw_assignment(alloc, family, seed), as written by the per-unit ArmId
# implementation; the CSV bytes must not move.
ASSIGNMENT_CSV_GOLDEN = {
    ("augmented_20000_20", "pulse", 0): "45102b21ded9ea0f6e72fec54712a5c41181cfe0d90a4ec53202d6835b1d351e",
    ("augmented_20000_20", "pulse", 7): "2617c065d3bf77d9f8825e8e281edc69669021b42b6257f4ae20a8282cae5198",
    ("augmented_20000_20", "wedge", 0): "2fed2fc32345912c1644a49098ba22cc419c5325b617f81c9ea5470208fd9c8c",
    ("augmented_20000_20", "wedge", 7): "4920ee8ee7c887417389a845b73d7752765ac840b02241c11fafd8bd8f37347e",
    ("small_a", "pulse", 0): "a48a7ba93850ad76f0ec5b2c37d4d9069c6d09972161dac7b7ef3184806b22fa",
    ("small_a", "pulse", 7): "e807be42c03a21c9debfcfbf6b0f911ada5f255a3f009d5a909d0738f4058d6b",
    ("small_a", "wedge", 0): "638c758b171d72a39048746b57210e0477e88bccbed4499a96ae32bec3028ef1",
    ("small_a", "wedge", 7): "dd18db91399e4ac460394b97edd55b8a80501a1b98f08863800b281215a9c560",
    ("small_b", "pulse", 0): "3d4f34040c0df70ff165f5228b7772bb35fdc22fc094c865bb22ae024ca7d636",
    ("small_b", "pulse", 7): "fe70f113ab3d2b5c6bc7ea1d469eaf70a76188cfbfb3d7bc73ab2505f763e898",
    ("small_b", "wedge", 0): "788b54d12175043f2b0ba2c38b881944ac2b31e75829831723045df4507465bd",
    ("small_b", "wedge", 7): "5116d11d71c59e79cc9efc86dcd98051f7cfaf4ec783a00f54267ccba90be973",
    ("empty_pulse_arms", "pulse", 0): "4678a75b229475ce772550a195617e1182b284323b0375748103ef21fa1c02d7",
    ("empty_pulse_arms", "pulse", 7): "497fb8cefd4a073aa98d90634121d5a2d010dfbdb8bd29373f5222b4aac3889d",
    ("empty_pulse_arms", "wedge", 0): "4678a75b229475ce772550a195617e1182b284323b0375748103ef21fa1c02d7",
    ("empty_pulse_arms", "wedge", 7): "497fb8cefd4a073aa98d90634121d5a2d010dfbdb8bd29373f5222b4aac3889d",
}

GOLDEN_ALLOCATIONS = {
    "small_a": lambda: Allocation(2, 2, (1, 2, 1)),
    "small_b": lambda: Allocation(3, 1, (2, 0, 4, 1)),
    "empty_pulse_arms": lambda: Allocation(3, 2, (0, 0, 0)),
    "augmented_20000_20": lambda: integer_solve(20000, 20, ObjectiveMode.augmented()),
}


class TestAssignmentCsvGolden:
    @pytest.mark.parametrize("name", list(GOLDEN_ALLOCATIONS))
    @pytest.mark.parametrize("family", [Family.PULSE, Family.WEDGE])
    def test_bytes_match_golden_digest(self, name, family):
        alloc = GOLDEN_ALLOCATIONS[name]()
        for seed in (0, 7):
            Z = draw_assignment(alloc, family, seed)
            digest = hashlib.sha256(_written_text(write_assignment_csv, Z).encode()).hexdigest()
            assert digest == ASSIGNMENT_CSV_GOLDEN[(name, family.value, seed)]
            # with no unit in a pulse arm the family is pulse whatever was asked
            expected = Family.PULSE if name == "empty_pulse_arms" else family
            assert Z.family is expected


def _one_string_matrix_csv(values):
    """Test-local copy of the matrix writer that built the whole file as
    one string."""
    values = np.asarray(values)
    N, T = values.shape
    if values.dtype.kind in "biuf":
        rows = (cells.tolist() for cells in values)
    else:
        rows = ([float(v) for v in cells] for cells in values)
    row = ",".join(["%d"] + ["%.17g"] * T)
    lines = [",".join(["unit"] + [f"t{t}" for t in range(1, T + 1)])]
    lines.extend(row % (i, *cells) for i, cells in enumerate(rows, start=1))
    return "\n".join(lines) + "\n"


def _one_string_assignment_csv(Z):
    """Test-local copy of the assignment writer that built the whole file
    as one string, one unit's 0/1 row at a time."""
    lines = [",".join(["unit"] + [f"t{t}" for t in range(1, Z.T + 1)])]
    lines.extend(f"{i},{','.join(map(str, bits))}"
                 for i, bits in enumerate(Z.matrix.tolist(), start=1))
    return "\n".join(lines) + "\n"


def _block_sizes(T):
    """Row counts around the block edges of a T-period matrix."""
    B = _block_rows(T)
    return [1, B - 1, B, B + 1, 2 * B + 3]


def _valid_lines(rng, n, T):
    return _written_text(write_matrix_csv, rng.normal(size=(n, T))).splitlines()


def _set_cell(lines, ln, c, text):
    """Puts ``text`` in cell c (0: the unit) of ``lines[ln]``."""
    cells = lines[ln].split(",")
    cells[c] = text
    lines[ln] = ",".join(cells)


def _naive_read_assignment_csv(path):
    """Test-only copy of the line-by-line decode that the run decode
    replaced, for files whose header and cell counts are valid: check each
    data line's unit, then decode its row text at its first occurrence."""
    with open(path) as handle:
        lines = [(ln, line) for ln, line in enumerate(handle.read().splitlines(), start=1)
                 if line.strip()]
    T = lines[0][1].count(",")
    table = _row_table(T)
    decoded, votes, codes = {}, set(), []
    for r, (ln, line) in enumerate(lines[1:]):
        unit, _, key = line.partition(",")
        if unit != str(r + 1):
            raise ParseError(f"{path}, line {ln}: expected unit {r + 1}, got {unit!r}")
        if key not in decoded:
            decoded[key], vote = _decode_row(table, key, f"{path}, line {ln}")
            if vote is not None:
                votes.add(vote)
        codes.append(decoded[key])
    if len(votes) > 1:
        raise ParseError(f"{path}: rows mix pulse and wedge patterns")
    return AssignmentMatrix._from_codes(np.array(codes), T,
                                        votes.pop() if votes else Family.PULSE)


def _assignment_outcome(reader, path):
    try:
        Z = reader(str(path))
    except ParseError as exc:
        return "error", str(exc)
    return Z.codes.tolist(), Z.T, Z.family


class TestCsvBlocks:
    """The CSV files are read and written in blocks of rows; a block edge
    changes no byte written, no value read and no error reported."""

    @pytest.mark.parametrize("T", [2, 20])
    def test_matrix_writer_bytes_match_one_string_writer(self, tmp_path, T):
        rng = np.random.default_rng(T)
        for N in _block_sizes(T):
            for values in (rng.normal(size=(N, T)) * 10.0 ** rng.integers(-300, 301, size=(N, T)),
                           rng.integers(-2**62, 2**62, size=(N, T)),
                           rng.normal(size=(N, T)).astype(str)):
                want = _one_string_matrix_csv(values)
                write_matrix_csv(str(tmp_path / "m.csv"), values)
                assert (tmp_path / "m.csv").read_bytes() == want.encode(), (N, values.dtype)

    @pytest.mark.parametrize("family", [Family.PULSE, Family.WEDGE])
    @pytest.mark.parametrize("T", [2, 20])
    def test_assignment_writer_bytes_match_one_string_writer(self, tmp_path, family, T):
        rng = np.random.default_rng(T)
        path = tmp_path / "z.csv"
        for N in _block_sizes(T):
            Z = AssignmentMatrix._from_codes(rng.integers(0, T + 1, size=N), T, family)
            want = _one_string_assignment_csv(Z)
            write_assignment_csv(str(path), Z)
            assert path.read_bytes() == want.encode(), N
            back = read_assignment_csv(str(path))
            # rows that read the same in both families (every row at T = 2)
            # give the pulse family
            ambiguous = np.isin(Z.codes, (0, 1, T)).all()
            assert back.family is (Family.PULSE if ambiguous else Z.family)
            assert back.codes.tolist() == Z.codes.tolist()

    def test_matrix_reader_round_trips_at_block_edges(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "m.csv"
        for N in _block_sizes(20):
            values = rng.normal(size=(N, 20))
            write_matrix_csv(str(path), values)
            assert read_matrix_csv(str(path)).tobytes() == values.tobytes()

    def test_non_number_in_a_later_block_beats_a_non_finite_value(self, tmp_path):
        T = 20
        B = _block_rows(T)
        lines = _valid_lines(np.random.default_rng(2), 3 * B, T)
        _set_cell(lines, 5, 1, "inf")
        _set_cell(lines, 2 * B + 10, 4, "x")
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        got = _assert_same_as_naive(path)
        assert got == ("error", f"{path}, line {2 * B + 11}, column 5: not a number: 'x'")
        # without the non-number, the first non-finite value is reported
        _set_cell(lines, 2 * B + 10, 4, "nan")
        path.write_text("\n".join(lines) + "\n")
        assert _assert_same_as_naive(path) == (
            "error", f"{path}, line 6, column 2: not a finite number: 'inf'")

    def test_short_last_row_beats_a_bad_unit_in_an_earlier_block(self, tmp_path):
        T = 20
        B = _block_rows(T)
        lines = _valid_lines(np.random.default_rng(3), 3 * B, T)
        _set_cell(lines, B + 7, 0, "0")
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        assert _assert_same_as_naive(path) == (
            "error", f"{path}, line {3 * B + 1}: row has {T} cells, expected {T + 1}")
        lines[-1] += ",1"
        path.write_text("\n".join(lines) + "\n")
        assert _assert_same_as_naive(path) == (
            "error", f"{path}, line {B + 8}: expected unit {B + 7}, got '0'")

    @pytest.mark.parametrize("sep", ["\r\n", "\r", "\x0c", "\x85", "\u2028", "\n\n \n"])
    def test_separators_at_a_block_edge_split_as_splitlines(self, tmp_path, sep):
        T = 3
        B = _block_rows(T)
        rng = np.random.default_rng(4)
        lines = _valid_lines(rng, 2 * B + 3, T)
        path = tmp_path / "m.csv"
        for edge in (B - 1, B, B + 1):  # the separator before, at and after the edge
            text = "\n".join(lines[:edge + 1]) + sep + "\n".join(lines[edge + 1:]) + "\n"
            path.write_bytes(text.encode())
            got = _assert_same_as_naive(path)
            assert got[0] == np.float64 and got[1] == (2 * B + 3, T)
            # an error after the separator names its line in text.splitlines()
            bad = text.replace(lines[B + 2], lines[B + 2].rsplit(",", 1)[0] + ",x")
            path.write_bytes(bad.encode())
            ln = bad.splitlines().index(lines[B + 2].rsplit(",", 1)[0] + ",x") + 1
            assert _assert_same_as_naive(path) == (
                "error", f"{path}, line {ln}, column {T + 1}: not a number: 'x'")
            Z = AssignmentMatrix._from_codes(rng.integers(0, T + 1, size=2 * B + 3), T,
                                             Family.PULSE)
            zlines = _written_text(write_assignment_csv, Z).splitlines()
            ztext = "\n".join(zlines[:edge + 1]) + sep + "\n".join(zlines[edge + 1:])
            path.write_bytes(ztext.encode())
            assert read_assignment_csv(str(path)) == Z

    @pytest.mark.parametrize("edit", [
        "valid", "blank_lines", "bad_unit", "bad_row_then_bad_unit", "bad_unit_then_bad_row",
        "new_text_late", "bad_row_repeated", "mixed_families",
    ])
    @pytest.mark.parametrize("T", [3, 20])
    def test_assignment_reader_matches_the_line_by_line_decode(self, tmp_path, edit, T):
        # about 3 runs of lines, so each edit lands on either side of a run edge
        rng = np.random.default_rng(T)
        n = 3 * (1 << 14) // (2 * T + 4)
        Z = AssignmentMatrix._from_codes(rng.integers(0, T, size=n), T, Family.PULSE)
        lines = _written_text(write_assignment_csv, Z).splitlines()
        wedge = ",".join(["0"] * (T - 2) + ["1", "1"])  # the wedge arm at T - 1
        for ln in sorted(rng.choice(np.arange(1, n), size=6, replace=False).tolist()):
            if edit == "blank_lines":
                lines[ln] = " \n" + lines[ln]
            elif edit == "bad_unit":
                _set_cell(lines, ln, 0, "0" + lines[ln].split(",")[0])
            elif edit == "bad_row_then_bad_unit":
                _set_cell(lines, ln, 1, "2")
                _set_cell(lines, ln + 1, 0, "x")
            elif edit == "bad_unit_then_bad_row":
                _set_cell(lines, ln, 0, "x")
                _set_cell(lines, ln + 1, 1, "2")
            elif edit == "new_text_late":
                _set_cell(lines, ln, 1, " " + lines[ln].split(",")[1])
            elif edit == "bad_row_repeated":
                _set_cell(lines, ln, T, "7")
            elif edit == "mixed_families":
                lines[ln] = f"{ln},{wedge}"
        path = tmp_path / "z.csv"
        path.write_text("\n".join(lines) + "\n")
        got = _assignment_outcome(read_assignment_csv, path)
        assert got == _assignment_outcome(_naive_read_assignment_csv, path)
        assert (got[0] == "error") == (edit not in ("valid", "blank_lines", "new_text_late"))

    def test_writer_that_fails_in_block_two_leaves_no_file(self, tmp_path):
        T = 4
        B = _block_rows(T)
        values = np.full((2 * B + 3, T), "1.5", dtype=object)
        values[B + 1, 2] = "x"
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError):
            write_matrix_csv(str(path), values)
        assert os.listdir(tmp_path) == []
        path.write_text("old\n")
        with pytest.raises(ValueError):
            write_matrix_csv(str(path), values)
        assert os.listdir(tmp_path) == ["m.csv"] and path.read_text() == "old\n"
        with pytest.raises(ValueError, match="2-D"):
            write_matrix_csv(str(tmp_path / "new" / "m.csv"), np.zeros(3))
        assert os.listdir(tmp_path) == ["m.csv"]

    def test_memory_is_the_result_plus_one_block(self, tmp_path):
        N, T = 20000, 20
        values = np.random.default_rng(5).normal(size=(N, T))
        Z = AssignmentMatrix._from_codes(np.random.default_rng(6).integers(0, T + 1, size=N),
                                         T, Family.PULSE)
        m_path, z_path = str(tmp_path / "m.csv"), str(tmp_path / "z.csv")
        peaks = {}
        for name, run in (("write", lambda: write_matrix_csv(m_path, values)),
                          ("read", lambda: read_matrix_csv(m_path)),
                          ("write_z", lambda: write_assignment_csv(z_path, Z)),
                          ("read_z", lambda: read_assignment_csv(z_path))):
            tracemalloc.start()
            try:
                result = run()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert result == Z
        # one block's strings, never the 8.2 MB text or one string per cell
        assert peaks["write"] < 4e6 and peaks["write_z"] < 4e6
        assert peaks["read"] < values.nbytes + 4e6
        assert peaks["read_z"] < Z.codes.nbytes + 4e6

    @pytest.mark.parametrize("cells", [1 << 10, 1 << 12])
    def test_a_wide_matrix_is_written_a_block_at_a_time(self, tmp_path, monkeypatch, cells):
        # the header and each 200000-cell row go out ``_WRITE_CELLS`` cells
        # at a time: the writer's peak follows the block, about 500 bytes a
        # cell, and not T (one string per column name took 14 MB here)
        from tminimax import serialize

        monkeypatch.setattr(serialize, "_WRITE_CELLS", cells)
        values = np.random.default_rng(8).normal(size=(2, 200000))
        path = str(tmp_path / "m.csv")
        write_matrix_csv(path, values[:, :2])  # the kernel's tables are built once
        tracemalloc.start()
        try:
            write_matrix_csv(path, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600 * cells
        assert read_matrix_csv(path).tobytes() == values.tobytes()

    def test_reads_from_a_pipe(self, tmp_path):
        values = np.random.default_rng(7).normal(size=(3 * _block_rows(2), 2))
        fifo = tmp_path / "m.csv"
        os.mkfifo(fifo)
        text = "\n" + _written_text(write_matrix_csv, values).replace("\n", "\r\n")
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            got = read_matrix_csv(str(fifo))
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive() and got.tobytes() == values.tobytes()


class TestRowTables:
    def test_csv_shape_and_floats(self):
        text = rows_to_csv([{"a": 1, "b": 0.5}, {"a": 2, "b": 1.0 / 3.0}])
        lines = text.splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "2," + format_float(1.0 / 3.0)

    def test_json_canonical(self):
        assert rows_to_json([{"b": 1, "a": 2}]) == '[{"a":2,"b":1}]\n'

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            rows_to_csv([{"a": 1}, {"b": 2}])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rows_to_csv([])


class TestFileModes:
    """A written file gets the mode ``open()`` gives a new file: 0o666
    narrowed by the umask, which is left as it was."""

    WRITERS = {
        "text": lambda path: atomic_write_text(path, "x\n"),
        "matrix-csv": lambda path: write_matrix_csv(path, np.ones((3, 2))),
        "assignment-csv": lambda path: write_assignment_csv(
            path, draw_assignment(Allocation(1, 1, (1,)), seed=0)),
    }

    @pytest.mark.parametrize("mask,mode", [(0o022, 0o644), (0o077, 0o600)])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_mode_follows_the_umask(self, tmp_path, umask, writer, mask, mode):
        umask(mask)
        path = tmp_path / "out"
        self.WRITERS[writer](str(path))
        assert os.stat(path).st_mode & 0o777 == mode
        assert umask(mask) == mask
        with open(tmp_path / "plain", "w"):
            pass
        assert os.stat(tmp_path / "plain").st_mode & 0o777 == mode

    def test_overwrite_takes_the_current_umask(self, tmp_path, umask):
        path = tmp_path / "out"
        umask(0o077)
        atomic_write_text(str(path), "a\n")
        umask(0o022)
        atomic_write_text(str(path), "b\n")
        assert os.stat(path).st_mode & 0o777 == 0o644 and path.read_text() == "b\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
