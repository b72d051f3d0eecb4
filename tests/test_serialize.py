"""Tests for CSV/JSON round-trips and parse errors."""

import hashlib

import numpy as np
import pytest

from conftest import random_schedule
from tminimax.allocation import ObjectiveMode, integer_solve
from tminimax.core import (
    ALWAYS_CONTROL,
    Allocation,
    AssignmentMatrix,
    Family,
    draw_assignment,
    pulse_arm,
)
from tminimax.serialize import (
    ParseError,
    assignment_from_json,
    assignment_to_csv,
    assignment_to_json,
    format_float,
    matrix_to_csv,
    read_assignment_csv,
    read_matrix_csv,
    read_schedule_csv,
    rows_to_csv,
    rows_to_json,
    schedule_from_json,
    schedule_to_json,
    write_matrix_csv,
    write_assignment_csv,
    write_schedule_csv,
)


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-8, 8, size=(7, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(str(path), values)
        assert np.array_equal(read_matrix_csv(str(path)), values)

    def test_header_and_units(self):
        text = matrix_to_csv(np.array([[1.5, 2.0]]))
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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "nf.csv"
        path.write_text(f"unit,t1,t2\n1,1.0,2.0\n2,3.0,{cell}\n3,nan,4.0\n")
        with pytest.raises(ParseError, match=f"line 3, column 3: not a finite number: '{cell}'"):
            read_matrix_csv(str(path))

    def test_wrong_unit_number(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("unit,t1,t2\n5,1.0,2.0\n")
        with pytest.raises(ParseError, match="expected unit 1"):
            read_matrix_csv(str(path))


class TestAssignmentCsv:
    @pytest.mark.parametrize("family", [Family.PULSE, Family.WEDGE])
    def test_round_trip(self, tmp_path, family):
        Z = draw_assignment(Allocation(2, 2, (1, 2, 1)), family, seed=3)
        path = tmp_path / "z.csv"
        write_assignment_csv(str(path), Z)
        back = read_assignment_csv(str(path))
        assert back == Z and back.family == family

    def test_ambiguous_rows_take_the_default_family(self, tmp_path):
        # a pulse at the last period looks the same in both families
        Z = AssignmentMatrix([ALWAYS_CONTROL, pulse_arm(3)], 3)
        path = tmp_path / "a.csv"
        write_assignment_csv(str(path), Z)
        assert read_assignment_csv(str(path)).family == Family.PULSE
        assert read_assignment_csv(str(path), family=Family.WEDGE).family == Family.WEDGE

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
        Z = read_assignment_csv(str(path), family=Family.WEDGE)
        assert Z.family is Family.PULSE and Z.codes.tolist() == [0, 1, 0]

    def test_json_round_trip(self):
        Z = draw_assignment(Allocation(1, 2, (2,)), Family.WEDGE, seed=9)
        assert assignment_from_json(assignment_to_json(Z)) == Z


# sha256 of assignment_to_csv(draw_assignment(alloc, family, seed)) as
# written by the per-unit ArmId implementation; the CSV bytes must not move.
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
            digest = hashlib.sha256(assignment_to_csv(Z).encode()).hexdigest()
            assert digest == ASSIGNMENT_CSV_GOLDEN[(name, family.value, seed)]
            # with no unit in a pulse arm the family is pulse whatever was asked
            expected = Family.PULSE if name == "empty_pulse_arms" else family
            assert Z.family is expected


class TestScheduleFormats:
    def test_json_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        sched = random_schedule(rng, 5, 3)
        back = schedule_from_json(schedule_to_json(sched))
        assert back == sched

    def test_json_is_canonical(self):
        rng = np.random.default_rng(5)
        sched = random_schedule(rng, 3, 2)
        assert schedule_to_json(sched) == schedule_to_json(
            schedule_from_json(schedule_to_json(sched))
        )

    def test_csv_directory_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        sched = random_schedule(rng, 4, 3)
        paths = write_schedule_csv(str(tmp_path / "sched"), sched)
        assert len(paths) == 4  # T+1 arms
        assert read_schedule_csv(str(tmp_path / "sched")) == sched

    def test_missing_directory_content(self, tmp_path):
        with pytest.raises(ParseError, match="no arm CSV"):
            read_schedule_csv(str(tmp_path))


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
