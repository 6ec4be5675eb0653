"""Tests for timing, PRNG, table rendering and validation helpers."""

import time

import numpy as np
import pytest

from repro.errors import ModeError, ShapeError
from repro.util.prng import rng_from_seed, spawn
from repro.util.tables import render_table, write_csv
from repro.util.timing import Timer, time_call
from repro.util.validation import (
    check_indices_in_bounds,
    check_mode,
    check_same_shape,
    check_shape,
)


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed > first >= 0.01

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0

    def test_reentrant_enter_raises(self):
        t = Timer()
        with t:
            with pytest.raises(RuntimeError, match="re-entrant"):
                t.__enter__()
        # The failed re-entry must not corrupt the accumulated total:
        # the timer is stopped and usable again.
        before = t.elapsed
        with t:
            time.sleep(0.005)
        assert t.elapsed > before

    def test_split_reads_running_clock(self):
        t = Timer()
        assert t.split() == 0.0
        with t:
            time.sleep(0.005)
            mid = t.split()
            assert mid >= 0.005
            time.sleep(0.005)
        assert t.elapsed >= mid
        assert t.split() == t.elapsed  # stopped: split is the total

    def test_reset_while_running_raises(self):
        t = Timer()
        with t:
            with pytest.raises(RuntimeError, match="running"):
                t.reset()


class TestTimeCall:
    def test_statistics_and_result(self):
        calls = []
        res = time_call(lambda: calls.append(1) or 42, repeats=3, warmup=1)
        assert res.result == 42
        assert res.repeats == 3
        assert len(calls) == 4  # warmup + repeats
        assert res.best <= res.mean <= res.worst
        assert res.best <= res.median <= res.worst
        assert res.seconds == res.mean

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeats=0)


class TestPrng:
    def test_seed_determinism(self):
        a = rng_from_seed(5).random(10)
        b = rng_from_seed(5).random(10)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert rng_from_seed(gen) is gen

    def test_spawn_streams_differ(self):
        children = spawn(rng_from_seed(7), 3)
        draws = [c.random(5).tolist() for c in children]
        assert draws[0] != draws[1] != draws[2]

    def test_spawn_deterministic(self):
        a = [c.random(3).tolist() for c in spawn(rng_from_seed(9), 2)]
        b = [c.random(3).tolist() for c in spawn(rng_from_seed(9), 2)]
        assert a == b


class TestRenderTable:
    def test_alignment_and_title(self):
        out = render_table(["a", "bb"], [[1, 2.5], [30, 0.001234]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_float_formatting(self):
        out = render_table(["x"], [[1234567.0], [0.00001]])
        assert "1.23e+06" in out
        assert "1e-05" in out

    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [[1, "x"], [2, "y"]])
        text = p.read_text().strip().splitlines()
        assert text[0] == "a,b"
        assert text[2] == "2,y"


class TestValidation:
    def test_check_mode_negative(self):
        assert check_mode(-1, 3) == 2

    def test_check_mode_out_of_range(self):
        with pytest.raises(ModeError):
            check_mode(3, 3)

    def test_check_mode_non_integer(self):
        with pytest.raises(ModeError):
            check_mode(1.5, 3)

    def test_check_shape(self):
        assert check_shape([2, 3]) == (2, 3)
        with pytest.raises(ShapeError):
            check_shape([])
        with pytest.raises(ShapeError):
            check_shape([0, 3])

    def test_check_same_shape(self):
        class S:
            shape = (2, 3)

        class T:
            shape = (2, 4)

        check_same_shape(S(), S())
        with pytest.raises(ShapeError):
            check_same_shape(S(), T())

    def test_indices_bounds(self):
        inds = np.array([[0, 1], [2, 3]])
        check_indices_in_bounds(inds, (3, 4))
        with pytest.raises(ShapeError, match="mode 1"):
            check_indices_in_bounds(inds, (3, 3))

    def test_indices_wrong_shape(self):
        with pytest.raises(ShapeError):
            check_indices_in_bounds(np.zeros((2, 3), dtype=int), (3, 4))
