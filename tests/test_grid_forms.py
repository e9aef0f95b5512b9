"""The reworked grid-oracle steps against their earlier forms (``grid_forms``).

Every comparison is on the bytes: the levels must be ``np.linspace``'s, the
value tables the bits of the ``np.where`` form (nan where it had nan), and
the run maxima read off monotone columns the bits of the sparse table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import grid_forms
from vlcrf import reference_oracle


def _windows():
    """The windows grid_search searches: the unit box, refinement windows
    clipped at 0 and 1 or free inside, single points and subnormal widths."""
    yield 0.0, 1.0
    rng = np.random.default_rng(18)
    for rounds in range(1, 6):
        width = 0.2 ** rounds
        for cen in (0.0, 1.0, width / 3.0, 1.0 - width / 5.0, *rng.uniform(0.0, 1.0, 3)):
            yield max(0.0, cen - width / 2.0), min(1.0, cen + width / 2.0)
    yield from ((0.0, 0.0), (0.3, 0.3), (1.0, 1.0))
    yield from ((0.0, 5e-324), (0.0, 1e-320), (1e-310, 1e-310 + 3e-323), (2e-308, 2e-308 + 1e-321))


class TestLevels:
    def test_linspace_bits(self):
        for lo, hi in _windows():
            for n in range(16, 513):
                got = reference_oracle._levels(lo, hi, n)
                assert got.tobytes() == grid_forms.levels(lo, hi, n).tobytes(), (lo, hi, n)

    def test_extra_points(self):
        for lo, hi in ((0.0, 1.0), (0.25, 0.3)):
            for extra in ((), (0.27,), (0.5,), (lo,), (hi,), (-1.0, 0.28, 2.0)):
                got = reference_oracle._levels(lo, hi, 37, extra)
                assert got.tobytes() == grid_forms.levels(lo, hi, 37, extra).tobytes(), (lo, hi, extra)


def _table_levels(rng):
    """DL levels down to an empty leftover, UL levels from tau_ul = 0 through
    widths small enough that a w / tau_ul overflows."""
    dl = np.concatenate([np.linspace(0.0, 1.0, 33), rng.uniform(0.0, 1.0, 7)])
    ul = np.concatenate([[0.0, 5e-324, 1e-300, 1e-12], np.linspace(0.0, 1.0, 29)[1:], rng.uniform(0.0, 1.0, 5)])
    return dl, ul


class TestPairTable:
    def _check(self, a, a_e, dl, ul):
        with np.errstate(all="ignore"):
            got = reference_oracle._pair_table(a, a_e, dl, ul)
            want = grid_forms.pair_table(a, a_e, dl, ul)
        assert got.tobytes() == want.tobytes(), (a, a_e)
        return got

    def test_log_uniform_constants(self):
        rng = np.random.default_rng(20261019)
        dl, ul = _table_levels(rng)
        for a, a_e in 10.0 ** rng.uniform(-6.0, 12.0, (200, 2)):
            self._check(float(a), float(a_e), dl, ul)

    def test_edge_constants(self):
        rng = np.random.default_rng(7)
        dl, ul = _table_levels(rng)
        seen_nan = seen_inf = False
        for a in (1e-6, 1.0, 3e5, 1e12, np.inf):  # an infinite constant leaves nan at tau_ul = 0
            for a_e in (0.0, a):
                table = self._check(a, a_e, dl, ul)
                seen_nan |= bool(np.isnan(table).any())
                seen_inf |= bool(np.isinf(table).any())
                assert not np.signbit(table[:, ul == 0.0]).any()
            self._check(0.0, a, dl, ul)
        # a w / tau_ul overflows: inf beside a zero eavesdropper, inf - inf beside a tie
        assert seen_nan and seen_inf

    def test_zero_uplink_columns_only(self):
        dl = np.array([0.0, 0.5, 1.0])
        for ul in (np.array([0.0]), np.zeros(3)):
            table = self._check(40.0, 2.0, dl, ul)
            assert table.tobytes() == np.zeros(table.shape).tobytes()


class TestRunMax:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_against_the_sparse_table(self, data):
        rows = data.draw(st.integers(1, 40))
        cols = data.draw(st.integers(1, 6))
        # the search's tables hold no -0.0; x + 0.0 turns it into +0.0
        table = data.draw(arrays(np.float64, (rows, cols), elements=st.floats(allow_nan=False))) + 0.0
        kinds = data.draw(st.lists(st.sampled_from(["falling", "rising", "constant", "mixed", "nan"]),
                                   min_size=cols, max_size=cols))
        for j, kind in enumerate(kinds):
            if kind == "falling":
                table[:, j] = np.sort(table[:, j])[::-1]
            elif kind == "rising":
                table[:, j] = np.sort(table[:, j])
            elif kind == "constant":
                table[:, j] = table[0, j]
            elif kind == "nan":
                table[data.draw(st.integers(0, rows - 1)), j] = np.nan
        runs = data.draw(st.integers(1, 30))
        lo = data.draw(arrays(np.int64, runs, elements=st.integers(0, rows - 1)))
        span = 1 + data.draw(arrays(np.int64, runs, elements=st.integers(0, rows - 1))) % (rows - lo)
        got = reference_oracle._run_max(table, lo, span)
        assert got.tobytes() == grid_forms.run_max(table, lo, span).tobytes()

    @pytest.mark.parametrize("direction", [-1.0, 1.0])
    def test_monotone_tables_skip_the_sparse_table(self, monkeypatch, direction):
        def fail(*args):
            raise AssertionError("the sparse table ran on monotone columns")

        table = direction * np.arange(1.0, 13.0)[:, None] * np.arange(1.0, 4.0)
        lo, span = np.array([0, 3, 11, 5]), np.array([12, 4, 1, 2])
        want = grid_forms.run_max(table, lo, span)
        monkeypatch.setattr(reference_oracle, "_range_max", fail)
        assert reference_oracle._run_max(table, lo, span).tobytes() == want.tobytes()
