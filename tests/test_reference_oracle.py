"""Grid-oracle checks: accuracy against closed forms and the solver."""

import math
import warnings

import numpy as np
import pytest

from vlcrf.dc_solver import DcaResult, DcaSettings, FeasibleSet, allocation_violation, dca_solve
from vlcrf.experiment import PRESETS, build_config, generate_scenario
from vlcrf.link_budget import ScenarioChannels, dl_rate_coefficients
from vlcrf import reference_oracle
from vlcrf.reference_oracle import GridSpec, compare, grid_search


def scenario_with_a(a_values, ae_values):
    a = np.atleast_1d(np.asarray(a_values, dtype=float))
    ae = np.atleast_1d(np.asarray(ae_values, dtype=float))
    return ScenarioChannels(
        g=np.ones_like(a),
        h=np.sqrt(a * 1e-14 / (0.44 * 4.0)),
        h_e=np.sqrt(ae * 1e-14 / (0.44 * 4.0)),
        sigma2_dl=np.full(a.shape, 1e-14),
        sigma2_ul=np.full(a.shape, 1e-14),
        sigma2_e=1e-14,
        eta=0.44,
        i_d=2.0,
        p_led=1.0,
    )


def fs_for(s, r_min=0.0):
    return FeasibleSet(dl_rate_coefficients(s), float(r_min))


FINE = GridSpec(resolution=1024, refine_rounds=3, refine_shrink=0.2)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(resolution=8)
        with pytest.raises(ValueError):
            GridSpec(refine_rounds=-1)
        with pytest.raises(ValueError):
            GridSpec(refine_shrink=1.0)
        # counts must be ints: a float fails deep in the search, a bool reads as 0/1
        for bad in (dict(resolution=20.0), dict(resolution=True), dict(refine_rounds=1.5),
                    dict(refine_rounds=True), dict(refine_rounds=False)):
            with pytest.raises(ValueError, match="must be an int"):
                GridSpec(**bad)
        assert GridSpec(resolution=np.int64(20), refine_rounds=np.int64(0)).resolution == 20


class TestSingleUser:
    def test_identical_channels_zero(self):
        s = scenario_with_a([7.0], [7.0])
        _, obj = grid_search(s, fs_for(s, 1.0), GridSpec(resolution=64, refine_rounds=1))
        assert obj == 0.0

    def test_forced_full_dl_slot(self):
        s = scenario_with_a([10.0], [1.0])
        c = float(dl_rate_coefficients(s)[0])
        alloc, obj = grid_search(s, fs_for(s, c), GridSpec(resolution=64, refine_rounds=1))
        assert float(alloc.tau_dl[0]) == 1.0
        assert obj == 0.0

    def test_ten_vs_one_hand_optimum(self):
        s = scenario_with_a([10.0], [1.0])
        alloc, obj = grid_search(s, fs_for(s, 0.0), FINE)
        assert obj == pytest.approx(math.log2(11.0) - math.log2(2.0), abs=2e-4)
        assert float(alloc.tau_dl[0]) <= 1e-3
        assert float(alloc.tau_ul[0]) == pytest.approx(1.0, abs=1e-6)

    def test_matches_closed_form_with_rate_target(self):
        # for a > a_E the objective increases in tau_ul and decreases in
        # tau_dl, so the optimum sits at tau_ul = 1, tau_dl = r_min/c
        rng = np.random.default_rng(20)
        for _ in range(8):
            a = float(rng.uniform(2.0, 300.0))
            ae = float(rng.uniform(0.05, 0.5)) * a
            s = scenario_with_a([a], [ae])
            c = float(dl_rate_coefficients(s)[0])
            r_min = float(rng.uniform(0.0, 0.9)) * c
            _, obj = grid_search(s, fs_for(s, r_min), FINE)
            a_act = float(s.a_user()[0])
            ae_act = float(s.a_eve()[0])
            leftover = 1.0 - r_min / c
            expected = math.log2(1.0 + a_act * leftover) - math.log2(1.0 + ae_act * leftover)
            assert obj == pytest.approx(expected, abs=1e-4)

    def test_refinement_never_degrades(self):
        s = scenario_with_a([40.0], [3.0])
        fs = fs_for(s, 2.0)
        objs = [
            grid_search(s, fs, GridSpec(resolution=128, refine_rounds=r))[1]
            for r in range(4)
        ]
        assert all(objs[i + 1] >= objs[i] for i in range(3))

    def test_returned_point_feasible(self):
        s = scenario_with_a([25.0], [2.0])
        fs = fs_for(s, 3.0)
        alloc, _ = grid_search(s, fs, GridSpec(resolution=64, refine_rounds=1))
        assert allocation_violation(fs, alloc) <= 1e-12


class TestTwoUsers:
    def test_agrees_with_solver(self):
        rng = np.random.default_rng(22)
        for _ in range(3):
            s = scenario_with_a(rng.uniform(1.0, 80.0, 2), rng.uniform(0.1, 20.0, 2))
            c = dl_rate_coefficients(s)
            fs = fs_for(s, float(rng.uniform(0.0, 0.7)) * float(c.max()))
            res = dca_solve(s, fs, DcaSettings())
            _, oracle_obj = grid_search(s, fs, GridSpec(resolution=64, refine_rounds=3))
            assert compare(res, oracle_obj, rel_tol=1e-3).passed
            # two-sided sanity: the feasible grid point cannot beat the
            # solver by much either
            assert res.objective >= oracle_obj - 1e-3 * max(1.0, abs(oracle_obj))

    def test_unsupported_user_count(self):
        s = scenario_with_a([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            grid_search(s, fs_for(s, 0.0), GridSpec(resolution=16))

    def test_infeasible_rejected(self):
        s = scenario_with_a([5.0], [1.0])
        c = float(dl_rate_coefficients(s)[0])
        with pytest.raises(ValueError):
            grid_search(s, FeasibleSet(np.array([c]), c + 1.0), GridSpec(resolution=16))


def _feasible_dl_pairs(c, r_min, d1, d2):
    s1 = d1[:, None] + d2[None, :]
    rate = c[0] * d1[:, None] + c[1] * d2[None, :]
    ok = (s1 <= 1.0) & (rate >= r_min)
    i1, i2 = np.nonzero(ok)
    return i1, i2


def _reference_levels(fs, spec, windows):
    """The search's (d1, d2, u1, u2) levels, rate-boundary candidates included."""
    c = np.asarray(fs.rate_coeffs, dtype=np.float64)
    (d1lo, d1hi), (d2lo, d2hi), (u1lo, u1hi), (u2lo, u2hi) = windows
    d1 = reference_oracle._levels(d1lo, d1hi, spec.resolution)
    d2 = reference_oracle._levels(d2lo, d2hi, spec.resolution)
    if fs.r_min > 0.0:
        if c[1] > 0.0:
            cand = (fs.r_min - c[0] * d1) / c[1]
            d2 = np.unique(np.concatenate([d2, cand[(cand >= d2lo) & (cand <= d2hi)]]))
        if c[0] > 0.0:
            cand = (fs.r_min - c[1] * d2) / c[0]
            d1 = np.unique(np.concatenate([d1, cand[(cand >= d1lo) & (cand <= d1hi)]]))
    u1 = reference_oracle._levels(u1lo, u1hi, spec.resolution)
    u2 = reference_oracle._levels(u2lo, u2hi, spec.resolution)
    return c, d1, d2, u1, u2


def cross_product_search_k2(s, fs, spec, windows):
    """Reference K = 2 search: every feasible DL pair against every UL pair.

    The range-maximum search in reference_oracle must return the same
    maximum and the same argmax bits (lowest DL pair, then user-1 level,
    then user-2 level).
    """
    a = s.a_user()
    a_e = s.a_eve()
    c, d1, d2, u1, u2 = _reference_levels(fs, spec, windows)
    i1, i2 = _feasible_dl_pairs(c, fs.r_min, d1, d2)
    if i1.size == 0:
        return None
    j1, j2 = np.nonzero(u1[:, None] + u2[None, :] <= 1.0)
    if j1.size == 0:
        return None
    w1 = reference_oracle._pair_table(float(a[0]), float(a_e[0]), d1, u1)
    w2 = reference_oracle._pair_table(float(a[1]), float(a_e[1]), d2, u2)
    best = -np.inf
    best_p = best_q = 0
    chunk = max(1, 2_000_000 // j1.size)
    for lo in range(0, i1.size, chunk):
        sl = slice(lo, lo + chunk)
        block = w1[i1[sl][:, None], j1[None, :]] + w2[i2[sl][:, None], j2[None, :]]
        p, q = np.unravel_index(np.argmax(block), block.shape)
        if block[p, q] > best:
            best = float(block[p, q])
            best_p, best_q = lo + p, q
    dl = (float(d1[i1[best_p]]), float(d2[i2[best_p]]))
    ul = (float(u1[j1[best_q]]), float(u2[j2[best_q]]))
    return best, dl, ul


def prefix_max_search_k2(s, fs, spec, windows):
    """Second reference K = 2 search: every feasible DL pair against every user-1 UL level.

    Each pair adds w1 to the prefix maximum of w2 over the admitted user-2
    UL levels.  It equals the cross product bit for bit and is fast enough to
    check the range-maximum search at resolutions 128 and 256.
    """
    a = s.a_user()
    a_e = s.a_eve()
    c, d1, d2, u1, u2 = _reference_levels(fs, spec, windows)
    i1, i2 = _feasible_dl_pairs(c, fs.r_min, d1, d2)
    if i1.size == 0:
        return None
    m = np.count_nonzero(u1[:, None] + u2[None, :] <= 1.0, axis=1) - 1
    js = np.flatnonzero(m >= 0)
    if js.size == 0:
        return None

    w1 = reference_oracle._pair_table(float(a[0]), float(a_e[0]), d1, u1)
    w2 = reference_oracle._pair_table(float(a[1]), float(a_e[1]), d2, u2)
    left = w1[:, js]
    right = np.maximum.accumulate(w2, axis=1)[:, m[js]]
    best = -np.inf
    best_p = best_q = 0
    chunk = max(1, 2_000_000 // js.size)
    for lo in range(0, i1.size, chunk):
        sl = slice(lo, lo + chunk)
        block = left[i1[sl]] + right[i2[sl]]
        p, q = np.unravel_index(np.argmax(block), block.shape)
        if block[p, q] > best:
            best = float(block[p, q])
            best_p, best_q = lo + p, q
    k1, k2, j1 = i1[best_p], i2[best_p], js[best_q]
    j2 = int(np.argmax(w1[k1, j1] + w2[k2, : m[j1] + 1] == best))
    dl = (float(d1[k1]), float(d2[k2]))
    ul = (float(u1[j1]), float(u2[j2]))
    return best, dl, ul


def _bits(alloc, objective):
    return (
        np.float64(objective).tobytes(),
        np.asarray(alloc.tau_dl, dtype=np.float64).tobytes(),
        np.asarray(alloc.tau_ul, dtype=np.float64).tobytes(),
    )


def _equivalence_panel():
    """Two-user problems: fig4 draws plus adversarial SNR constants.

    The adversarial draws span SNR constants 1e-6 to 1e12, ties a = aE on
    one or both users, a zero gain for user 2, and rate targets of 0, a
    random fraction and the best-user vertex c_max.  The last problem is a
    weak link whose value tables are so flat that w1 + w2[j2] rounds to the
    maximum one user-2 level below the largest w2 of the admitted prefix,
    so the argmax tie rule decides its tau_ul.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(30):
            raw = dict(PRESETS["fig4"], seed=str(seed))
            raw["users.count"] = "2"
            raw["rate.min_fraction"] = repr((0.0, 0.3, 0.6, 0.9, 0.99)[seed % 5])
            s, fs = generate_scenario(build_config(raw), 0)
            yield s, fs, GridSpec(resolution=(16, 24, 32)[seed % 3], refine_rounds=seed % 4)
    rng = np.random.default_rng(20261018)
    for case in range(200):
        a = 10.0 ** rng.uniform(-6.0, 12.0, 2)
        ae = 10.0 ** rng.uniform(-6.0, 12.0, 2)
        kind = case % 5
        if kind == 1:
            ae[0] = a[0]
        elif kind == 2:
            ae[:] = a
        s = scenario_with_a(a, ae)
        if kind == 3:
            s = ScenarioChannels(
                g=np.array([1.0, 0.0]), h=s.h, h_e=s.h_e, sigma2_dl=s.sigma2_dl,
                sigma2_ul=s.sigma2_ul, sigma2_e=s.sigma2_e, eta=s.eta, i_d=s.i_d, p_led=s.p_led,
            )
        c_max = float(dl_rate_coefficients(s).max())
        r_min = (0.0, float(rng.uniform(0.0, 1.0)) * c_max, c_max)[case % 3]
        spec = GridSpec(resolution=int(rng.integers(16, 41)), refine_rounds=int(rng.integers(0, 4)))
        yield s, fs_for(s, r_min), spec
    s = scenario_with_a([6.5e-15, 2e-15], [2.2e-15, 1.7e-16])
    yield s, fs_for(s, 0.65 * float(dl_rate_coefficients(s).max())), GridSpec(resolution=36, refine_rounds=1)


class TestPrefixMaxSearch:
    def test_matches_the_cross_product_bit_for_bit(self, monkeypatch):
        panel = list(_equivalence_panel())
        assert len(panel) >= 200
        fast = [_bits(*grid_search(s, fs, spec)) for s, fs, spec in panel]
        monkeypatch.setattr(reference_oracle, "_search_k2", cross_product_search_k2)
        slow = [_bits(*grid_search(s, fs, spec)) for s, fs, spec in panel]
        for i, (got, want) in enumerate(zip(fast, slow)):
            assert got == want, f"problem {i}"


def _fig4_pair(seed, fraction=None):
    raw = dict(PRESETS["fig4"], seed=str(seed))
    raw["users.count"] = "2"
    if fraction is not None:
        raw["rate.min_fraction"] = repr(fraction)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return generate_scenario(build_config(raw), 0)


def _scale_panel():
    """Two-user problems at resolutions the cross product cannot reach.

    fig4 at the default rate target and resolutions 128 and 256, then rate
    targets near c_max: there many user-1 DL levels admit no user-2 level
    and the levels at the rate boundary admit exactly one, in the global
    pass and in the windows that refinement narrows around the boundary.
    """
    for seed in range(3):
        s, fs = _fig4_pair(seed)
        for resolution in (128, 256):
            yield s, fs, GridSpec(resolution=resolution)
    for seed, fraction in zip(range(3, 7), (0.9, 0.99, 0.999, 0.99999)):
        s, fs = _fig4_pair(seed, fraction)
        yield s, fs, GridSpec(resolution=96, refine_rounds=5)
    rng = np.random.default_rng(20261019)
    for case in range(12):
        s = scenario_with_a(10.0 ** rng.uniform(-2.0, 8.0, 2), 10.0 ** rng.uniform(-3.0, 6.0, 2))
        c_max = float(dl_rate_coefficients(s).max())
        r_min = c_max * (1.0 - 10.0 ** -float(rng.uniform(1.0, 9.0)))
        spec = GridSpec(resolution=int(rng.integers(48, 160)), refine_rounds=int(rng.integers(1, 6)))
        yield s, fs_for(s, r_min), spec


class TestRangeMaxSearch:
    def test_matches_the_prefix_max_search_at_scale(self, monkeypatch):
        panel = list(_scale_panel())
        masks = []
        dl_feasible = reference_oracle._dl_feasible

        def recording(*args):
            masks.append(dl_feasible(*args))
            return masks[-1]

        monkeypatch.setattr(reference_oracle, "_dl_feasible", recording)
        fast = [_bits(*grid_search(s, fs, spec)) for s, fs, spec in panel]
        monkeypatch.undo()
        monkeypatch.setattr(reference_oracle, "_search_k2", prefix_max_search_k2)
        slow = [_bits(*grid_search(s, fs, spec)) for s, fs, spec in panel]
        for i, (got, want) in enumerate(zip(fast, slow)):
            assert got == want, f"problem {i}"
        # each user-1 DL level admits one run of user-2 levels, and the panel
        # has rounds where some levels admit none or exactly one beside others
        counts = []
        for ok in masks:
            for row in ok:
                idx = np.flatnonzero(row)
                assert idx.size == 0 or idx[-1] - idx[0] + 1 == idx.size
            counts.append(np.count_nonzero(ok, axis=1))
        mixed = [n for n in counts if n.max() > 1]
        assert sum(bool(np.any(n == 0)) for n in mixed) >= 10
        assert sum(bool(np.any(n == 1)) for n in mixed) >= 10

    def test_tie_rule_on_tables_full_of_ties(self, monkeypatch):
        # integer value tables, a fixed function of the levels: a step in the
        # UL level plus a bonus below a DL-dependent UL threshold.  Maxima tie
        # across DL pairs and UL levels; in many problems the lowest user-2 DL
        # level reaches the maximum only at a larger user-1 UL level than a
        # higher one does, so the order of the tie rule decides the point.
        def coarse_table(a, a_e, dl_levels, ul_levels):
            threshold = (dl_levels[:, None] * 7.77 + a) % 1.0
            return np.round(ul_levels[None, :] * 16.0) + 2.0 * (ul_levels[None, :] <= threshold)

        monkeypatch.setattr(reference_oracle, "_pair_table", coarse_table)
        rng = np.random.default_rng(11)
        panel = []
        for case in range(40):
            s = scenario_with_a(10.0 ** rng.uniform(-1.0, 3.0, 2), 10.0 ** rng.uniform(-1.0, 3.0, 2))
            c_max = float(dl_rate_coefficients(s).max())
            r_min = (0.0, float(rng.uniform()) * c_max, c_max * (1.0 - 1e-3))[case % 3]
            spec = GridSpec(resolution=int(rng.integers(16, 33)), refine_rounds=int(rng.integers(0, 3)))
            panel.append((s, fs_for(s, r_min), spec))
        fast = [_bits(*grid_search(s, fs, spec)) for s, fs, spec in panel]
        monkeypatch.setattr(reference_oracle, "_search_k2", cross_product_search_k2)
        slow = [_bits(*grid_search(s, fs, spec)) for s, fs, spec in panel]
        for i, (got, want) in enumerate(zip(fast, slow)):
            assert got == want, f"problem {i}"

    def test_range_max_of_every_run(self):
        rng = np.random.default_rng(5)
        table = rng.normal(size=(37, 3))
        lo, span = np.array([(i, n) for i in range(37) for n in range(1, 38 - i)]).T
        want = np.array([table[i : i + n].max(axis=0) for i, n in zip(lo, span)])
        assert np.array_equal(reference_oracle._range_max(table, lo, span), want)


class TestCertificateCrossCheck:
    def test_grid_never_beats_the_certified_bound(self):
        # the grid value is a feasible lower bound on the optimum and
        # objective + gap_bits an upper bound, at the start (a huge epsilon
        # returns it unsolved) and at the answer; panel: fig4 at K = 1, 2
        for users in (1, 2):
            for seed in range(10):
                raw = dict(PRESETS["fig4"], seed=str(seed))
                raw["users.count"] = str(users)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    s, fs = generate_scenario(build_config(raw), 0)
                _, grid = grid_search(s, fs, GridSpec(resolution=128, refine_rounds=3))
                for res in (dca_solve(s, fs, DcaSettings(epsilon=1e9)), dca_solve(s, fs)):
                    assert grid <= res.objective + res.gap_bits + 1e-12


class TestCompare:
    def _result(self, objective):
        return DcaResult(
            allocation=None, objective=objective, iterations=1,
            status="converged",
        )

    def test_within_tolerance_passes(self):
        out = compare(self._result(0.9995), 1.0, rel_tol=1e-3)
        assert out.passed and out.gap == pytest.approx(0.0005)

    def test_solver_beating_grid_passes(self):
        assert compare(self._result(1.01), 1.0, rel_tol=1e-3).passed

    def test_clearly_below_fails(self):
        out = compare(self._result(0.9), 1.0, rel_tol=1e-3)
        assert not out.passed
        assert out.gap == pytest.approx(0.1)
