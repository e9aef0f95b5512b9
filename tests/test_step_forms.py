"""The fused CSV lines and gradient kernel against their earlier forms (``step_forms``).

Every comparison is ==: the CSV text of a target's rows must be the bytes
``csv.writer`` wrote, and the per-user terms and supergradient of
``_Concave.value_and_grad`` the bits of the two-pass kernel, nan where it
had nan and each zero with its sign.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import step_forms
from vlcrf import experiment
from vlcrf.dc_solver import _secrecy_problem
from vlcrf.experiment import ChainBlock, build_config, load_config
from vlcrf.link_budget import LN2


def _chain(cfg, users, trials):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        block = experiment.scenario_block(dataclasses.replace(cfg, users_count=users), trials)
        return experiment._rmin_chain_block(cfg, block)


def _check_csv(cfg, users, trials) -> str:
    """Compare every target's text of one block; returns the whole text."""
    chain = _chain(cfg, users, trials)
    labels = experiment._chain_targets(cfg, users)[0]
    text = []
    for idx, label in enumerate(labels):
        got = experiment._chain_csv(label, users, trials, chain, idx)
        assert got == step_forms.chain_csv(label, users, trials, chain, idx), (users, label)
        text.append(got)
    return "".join(text)


class TestChainCsv:
    def test_one_user_cells_unquoted(self):
        text = _check_csv(load_config(overrides={"trials": "4"}, preset="fig3"), 1, range(4))
        assert '"' not in text and text.count("\n") == 80

    @pytest.mark.parametrize("users", [2, 4, 7])
    def test_packed_cells_quoted(self, users):
        text = _check_csv(load_config(overrides={"trials": "4"}, preset="fig3"), users, [3, 0, 2])
        assert text.count('"') == 4 * 60  # two quoted cells per row

    def test_infeasible_rows_have_empty_cells(self):
        # absolute targets, the last beyond every trial's best rate and the
        # middle one beyond some: infeasible rows inside a block
        cfg = build_config({"seed": "5", "trials": "6", "users.count": "3", "sweep.kind": "rmin",
                            "sweep.values": "0.5,8.0,50.0", "rf.los_reference_gain": "0.1"})
        chain = _chain(cfg, 3, range(6))
        assert not chain.feasible[2].any() and 0 < chain.feasible[1].sum() < 6
        text = _check_csv(cfg, 3, range(6))
        assert text.count(",,,,,,0,infeasible\n") == 6 + 6 - int(chain.feasible[1].sum())

    @pytest.mark.parametrize("users", [1, 3])
    def test_users_sweep_labels(self, users):
        cfg = build_config({"seed": "12", "trials": "5", "sweep.kind": "users", "sweep.values": "1,3",
                            "rate.min_fraction": "0.6", "rf.los_reference_gain": "0.1"})
        text = _check_csv(cfg, users, range(5))
        assert all(line.startswith(f"{users},{users},") for line in text.splitlines())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_cells(self, data):
        # any doubles in every column, nan and inf included, any feasible mask
        users = data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(1, 5))
        doubles = st.floats(allow_nan=True, allow_infinity=True)

        def column(*shape):
            return np.array(data.draw(st.lists(doubles, min_size=math.prod(shape), max_size=math.prod(shape))),
                            dtype=np.float64).reshape(shape)

        def flags():
            return np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))).reshape(1, rows)

        chain = ChainBlock(
            r_min=column(1, rows), feasible=flags(), objective=column(1, rows),
            secrecy=column(1, rows, users), clamped=column(1, rows),
            dl_rate=column(1, rows), tau_dl=column(1, rows, users), tau_ul=column(1, rows, users),
            iterations=np.array([data.draw(st.lists(st.integers(0, 10**6), min_size=rows, max_size=rows))]),
            converged=flags(), gap_bits=column(1, rows),
        )
        label = data.draw(st.one_of(st.integers(1, 64), doubles))
        trials = data.draw(st.lists(st.integers(0, 10**9), min_size=rows, max_size=rows, unique=True))
        assert experiment._chain_csv(label, users, trials, chain, 0) == step_forms.chain_csv(
            label, users, trials, chain, 0)


def _check_kernel(a, a_e, dl, ul):
    """Compare both kernels on the rows (a, a_e, dl, ul); returns the fused kernel's output."""
    a, a_e, dl, ul = (np.array(x, dtype=np.float64, ndmin=2) for x in (a, a_e, dl, ul))
    prob = _secrecy_problem(a, a_e, np.ones_like(a), np.zeros(a.shape[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the fused kernel raises no floating-point warning either
        got = prob.value_and_grad(dl, ul)
    want = step_forms.value_and_grad(prob, dl, ul)
    for name, g, w in zip(("value", "g_dl", "g_ul"), got, want):
        assert step_forms.same_bits(g, w), (name, a.tolist(), a_e.tolist(), dl.tolist(), ul.tolist())
    return got


class TestValueAndGrad:
    def test_zero_uplink_share_takes_the_limit(self):
        _, g_dl, g_ul = _check_kernel([1e3, 10.0], [1.0, 1.0], [0.3, 0.2], [0.0, 1.0])
        assert g_ul[0, 0] == np.log2(1e3) and g_dl[0, 0] == 0.0

    def test_overflowing_ratio(self):
        # a w / tau_ul is 1e312: the term is dropped as at tau_ul = 0
        value, _, g_ul = _check_kernel([1e12, 1e3], [1e6, 1.0], [0.0, 0.5], [1e-300, 0.5])
        assert value[0, 0] == 0.0 and math.isfinite(value[0, 1]) and g_ul[0, 0] == np.log2(1e6)

    def test_eavesdropper_without_gain(self):
        value, _, g_ul = _check_kernel([[5.0, 2.0], [5.0, 2.0]], [[0.0, 0.0], [0.0, 1.0]],
                                       [[0.2, 0.3], [0.2, 0.3]], [[0.0, 0.4], [0.6, 0.4]])
        assert g_ul[0, 0] == np.inf and np.isfinite(value[1]).all()

    @pytest.mark.parametrize("a0, takes_slope", [(1e9, True), (1.5, False)])
    def test_corner_without_leftover(self, a0, takes_slope):
        # user 0 holds the whole DL frame (w = 0) and no uplink; user 1 holds
        # the uplink: the corner takes -phi'(0) when log2(a / aE) is above
        # user 1's UL gradient, else that limit
        _, g_dl, g_ul = _check_kernel([a0, 1e3], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0])
        if takes_slope:
            assert g_dl[0, 0] == (1.0 - a0) / LN2 and g_ul[0, 0] == 0.0
        else:
            assert g_dl[0, 0] == 0.0 and g_ul[0, 0] == np.log2(a0)

    def test_switched_off_users_read_zero(self):
        _, g_dl, g_ul = _check_kernel([1.0, 4.0, 3.0], [2.0, 4.0, 1.0], [0.1, 0.2, 0.3], [0.3, 0.3, 0.4])
        assert g_dl[0, :2].tolist() == [0.0, 0.0] and g_ul[0, :2].tolist() == [0.0, 0.0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_rows(self, data):
        # SNR constants log-uniform in [1e-6, 1e12], with ties a = aE, aE = 0
        # and switched-off users; fractions with exact 0, 1 and tiny shares
        users = data.draw(st.integers(1, 6))
        rows = data.draw(st.integers(1, 4))
        snr = st.floats(-6.0, 12.0).map(lambda e: 10.0 ** e)
        frac = st.one_of(st.just(0.0), st.just(1.0), st.just(5e-324), st.just(1e-300), st.floats(0.0, 1.0))

        def draw(strategy):
            return np.array(data.draw(st.lists(strategy, min_size=rows * users, max_size=rows * users))).reshape(
                rows, users)

        a = draw(snr)
        kind = draw(st.sampled_from(["below", "tie", "zero", "above"]))
        a_e = np.where(kind == "tie", a, np.where(kind == "zero", 0.0, draw(snr)))
        a_e = np.where(kind == "below", np.minimum(a, a_e), a_e)
        _check_kernel(a, a_e, draw(frac), draw(frac))
