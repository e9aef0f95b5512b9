"""The names the benchmark's tracer wraps, read from ``bench/tracing.py``.

The tracer patches module attributes by name (``TIMED``, ``COUNTED``) and
fails on a name that is missing.  The ones no code calls any more are bound
to None on their module.  This file pins that list exactly: a stub that
grows code back, or a wrapped name that goes, fails here first.
"""

import importlib.util
import pathlib

from vlcrf import cli, dc_solver, experiment

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = {"cli": cli, "experiment": experiment, "dc_solver": dc_solver}

# wrapped by the tracer, called by no code; deleted when the tracer is repointed
STUBS = {
    ("experiment", name) for name in (
        "vlc_channel_gain", "sample_rician_gain", "dl_rate_coefficients", "dl_sum_rate",
        "clamped_secrecy_sum", "secrecy_capacity_user", "dca_solve", "allocation_violation",
    )
} | {("dc_solver", name) for name in ("minimize", "kkt_residual", "perspective_value", "perspective_grads")}


def _wrapped() -> set[tuple[str, str]]:
    """(module, attribute) of every entry of the tracer's ``TIMED`` and ``COUNTED``."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module, attr) for module, attr, _ in tracing.TIMED + tracing.COUNTED}


def test_every_wrapped_name_exists():
    for module, attr in _wrapped():
        assert hasattr(MODULES[module], attr), (module, attr)


def test_the_stubs_are_exactly_the_wrapped_names_bound_to_none():
    wrapped = _wrapped()
    assert STUBS <= wrapped
    assert {(module, attr) for module, attr in wrapped if getattr(MODULES[module], attr) is None} == STUBS
