"""Command-line front end.

Commands:
    solve   solve the seeded scenario and print the allocation summary
    sweep   run the configured sweep and write sweep_rows.csv / sweep_agg.csv
    report  write the per-user allocation_report.csv for the seeded scenario

Settings resolve in order: built-in defaults, then --preset values, then the
--config file, then explicit flags.  Exit codes: 0 success, 2 config error,
3 infeasible everywhere.  A config error is also a scenario the model cannot
evaluate (``experiment.scenario_block``), such as a user at the LED or a
channel value that overflows, and an output directory or file that cannot
be written; at any worker count it prints one ``config error:`` line.

Besides ``config error:`` lines (and a sweep's line that every point was
infeasible), stderr carries at most one ``warning:`` line per command: how
many of the user placements it drew are outside the LED field of view, where
the user has no VLC rate and harvests no uplink power.  A sweep counts over
all its trials, so the line is the same at any worker count.
"""

from __future__ import annotations

import argparse
import functools
import sys

from vlcrf.dc_solver import STATUS_INFEASIBLE
from vlcrf.experiment import PRESETS, ConfigError, load_config, run_report, run_solve, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file (key = value lines)")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="start from a named preset")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--out", metavar="DIR", help="override the output directory")


@functools.cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcrf",
        description="Secrecy-optimal TDMA slot allocation for hybrid VLC-RF links",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="solve one seeded scenario")
    p_solve.add_argument("--oracle", action="store_true", help="cross-check against the grid oracle (K <= 2)")
    p_sweep = sub.add_parser("sweep", help="run the configured sweep and write CSVs")
    p_report = sub.add_parser("report", help="write the per-user allocation report")
    for p in (p_solve, p_sweep, p_report):
        _add_common(p)
    return parser


def _notice(dark: tuple[int, int]) -> None:
    """Print the one notice on (placements outside the LED field of view, all placements), if any are."""
    if dark[0]:
        print(f"warning: {dark[0]} of {dark[1]} user placements are outside the LED field of view; "
              "their VLC gain is 0", file=sys.stderr)


def _cmd_solve(cfg, args) -> int:
    out = run_solve(cfg, oracle=args.oracle)
    _notice(out["dark"])
    print(f"status: {out['status']}")
    print(f"r_min: {out['r_min']!r}")
    if out["status"] == STATUS_INFEASIBLE:
        print("rate target exceeds the best achievable DL sum rate")
        return EXIT_INFEASIBLE
    chain = out["chain"]  # the one row is [0, 0]
    gap = float(chain.gap_bits[0, 0])
    print(f"objective_bits: {float(chain.objective[0, 0])!r}")
    print(f"iterations: {int(chain.iterations[0, 0])}")
    print(f"kkt_residual: {gap!r}")  # fixed CLI output: the line carries the same gap
    print(f"gap_bits: {gap!r}")
    for k, (dl, ul) in enumerate(zip(chain.tau_dl[0, 0].tolist(), chain.tau_ul[0, 0].tolist())):
        print(f"user {k}: tau_dl={dl!r} tau_ul={ul!r}")
    if "oracle" in out:
        cmp_ = out["oracle"]
        verdict = "pass" if cmp_.passed else "FAIL"
        print(
            f"oracle: objective={cmp_.oracle_objective!r} gap={cmp_.gap!r} "
            f"rel_tol={cmp_.rel_tol!r} -> {verdict}"
        )
    return EXIT_OK


def _cmd_sweep(cfg, args) -> int:
    info = run_sweep(cfg)
    _notice(info["dark"])
    print(f"rows: {info['rows']} ({info['solved']} solved) -> {info['rows_path']}")
    print(f"aggregates -> {info['agg_path']}")
    if info["solved"] == 0:
        print("every sweep point was infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_report(cfg, args) -> int:
    info = run_report(cfg)
    _notice(info["dark"])
    print(f"report -> {info['report_path']} (status: {info['status']})")
    if info["status"] == STATUS_INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_OK


COMMANDS = {"solve": _cmd_solve, "sweep": _cmd_sweep, "report": _cmd_report}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flags = {"seed": args.seed, "trials": args.trials, "output.dir": args.out}
    overrides = {key: str(value) for key, value in flags.items() if value is not None}
    try:
        cfg = load_config(args.config, overrides, preset=args.preset)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
