"""Command-line front end.

Commands:
    solve   solve the seeded scenario and print the allocation summary
    sweep   run the configured sweep and write sweep_rows.csv / sweep_agg.csv
    report  write the per-user allocation_report.csv for the seeded scenario

Settings resolve in order: built-in defaults, then --preset values, then the
--config file, then explicit flags.  Exit codes: 0 success, 2 config error,
3 infeasible everywhere.
"""

from __future__ import annotations

import argparse
import sys

from vlcrf.dc_solver import STATUS_INFEASIBLE
from vlcrf.experiment import (
    PRESETS,
    ConfigError,
    build_config,
    parse_config_text,
    run_report,
    run_solve,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file (key = value lines)")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="start from a named preset")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--out", metavar="DIR", help="override the output directory")


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


def _resolve_config(args):
    raw: dict[str, str] = {}
    if args.preset:
        raw.update(PRESETS[args.preset])
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw.update(parse_config_text(fh.read()))
        except OSError as err:
            raise ConfigError(f"cannot read config file {args.config!r}: {err}") from None
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    if args.trials is not None:
        raw["trials"] = str(args.trials)
    if args.out is not None:
        raw["output.dir"] = args.out
    return build_config(raw)


def _cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    out = run_solve(cfg, oracle=args.oracle)
    result = out["result"]
    print(f"status: {result.status}")
    print(f"r_min: {out['r_min']!r}")
    if result.status == STATUS_INFEASIBLE:
        print("rate target exceeds the best achievable DL sum rate")
        return EXIT_INFEASIBLE
    print(f"objective_bits: {result.objective!r}")
    print(f"iterations: {result.iterations}")
    print(f"kkt_residual: {result.kkt_residual!r}")
    print(f"gap_bits: {result.gap_bits!r}")
    alloc = result.allocation
    for k in range(alloc.K):
        print(f"user {k}: tau_dl={float(alloc.tau_dl[k])!r} tau_ul={float(alloc.tau_ul[k])!r}")
    if "oracle" in out:
        cmp_ = out["oracle"]
        verdict = "pass" if cmp_.passed else "FAIL"
        print(
            f"oracle: objective={cmp_.oracle_objective!r} gap={cmp_.gap!r} "
            f"rel_tol={cmp_.rel_tol!r} -> {verdict}"
        )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    info = run_sweep(cfg, out_dir=args.out)
    print(f"rows: {info['rows']} ({info['solved']} solved) -> {info['rows_path']}")
    print(f"aggregates -> {info['agg_path']}")
    if info["solved"] == 0:
        print("every sweep point was infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_report(args) -> int:
    cfg = _resolve_config(args)
    info = run_report(cfg, out_dir=args.out)
    print(f"report -> {info['report_path']} (status: {info['status']})")
    if info["status"] == STATUS_INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_report(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
