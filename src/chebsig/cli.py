"""Command-line harness: one subcommand per entry of ``experiments.EXPERIMENTS``.

Exit codes: 0 success, 1 failed --check assertion, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments as exp
from .report import write_report

USAGE_ERROR, CHECK_ERROR, IO_ERROR = 2, 1, 3


def _common(parser, seed):
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="directory to write CSV/JSON reports into")
    parser.add_argument("--svg", action="store_true",
                        help="also write standalone SVG line plots")
    parser.add_argument("--check", action="store_true",
                        help="run the golden assertions on the command's run-all "
                             "deck and exit nonzero on failure")
    if seed:
        parser.add_argument("--seed", type=int, default=0,
                            help="PCG64 seed for anything random (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebsig",
        description="Chebyshev/Fourier interpolation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, e in exp.EXPERIMENTS.items():
        p = sub.add_parser(name, help=e.help)
        _common(p, e.seed)
        for flag, kwargs in e.options.items():
            p.add_argument(flag, **kwargs)
    _common(sub.add_parser("run-all", help="run every experiment"), seed=True)
    return parser


def _written(reports, args):
    if args.out is not None:
        for r in reports:
            write_report(r, args.out, svg=args.svg)
    return reports


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.svg and args.out is None:
        print("chebsig: --svg writes files only with --out DIR", file=sys.stderr)
        return USAGE_ERROR
    seed = getattr(args, "seed", 0)
    run_all = args.command == "run-all"
    try:
        # run-all writes each experiment's reports as they finish, while
        # converge's forked child is still at work.
        reports = (exp.run_all(seed, lambda rs: _written(rs, args)) if run_all
                   else _written(exp.EXPERIMENTS[args.command].run(args), args))
    except OSError as e:
        print(f"chebsig: I/O error: {e}", file=sys.stderr)
        return IO_ERROR
    except ValueError as e:
        print(f"chebsig: {e}", file=sys.stderr)
        return USAGE_ERROR

    for r in reports:
        scalars = ", ".join(f"{k}={v:.6g}" for k, v in r.scalars.items())
        print(f"[{r.name}] {scalars}" if scalars else f"[{r.name}] done")

    if args.check:
        # run-all has just produced every deck; a single command reuses its own run.
        names = list(exp.EXPERIMENTS) if run_all else [args.command]
        deck = (reports if run_all else
                exp.EXPERIMENTS[args.command].run_deck(seed, done=(vars(args), reports)))
        by_name = {r.name: r for r in deck}
        results = [c.evaluate(by_name, seed) for n in names for c in exp.EXPERIMENTS[n].checks]
        for label, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  ({detail})" if detail else ""))
        failed = sum(not ok for _, ok, _ in results)
        if failed:
            print(f"chebsig: {failed} check(s) failed", file=sys.stderr)
            return CHECK_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
