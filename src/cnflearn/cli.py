"""Command-line front end: synthetic runs, dataset runs, oracle checks, bound tables."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core import BoundViolation, NumericalError
from .harness import (
    ALGORITHMS,
    REDUCTIONS,
    DatasetConfig,
    SyntheticConfig,
    emit_report,
    run_bounds_table,
    run_dataset,
    run_oracle_checks,
    run_synthetic,
)


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _add_reduction_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--reduction", choices=REDUCTIONS, default="none")
    parser.add_argument("--k", type=int, default=None, help="clause width (kcnf only)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnflearn",
        description="Online log-loss prediction of conjunctions and k-CNF targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synthetic", help="seeded trials on sampled targets")
    synth.add_argument("--algo", choices=sorted(ALGORITHMS), required=True)
    synth.add_argument("--d", type=int, required=True)
    synth.add_argument("--n", type=int, default=8192)
    synth.add_argument("--repeats", type=int, default=1)
    synth.add_argument("--seed", type=int, default=0)
    _add_reduction_flags(synth)
    _add_output_flags(synth)

    data = sub.add_parser("dataset", help="online run over a delimited file")
    data.add_argument("--path", required=True)
    data.add_argument("--label-column", required=True)
    data.add_argument("--positive-label", required=True)
    data.add_argument("--shuffle-seed", type=int, default=None)
    data.add_argument("--algo", choices=sorted(ALGORITHMS), required=True)
    _add_reduction_flags(data)
    _add_output_flags(data)

    oracle = sub.add_parser("oracle-check", help="run the counting identity suites")
    oracle.add_argument("--d", type=int, default=10)
    oracle.add_argument("--trials", type=int, default=100)
    oracle.add_argument("--seed", type=int, default=0)

    bounds = sub.add_parser("bounds-table", help="empirical max loss vs guarantees")
    bounds.add_argument("--d-list", required=True, help="comma-separated dimensions")
    bounds.add_argument("--n", type=int, default=8192)
    bounds.add_argument("--repeats", type=int, default=1000)
    bounds.add_argument("--seed", type=int, default=0)
    bounds.add_argument("--out", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synthetic":
            report = run_synthetic(
                SyntheticConfig(
                    algorithm=args.algo,
                    d=args.d,
                    n=args.n,
                    repeats=args.repeats,
                    seed=args.seed,
                    reduction=args.reduction,
                    k=args.k,
                )
            )
            _write(emit_report(report, args.format), args.out)
            return 0
        if args.command == "dataset":
            report = run_dataset(
                DatasetConfig(
                    path=args.path,
                    label_column=args.label_column,
                    positive_label=args.positive_label,
                    shuffle_seed=args.shuffle_seed,
                ),
                algorithm=args.algo,
                reduction=args.reduction,
                k=args.k,
            )
            _write(emit_report(report, args.format), args.out)
            return 0
        if args.command == "oracle-check":
            results = run_oracle_checks(args.d, args.trials, args.seed)
            failed = 0
            for result in results:
                status = "PASS" if result.passed else "FAIL"
                failed += not result.passed
                sys.stdout.write(f"{status} {result.name}: {result.detail}\n")
            return 1 if failed else 0
        d_list = [int(part) for part in args.d_list.split(",") if part.strip()]
        if not d_list:
            raise ValueError("--d-list must contain at least one dimension")
        _, table = run_bounds_table(d_list, args.n, args.repeats, args.seed)
        _write(table, args.out)
        return 0
    except BoundViolation as exc:
        sys.stderr.write(f"bound violation: {exc}\n")
        return 3
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 4
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
