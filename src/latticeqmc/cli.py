"""Command-line front end.

Subcommands: points, wce, bound, cbc, experiment, verify-appendix.
Exit codes: 0 success, 1 failed verification, 2 precondition violation,
3 numerical/size guard tripped or an allocation refused (MemoryError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .cbc import CbcCriterion, cbc_fast
from .errors import DomainError, GuardError
from .experiments import PRESET_NAMES, _slope_fits, experiment_config, run_experiment
from .fourier import run_appendix_checks
from .kernels import KernelSpec
from .lattice import LatticeRule, _open_text, rank1_points, symmetrize, tent_transform
from .weights import WeightScheme, _MalformedWeights
from .worst_case_error import (
    corollary_bound,
    wce_sq_korobov_lattice,
    wce_sq_quadratic_form,
    wce_sym_exact,
)

WEIGHTS_HELP = "weights as JSON text, or the name of a JSON file"


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that it names twice."""
    if len({k for k, _ in pairs}) < len(pairs):
        raise DomainError(f"--weights names a key twice in one object: {[k for k, _ in pairs]}")
    return dict(pairs)


def _load_weights(arg: str) -> WeightScheme:
    """The weights in the JSON file named arg, or in arg itself as JSON text."""
    source = f"{arg!r}, which names no file,"
    if os.path.isfile(arg):
        source = f"file {arg!r}"
        with open(arg, "rb") as fh:
            arg = fh.read()
    try:
        data = json.loads(arg, object_pairs_hook=_unique_keys)
    except DomainError:  # a key named twice
        raise
    except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than int() reads
        raise DomainError(f"--weights {source} is not valid JSON: {exc}") from exc
    try:
        return WeightScheme.from_dict(data)
    except _MalformedWeights as exc:
        raise DomainError(f"--weights {source} has a malformed value: {exc}") from exc


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse {flag} {text!r} as comma-separated integers") from exc


def _write(out: str | None, write) -> None:
    """write(fh) to stdout (out None or "-") or to the file out, compressed by its suffix as
    `PointSet.to_csv` compresses; a file that cannot be written is a precondition violation."""
    if out in (None, "-"):
        write(sys.stdout)
        return
    try:
        with _open_text(out) as fh:
            write(fh)
    except OSError as exc:
        raise DomainError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    _write(out, lambda fh: fh.write(text if text.endswith("\n") else text + "\n"))


def _cmd_points(args) -> int:
    rule = LatticeRule(N=args.n, z=_parse_ints(args.z, "--z"))
    ps = rank1_points(rule)
    if args.transform == "tent":
        ps = tent_transform(ps)
    elif args.transform == "sym":
        ps = symmetrize(ps)
    if args.format == "json":
        _emit(ps.to_json(), args.out)
    else:
        _write(args.out, ps.to_csv)
    return 0


def _cmd_wce(args) -> int:
    rule = LatticeRule(N=args.n, z=_parse_ints(args.z, "--z"))
    weights = _load_weights(args.weights)
    if args.space == "korobov":
        report = wce_sq_korobov_lattice(args.alpha if args.alpha is not None else 1, weights, rule)
    elif args.space == "sob2-tent":
        CbcCriterion("tent", weights, args.alpha)  # the tent results hold at alpha = 2 only
        spec = KernelSpec(family="sobolev", alpha=2, weights=weights)
        report = wce_sq_quadratic_form(spec, tent_transform(rank1_points(rule)))
    else:  # sym; argparse restricts --space to the three
        report = wce_sym_exact(args.alpha if args.alpha is not None else 2, weights, rule)
    payload = report.to_dict()
    payload.update({"space": args.space, "n": args.n, "z": list(rule.z), "root": report.root})
    _emit(json.dumps(payload), args.out)
    print(f"squared worst-case error: {report.value:.12e}  (root {report.root:.12e})",
          file=sys.stderr)
    return 0


def _cmd_bound(args) -> int:
    weights = _load_weights(args.weights)
    report = corollary_bound(args.kind, weights, args.n, args.lam, alpha=args.alpha)
    payload = report.to_dict()
    payload.update({"bound_kind": args.kind, "n": args.n, "root": report.root})
    _emit(json.dumps(payload), None)
    return 0


def _cmd_cbc(args) -> int:
    weights = _load_weights(args.weights)
    crit = CbcCriterion(kind=args.criterion, base_weights=weights, alpha=args.alpha)
    result = cbc_fast(args.n, args.dims, crit)
    _emit(json.dumps(result.to_dict()), args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = experiment_config(args.name)
    if args.n_list:
        cfg = replace(cfg, N_list=_parse_ints(args.n_list, "--n-list"))
    external = None
    if args.external_points:
        try:
            external = np.loadtxt(args.external_points, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read --external-points {args.external_points!r}: "
                              f"{exc}") from exc
    result = run_experiment(cfg, external_points=external)
    _emit(result.to_csv_text(), args.out)
    for rule_name, fit in _slope_fits(result).items():
        text = f"none, {fit}" if isinstance(fit, DomainError) else f"{fit:+.3f}"
        print(f"fitted slope ({rule_name}): {text}", file=sys.stderr)
    return 0


def _cmd_verify_appendix(args) -> int:
    rows = run_appendix_checks()
    width = max(len(name) for name, _, _ in rows)
    ok_all = True
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        ok_all &= ok
        print(f"{name:<{width}}  {status}  {detail}")
    return 0 if ok_all else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeqmc",
        description="rank-1 lattice rules, worst-case errors, and CBC construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", help="export a (transformed) lattice point set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=str, required=True, help="comma-separated generating vector")
    p.add_argument("--transform", choices=["none", "tent", "sym"], default="none")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("wce", help="squared worst-case error of a rule")
    p.add_argument("--space", choices=["korobov", "sob2-tent", "sym"], required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=str, required=True)
    p.add_argument("--weights", type=str, required=True, help=WEIGHTS_HELP)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_wce)

    p = sub.add_parser("bound", help="prime-N construction bound at a given lambda")
    p.add_argument("--kind", choices=["tent", "sym"], required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--weights", type=str, required=True, help=WEIGHTS_HELP)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("cbc", help="component-by-component construction "
                       "(FFT sweep for prime N, the O(N^2 s) plain sweep otherwise)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--criterion", choices=["tent", "sym"], required=True)
    p.add_argument("--alpha", type=float, default=None, help="even smoothness for --criterion sym")
    p.add_argument("--weights", type=str, required=True, help=WEIGHTS_HELP)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_cbc)

    p = sub.add_parser("experiment", help="run a named convergence experiment")
    p.add_argument("--name", choices=list(PRESET_NAMES), required=True)
    p.add_argument("--external-points", type=str, default=None,
                   help="CSV of competitor points; first N rows serve each N")
    p.add_argument("--n-list", type=str, default=None, help="override the N grid")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify-appendix", help="run the coefficient-identity checks")
    p.set_defaults(func=_cmd_verify_appendix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GuardError, MemoryError) as exc:  # MemoryError: numpy refused an allocation
        print(f"guard: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
