"""Command-line interface.

Subcommands: trop-eval, theta-char, cvp, local-height, global-height,
verify.  Exit codes: 0 ok, 2 input error, 3 precondition violated (e.g.
additive place, precision exhausted), 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .curves import CurvePoint
from .errors import (
    InputError,
    InsufficientTermsError,
    NotPrincipallyPolarizedData,
    OnDivisorError,
    PrecisionError,
    PreconditionError,
)
from .exact import format_rational
from .heights import RunConfig, global_height
from .serialize import (
    curve_from_dict,
    degeneration_from_dict,
    local_report_to_dict,
    parse_vector,
    point_to_dict,
    theta_from_dict,
)
from .tate import local_height_report
from .tropical import (
    breakpoints,
    closest_lattice_vector,
    theta_characteristic,
)
from .verify import run_suite

_INPUT_ERRORS = (
    InputError,
    InsufficientTermsError,
    NotPrincipallyPolarizedData,
    OnDivisorError,
    json.JSONDecodeError,
    KeyError,
    ValueError,
    OSError,  # a missing or unreadable input file
)
_PRECONDITION_ERRORS = (PreconditionError, PrecisionError)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    elif fmt == "table":
        _emit_table(payload)
    elif "rows" in payload:
        csv.writer(sys.stdout).writerows([payload["columns"], *payload["rows"]])
    else:  # a nested cell is written as JSON, which a reader can load back
        cells = [json.dumps(v, default=str) if isinstance(v, (dict, list)) else v
                 for v in payload.values()]
        csv.writer(sys.stdout).writerows([payload.keys(), cells])


def _emit_table(payload: dict, indent=""):
    """One "key : value" line per entry.  A nonempty dict or list prints its
    items under its key, indented; a dict in a list is followed by a blank line."""
    width = max(len(key) for key in payload)
    for key, value in payload.items():
        if not (isinstance(value, (dict, list)) and value):
            print(f"{indent}{key.ljust(width)} : {value}")
            continue
        print(f"{indent}{key.ljust(width)} :")
        if isinstance(value, dict):
            _emit_table(value, indent + "  ")
            continue
        for item in value:
            if isinstance(item, dict):
                _emit_table(item, indent + "  ")
                print()
            else:
                print(f"{indent}  {item}")


def _collect_points(args) -> list:
    points = []
    if args.points:
        for chunk in args.points.split(";"):
            chunk = chunk.strip()
            if chunk:
                points.append(parse_vector(chunk))
    if args.points_file:
        with open(args.points_file, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    points.append(parse_vector(line))
    return points


def _parse_point(text: str) -> CurvePoint:
    coords = parse_vector(text)
    if len(coords) != 2:
        raise InputError("point must be 'x,y' with rational coordinates")
    return CurvePoint.affine(coords[0], coords[1])


# -- subcommand implementations ----------------------------------------------


def cmd_trop_eval(args) -> int:
    theta = theta_from_dict(_load_json(args.input))
    points = _collect_points(args)
    rows = []
    for nu in points:
        value = theta.value(nu)
        rows.append(
            [
                ";".join(format_rational(x) for x in nu),
                format_rational(value),
                format_rational(theta.normalized_value(nu)),
            ]
        )
    payload = {"columns": ["point", "value", "normalized_value"], "rows": rows}
    if args.breakpoints:
        payload["breakpoints"] = [format_rational(b) for b in breakpoints(theta)]
    fmt = "csv" if args.format == "table" else args.format
    _emit(payload, fmt)
    if args.breakpoints and fmt == "csv":
        print("breakpoints:", ",".join(payload["breakpoints"]))
    return 0


def cmd_theta_char(args) -> int:
    theta = theta_from_dict(_load_json(args.input))
    tc = theta_characteristic(theta)
    payload = {
        "k": [format_rational(x) for x in tc.shift],
        "kappa_mod_lattice": [format_rational(x) for x in tc.shift_mod_lattice],
        "r": format_rational(tc.constant),
        "r_base": format_rational(tc.base_constant),
    }
    _emit(payload, args.format)
    return 0


def cmd_cvp(args) -> int:
    data = degeneration_from_dict(_load_json(args.input))
    nu = parse_vector(args.point)
    # one search: the normalized theta is the half squared distance
    closest, half_dist = closest_lattice_vector(data, nu)
    payload = {
        "tropical_riemann_theta": format_rational(half_dist - data.inner_product(nu, nu) / 2),
        "normalized": format_rational(half_dist),
        "closest_lattice_vector": [format_rational(x) for x in closest],
        "half_squared_distance": format_rational(half_dist),
    }
    _emit(payload, args.format)
    return 0


def cmd_local_height(args) -> int:
    curve = curve_from_dict(_load_json(args.curve))
    point = _parse_point(args.point)
    report = local_height_report(curve, args.prime, point)
    _emit(local_report_to_dict(report), args.format)
    return 0


def cmd_global_height(args) -> int:
    curve = curve_from_dict(_load_json(args.curve))
    point = _parse_point(args.point)
    config = RunConfig(
        precision_bits=args.precision, n_max=args.nmax,
        tolerance=args.tolerance, seed=args.seed,
    )
    report = global_height(curve, point, config)
    payload = {
        "point": point_to_dict(point),
        "places": [local_report_to_dict(rep) for rep in report.local_reports],
        "archimedean": report.arch_value,
        "global_sum": report.global_sum,
        "doubling_oracle": report.oracle_value,
        "oracle_estimates": list(report.oracle_estimates),
        "discrepancy": report.discrepancy,
        "tolerance": config.tolerance,
        "checked_good_primes": list(report.checked_good_primes),
    }
    _emit(payload, args.format)
    return 0 if report.discrepancy < config.tolerance else 4


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    print(json.dumps(results, indent=2, default=str))
    if any(not r["passed"] for r in results):
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropical-heights",
        description=(
            "Exact tropical theta functions on degeneration skeleta and "
            "canonical local heights for elliptic curves over Q"
        ),
    )
    parser.add_argument("--format", choices=["json", "table", "csv"], default="table")
    defaults = RunConfig()
    parser.add_argument("--precision", type=int, default=defaults.precision_bits,
                        help="bits for archimedean work")
    parser.add_argument("--nmax", type=int, default=defaults.n_max,
                        help="doubling oracle iterations")
    parser.add_argument("--tolerance", type=float, default=defaults.tolerance)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trop-eval", help="evaluate a tropical theta function at points")
    p.add_argument("input", help="tropical theta JSON file")
    p.add_argument("--points", default="", help="semicolon-separated points, e.g. '1/2;3,4'")
    p.add_argument("--points-file", default=None)
    p.add_argument("--breakpoints", action="store_true", help="rank-1 breakpoint list")
    p.set_defaults(func=cmd_trop_eval)

    p = sub.add_parser("theta-char", help="tropical theta characteristic and offset")
    p.add_argument("input")
    p.set_defaults(func=cmd_theta_char)

    p = sub.add_parser("cvp", help="closest lattice vector / tropical Riemann theta")
    p.add_argument("input", help="degeneration data JSON file")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_cvp)

    p = sub.add_parser("local-height", help="normalized local height at a prime")
    p.add_argument("curve")
    p.add_argument("--point", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(func=cmd_local_height)

    p = sub.add_parser("global-height", help="global canonical height with oracle check")
    p.add_argument("curve")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_global_height)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="cvp | quantization | theta-char | trop-invariance | tate-dual-route | all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
