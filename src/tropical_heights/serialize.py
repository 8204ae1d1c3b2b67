"""JSON wire formats.

All rationals travel as "p/q" strings (plain integers allowed on input).
Schemas:

* degeneration data: {"rank": g, "embedding_matrix": [[int]],
  "gram": [[int]], "linear_part": [int]}
* tropical theta: {"degeneration": {...}, "terms": [{"u": [int],
  "a": "p/q"}], "margin": int}
* curve: {"a1": "p/q", ..., "a6": "p/q"}; point: {"x": "p/q", "y": "p/q"}
* reports are plain dictionaries produced by the functions below.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import CurvePoint, WeierstrassCurve
from .degeneration import DegenerationData
from .errors import InputError
from .exact import exact_int, format_rational, parse_rational
from .tate import LocalHeightReport
from .tropical import TropicalTheta


def _int_matrix(obj, name):
    try:
        return [[exact_int(x, name) for x in row] for row in obj]
    except TypeError as exc:
        raise InputError(f"{name} must be an integer matrix") from exc


def degeneration_to_dict(data: DegenerationData) -> dict:
    return {
        "rank": data.rank,
        "embedding_matrix": [list(row) for row in data.embedding],
        "gram": [list(row) for row in data.gram],
        "linear_part": list(data.linear_part),
    }


def degeneration_from_dict(obj: dict) -> DegenerationData:
    try:
        rank = exact_int(obj["rank"], "rank")
        emb = _int_matrix(obj["embedding_matrix"], "embedding_matrix")
        gram = _int_matrix(obj["gram"], "gram")
        lin = [exact_int(x, "linear_part") for x in obj["linear_part"]]
    except KeyError as exc:
        raise InputError(f"missing field {exc} in degeneration data") from exc
    except (TypeError, ValueError) as exc:
        raise InputError("malformed degeneration data") from exc
    return DegenerationData(rank=rank, embedding=emb, gram=gram, linear_part=lin)


def theta_to_dict(theta: TropicalTheta) -> dict:
    return {
        "degeneration": degeneration_to_dict(theta.data),
        "terms": [
            {"u": list(u), "a": format_rational(a)}
            for u, a in sorted(theta.terms.items())
        ],
        "margin": theta.margin,
    }


def theta_from_dict(obj: dict) -> TropicalTheta:
    try:
        data = degeneration_from_dict(obj["degeneration"])
        terms = {}
        for item in obj["terms"]:
            u = tuple(exact_int(x, "u") for x in item["u"])
            if u in terms:
                raise InputError(f"duplicate Fourier index {u}")
            terms[u] = parse_rational(str(item["a"]))
        margin = exact_int(obj.get("margin", 1), "margin")
    except KeyError as exc:
        raise InputError(f"missing field {exc} in theta data") from exc
    except (TypeError, ValueError) as exc:
        raise InputError("malformed theta data") from exc
    return TropicalTheta(data=data, terms=terms, margin=margin)


def curve_to_dict(curve: WeierstrassCurve) -> dict:
    return {
        name: format_rational(getattr(curve, name))
        for name in ("a1", "a2", "a3", "a4", "a6")
    }


def curve_from_dict(obj: dict) -> WeierstrassCurve:
    try:
        coeffs = [parse_rational(str(obj[name])) for name in ("a1", "a2", "a3", "a4", "a6")]
    except KeyError as exc:
        raise InputError(f"missing curve coefficient {exc}") from exc
    return WeierstrassCurve.from_coeffs(*coeffs)


def point_to_dict(point: CurvePoint) -> dict:
    if point.infinity:
        return {"infinity": True}
    return {"x": format_rational(point.x), "y": format_rational(point.y)}


def point_from_dict(obj: dict) -> CurvePoint:
    if obj.get("infinity"):
        return CurvePoint.zero()
    try:
        return CurvePoint.affine(parse_rational(str(obj["x"])), parse_rational(str(obj["y"])))
    except KeyError as exc:
        raise InputError(f"missing point coordinate {exc}") from exc


def parse_vector(text: str) -> list:
    """Comma-separated rational coordinates."""
    return [parse_rational(part) for part in text.split(",") if part.strip()]


def local_report_to_dict(report: LocalHeightReport) -> dict:
    ell = report.reduction.multiplicity
    return {
        "prime": report.prime,
        "reduction": report.reduction.kind,
        "disc_valuation": ell,
        "intersection": format_rational(report.intersection),
        "component": format_rational(report.component),
        "lambda_v_units": format_rational(report.lambda_v),
        "lambda_real": report.real_value,
        "haar_integral_v_units": format_rational(Fraction(ell, 12)),
        "note": report.note,
    }
