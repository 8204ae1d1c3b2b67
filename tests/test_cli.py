import csv
import json
import re
from fractions import Fraction as F

import pytest

from conftest import rank1_tate_data
from tropical_heights.cli import build_parser, main
from tropical_heights.errors import InputError
from tropical_heights.heights import RunConfig
from tropical_heights.serialize import (
    curve_from_dict,
    curve_to_dict,
    degeneration_from_dict,
    degeneration_to_dict,
    point_from_dict,
    point_to_dict,
    theta_from_dict,
    theta_to_dict,
)
from tropical_heights.curves import CurvePoint, WeierstrassCurve
from tropical_heights.degeneration import DegenerationData
from tropical_heights.tropical import generate_theta_terms


@pytest.fixture()
def theta_file(tmp_path):
    theta = generate_theta_terms(rank1_tate_data(5))
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta_to_dict(theta)))
    return str(path)


@pytest.fixture()
def curve_file(tmp_path):
    curve = WeierstrassCurve.from_coeffs(0, 0, 1, -1, 0)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve_to_dict(curve)))
    return str(path)


def test_serialize_roundtrips():
    theta = generate_theta_terms(rank1_tate_data(3))
    assert theta_from_dict(theta_to_dict(theta)).terms == theta.terms
    data = rank1_tate_data(4)
    assert degeneration_from_dict(degeneration_to_dict(data)) == data
    curve = WeierstrassCurve.from_coeffs(1, 0, 1, F(-1, 2), 3)
    assert curve_from_dict(curve_to_dict(curve)) == curve
    point = CurvePoint.affine(F(1, 4), F(-5, 8))
    assert point_from_dict(point_to_dict(point)) == point
    assert point_from_dict(point_to_dict(CurvePoint.zero())).infinity


def test_trop_eval_csv(theta_file, capsys):
    code = main(["trop-eval", theta_file, "--points", "0;1;2;3;4"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0].startswith("point,")
    values = [line.split(",")[2] for line in out[1:]]
    assert values == ["0", "-2/5", "-3/5", "-3/5", "-2/5"]


def test_trop_eval_empty_points_gives_header(theta_file, capsys):
    code = main(["trop-eval", theta_file])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out == ["point,value,normalized_value"]


def test_trop_eval_points_file(theta_file, tmp_path, capsys):
    pts = tmp_path / "points.txt"
    pts.write_text("1\n3\n")
    code = main(["trop-eval", theta_file, "--points-file", str(pts)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert [line.split(",")[2] for line in out[1:]] == ["-2/5", "-3/5"]


def test_trop_eval_breakpoints(theta_file, capsys):
    code = main(["trop-eval", theta_file, "--points", "0", "--breakpoints"])
    out = capsys.readouterr().out
    assert code == 0
    assert "breakpoints: -5,0,5,10" in out.splitlines()


def test_trop_eval_breakpoints_json(theta_file, capsys):
    code = main(["--format", "json", "trop-eval", theta_file, "--points", "0", "--breakpoints"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["rows"] == [["0", "0", "0"]]
    assert payload["breakpoints"] == ["-5", "0", "5", "10"]


def test_trop_eval_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["trop-eval", str(bad), "--points", "0"]) == 2


def test_trop_eval_missing_file():
    assert main(["trop-eval", "/nonexistent/theta.json", "--points", "0"]) == 2


def test_trop_eval_duplicate_fourier_index(theta_file, tmp_path, capsys):
    payload = json.loads(open(theta_file).read())
    payload["terms"] = [{"u": [0], "a": "0"}, {"u": [0], "a": "-7"}]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(payload))
    assert main(["trop-eval", str(path), "--points", "0"]) == 2
    assert main(["theta-char", str(path)]) == 2
    assert "duplicate Fourier index (0,)" in capsys.readouterr().err


def test_trop_eval_fractional_gram_entry(theta_file, tmp_path, capsys):
    payload = json.loads(open(theta_file).read())
    payload["degeneration"]["gram"] = [[5.7]]
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(payload))
    assert main(["trop-eval", str(path), "--points", "0"]) == 2
    assert "gram must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["rank", "u", "margin"])
def test_json_booleans_are_not_integers(field, theta_file, tmp_path, capsys):
    # true would load as 1: rank 1, index (1,) and margin 1 are all valid
    payload = json.loads(open(theta_file).read())
    if field == "rank":
        payload["degeneration"]["rank"] = True
    elif field == "u":
        (term,) = [t for t in payload["terms"] if t["u"] == [1]]
        term["u"] = [True]
    else:
        payload["margin"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    assert main(["trop-eval", str(path), "--points", "0"]) == 2
    assert f"{field} must be an integer, not True" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("rank", 1.5), ("embedding_matrix", [[-5.9]]), ("linear_part", [-5.9]),
])
def test_degeneration_integer_fields_are_not_truncated(field, value):
    obj = degeneration_to_dict(rank1_tate_data(5))
    assert degeneration_from_dict(obj) == rank1_tate_data(5)
    obj[field] = value
    with pytest.raises(InputError, match=f"{field} must be an integer"):
        degeneration_from_dict(obj)


def test_theta_integer_fields_are_not_truncated():
    obj = theta_to_dict(generate_theta_terms(rank1_tate_data(5)))
    obj["margin"] = 2.0
    assert theta_from_dict(obj).margin == 2
    obj["margin"] = 2.5
    with pytest.raises(InputError, match="margin must be an integer"):
        theta_from_dict(obj)
    obj["margin"] = 2
    obj["terms"][0]["u"] = ["1/2"]
    with pytest.raises(InputError, match="u must be an integer"):
        theta_from_dict(obj)


def test_theta_char_output(theta_file, capsys):
    code = main(["--format", "json", "theta-char", theta_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == ["-5/2"]
    assert payload["kappa_mod_lattice"] == ["5/2"]
    assert payload["r"] == "-5/8"


def test_theta_char_non_principal(tmp_path, capsys):
    from tropical_heights.degeneration import DegenerationData

    data = DegenerationData(rank=1, embedding=[[1]], gram=[[2]], linear_part=[0])
    theta = generate_theta_terms(data)
    path = tmp_path / "np.json"
    path.write_text(json.dumps(theta_to_dict(theta)))
    assert main(["theta-char", str(path)]) == 2


def test_cvp_command(tmp_path, capsys):
    from tropical_heights.serialize import degeneration_to_dict

    path = tmp_path / "data.json"
    path.write_text(json.dumps(degeneration_to_dict(rank1_tate_data(1))))
    code = main(["--format", "json", "cvp", str(path), "--point", "3/4"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tropical_riemann_theta"] == "-1/4"
    assert payload["normalized"] == "1/32"


@pytest.mark.parametrize("point", ["1/2", "1/2,0,1"])
def test_point_of_the_wrong_length_exits_2(point, tmp_path, capsys):
    data = DegenerationData(
        rank=2, embedding=[[1, 0], [0, 1]], gram=[[2, 1], [1, 2]], linear_part=[0, 0]
    )
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(degeneration_to_dict(data)))
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(theta_to_dict(generate_theta_terms(data))))
    assert main(["cvp", str(data_path), "--point", point]) == 2
    assert main(["trop-eval", str(theta_path), "--points", f"0,0;{point}"]) == 2
    assert "coordinates" in capsys.readouterr().err


def test_local_height_command(curve_file, capsys):
    code = main(["--format", "json", "local-height", curve_file,
                 "--point", "0,0", "--prime", "37"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduction"] == "nonsplit multiplicative"
    assert payload["lambda_v_units"] == "1/12"
    assert payload["haar_integral_v_units"] == "1/12"


def test_local_height_additive_exit_code(tmp_path, capsys):
    curve = WeierstrassCurve.from_coeffs(0, 0, 0, 0, 1)
    path = tmp_path / "add.json"
    path.write_text(json.dumps(curve_to_dict(curve)))
    assert main(["local-height", str(path), "--point", "0,1", "--prime", "2"]) == 3


@pytest.mark.parametrize("prime", ["35", "1", "0", "-37"])
def test_local_height_refuses_a_non_prime(prime, curve_file, capsys):
    assert main(["local-height", curve_file, "--point", "0,0", "--prime", prime]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{prime} is not prime" in captured.err


def test_global_height_command(curve_file, capsys):
    code = main(["--format", "json", "global-height", curve_file, "--point", "0,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["discrepancy"] < 1e-6
    assert payload["places"][0]["prime"] == 37


def test_global_height_prints_oracle_estimates(curve_file, capsys):
    code = main(["--format", "json", "--nmax", "12", "global-height", curve_file,
                 "--point", "0,0"])
    assert code == 0
    estimates = json.loads(capsys.readouterr().out)["oracle_estimates"]
    assert len(estimates) == 12
    assert abs(estimates[-1] - estimates[-2]) < 1e-3


def test_global_height_of_a_torsion_point_prints_no_estimates(tmp_path, capsys):
    """(5, 5) has order 5 on 11a: the oracle decides it by torsion_order
    and doubles nothing, so its value is 0.0 with no estimates."""
    path = tmp_path / "11a.json"
    path.write_text(json.dumps(curve_to_dict(WeierstrassCurve.from_coeffs(0, -1, 1, -10, -20))))
    code = main(["--format", "json", "global-height", str(path), "--point", "5,5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["doubling_oracle"] == 0.0
    assert payload["oracle_estimates"] == []


def test_run_options_default_to_run_config():
    args = build_parser().parse_args(["verify", "all"])
    defaults = RunConfig()
    assert (args.precision, args.nmax, args.tolerance, args.seed) == (
        defaults.precision_bits, defaults.n_max, defaults.tolerance, defaults.seed)


def test_global_height_tolerance_from_config(curve_file, capsys):
    code = main(["--format", "json", "--tolerance", "1e-30", "global-height",
                 curve_file, "--point", "0,0"])
    assert code == 4
    out = capsys.readouterr().out
    assert '"tolerance": 1e-30' in out
    assert json.loads(out)["discrepancy"] >= 1e-30


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_global_height_refuses_non_finite_tolerance(value, curve_file, capsys):
    code = main(["--format", "json", "--tolerance", value, "global-height",
                 curve_file, "--point", "0,0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RunConfig.tolerance" in captured.err


def test_global_height_error_names_the_field(curve_file, capsys):
    assert main(["--precision", "40", "global-height", curve_file, "--point", "0,0"]) == 2
    assert "RunConfig.precision_bits = 40 must be at least 53" in capsys.readouterr().err


def test_verify_command(capsys):
    assert main(["--seed", "1", "verify", "cvp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["passed"] is True


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_tate_dual_route_command(seed, capsys):
    # the suite's z = 1 + p^k cases put the point near the origin (e > 0)
    assert main(["--seed", str(seed), "verify", "tate-dual-route"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["passed"] is True


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope"]) == 2


def test_deterministic_output(theta_file, capsys):
    main(["trop-eval", theta_file, "--points", "1/3;5/7"])
    first = capsys.readouterr().out
    main(["trop-eval", theta_file, "--points", "1/3;5/7"])
    second = capsys.readouterr().out
    assert first == second


# rank 3 with det M = 80: every command below runs through M^{-1}, H = F M^{-1}
# and the automorphy factor off the identity embedding
SKEWED_RANK3 = DegenerationData(
    rank=3,
    embedding=[[2, -3, 0], [-2, 5, 4], [-4, -1, 6]],
    gram=[[6, -2, -6], [-2, 5, 4], [-6, 4, 10]],
    linear_part=[-4, 3, -2],
)

# (point, tropical Riemann theta, normalized, closest lattice vector,
# half squared distance); none of these points is equidistant from two
# lattice vectors
SKEWED_CVP = [
    ("5/2,-13/3,3/4", "-11/6", "133/2880", ["3", "-5", "1"], "133/2880"),
    ("0,0,0", "0", "0", ["0", "0", "0"], "0"),
    ("3,-1,2", "-1/2", "1/2", ["5", "-3", "3"], "1/2"),
    ("11/3,-7/2,5/4", "-7/6", "277/576", ["5", "-3", "3"], "277/576"),
]


@pytest.mark.parametrize("point, concave, normalized, closest, half", SKEWED_CVP)
def test_cvp_command_off_the_identity_embedding(
    point, concave, normalized, closest, half, tmp_path, capsys
):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(degeneration_to_dict(SKEWED_RANK3)))
    assert main(["--format", "json", "cvp", str(path), "--point", point]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "tropical_riemann_theta": concave,
        "normalized": normalized,
        "closest_lattice_vector": closest,
        "half_squared_distance": half,
    }


def test_cvp_command_makes_one_search_per_query(tmp_path, capsys, monkeypatch):
    from tropical_heights import tropical

    searches = []
    search = tropical.closest_lattice_point
    monkeypatch.setattr(tropical, "closest_lattice_point",
                        lambda *args: searches.append(args) or search(*args))
    path = tmp_path / "data.json"
    path.write_text(json.dumps(degeneration_to_dict(SKEWED_RANK3)))
    for point in ("0,0,0", "11/3,-7/2,5/4"):
        assert main(["--format", "json", "cvp", str(path), "--point", point]) == 0
    capsys.readouterr()
    assert len(searches) == 2


def test_trop_eval_off_the_identity_embedding(tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta_to_dict(generate_theta_terms(SKEWED_RANK3))))
    points = "0,0,0;3,-1,2;5/2,-13/3,3/4;-1/6,4/5,9/7"
    assert main(["--format", "json", "trop-eval", str(path), "--points", points]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [
        ["0;0;0", "-2", "-2"],
        ["3;-1;2", "0", "-2"],
        ["5/2;-13/3;3/4", "-17/6", "-6179/2880"],
        ["-1/6;4/5;9/7", "-13/6", "-6816703/3528000"],
    ]


# The default table and --format csv, line by line.  A nested dict or list
# prints its items indented under its key, a dict in a list is followed by a
# blank line, and an empty list prints as [] on its key's line.
GOLDEN_EXACT = [
    ("table", ["theta-char", "theta"], [
        "k                 :",
        "  -5/2",
        "kappa_mod_lattice :",
        "  5/2",
        "r                 : -5/8",
        "r_base            : 0",
    ]),
    ("csv", ["theta-char", "theta"], [
        "k,kappa_mod_lattice,r,r_base",
        '"[""-5/2""]","[""5/2""]",-5/8,0',
    ]),
    ("table", ["cvp", "data", "--point", "3/4"], [
        "tropical_riemann_theta : -1/4",
        "normalized             : 1/32",
        "closest_lattice_vector :",
        "  1",
        "half_squared_distance  : 1/32",
    ]),
    ("csv", ["cvp", "data", "--point", "3/4"], [
        "tropical_riemann_theta,normalized,closest_lattice_vector,half_squared_distance",
        '-1/4,1/32,"[""1""]",1/32',
    ]),
    ("table", ["local-height", "37a", "--point", "0,0", "--prime", "37"], [
        "prime                 : 37",
        "reduction             : nonsplit multiplicative",
        "disc_valuation        : 1",
        "intersection          : 0",
        "component             : 0",
        "lambda_v_units        : 1/12",
        "lambda_real           : 0.3009098260536853",
        "haar_integral_v_units : 1/12",
        "note                  : via unramified quadratic extension",
    ]),
    ("csv", ["local-height", "37a", "--point", "0,0", "--prime", "37"], [
        "prime,reduction,disc_valuation,intersection,component,lambda_v_units,"
        "lambda_real,haar_integral_v_units,note",
        "37,nonsplit multiplicative,1,0,0,1/12,0.3009098260536853,1/12,"
        "via unramified quadratic extension",
    ]),
]

# global-height tables with every float masked, so that the real place's
# last bits may move: (0, 0) on 37a has the bad place 37, and (5, 5) on 11a
# is a torsion point, whose oracle doubles nothing
GOLDEN_MASKED = [
    (["global-height", "37a", "--point", "0,0"], [
        "point               :",
        "  x : 0",
        "  y : 0",
        "places              :",
        "  prime                 : 37",
        "  reduction             : nonsplit multiplicative",
        "  disc_valuation        : 1",
        "  intersection          : 0",
        "  component             : 0",
        "  lambda_v_units        : 1/12",
        "  lambda_real           : <float>",
        "  haar_integral_v_units : 1/12",
        "  note                  : via unramified quadratic extension",
        "",
        "archimedean         : <float>",
        "global_sum          : <float>",
        "doubling_oracle     : <float>",
        "oracle_estimates    :",
        *["  <float>"] * 10,
        "discrepancy         : <float>",
        "tolerance           : 1e-06",
        "checked_good_primes :",
        "  17",
        "  43",
        "  2",
        "  11",
        "  23",
    ]),
    (["global-height", "11a", "--point", "5,5"], [
        "point               :",
        "  x : 5",
        "  y : 5",
        "places              :",
        "  prime                 : 11",
        "  reduction             : split multiplicative",
        "  disc_valuation        : 5",
        "  intersection          : 0",
        "  component             : 1",
        "  lambda_v_units        : 1/60",
        "  lambda_real           : <float>",
        "  haar_integral_v_units : 5/12",
        "  note                  : ",
        "",
        "archimedean         : <float>",
        "global_sum          : <float>",
        "doubling_oracle     : <float>",
        "oracle_estimates    : []",
        "discrepancy         : <float>",
        "tolerance           : 1e-06",
        "checked_good_primes :",
        "  19",
        "  43",
        "  2",
        "  13",
        "  29",
    ]),
]


@pytest.fixture()
def golden_files(tmp_path):
    objects = {
        "theta": theta_to_dict(generate_theta_terms(rank1_tate_data(5))),
        "data": degeneration_to_dict(rank1_tate_data(1)),
        "37a": curve_to_dict(WeierstrassCurve.from_coeffs(0, 0, 1, -1, 0)),
        "11a": curve_to_dict(WeierstrassCurve.from_coeffs(0, -1, 1, -10, -20)),
    }
    for name, obj in objects.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    return {name: str(tmp_path / f"{name}.json") for name in objects}


def _printed(golden_files, capsys, fmt, argv):
    argv = [argv[0], golden_files[argv[1]], *argv[2:]]
    assert main(["--format", fmt, *argv]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("fmt, argv, lines", GOLDEN_EXACT)
def test_table_and_csv_output_is_pinned(fmt, argv, lines, golden_files, capsys):
    assert _printed(golden_files, capsys, fmt, argv) == lines


@pytest.mark.parametrize("argv", [
    ["theta-char", "theta"],
    ["cvp", "data", "--point", "3/4"],
    ["global-height", "37a", "--point", "0,0"],
], ids=["theta-char", "cvp", "global-height"])
def test_csv_nested_cells_load_back_as_the_json_payload(argv, golden_files, capsys):
    """A dict or list cell of --format csv is JSON: csv.reader and json.loads
    of each nested cell give back the --format json payload."""
    payload = json.loads("\n".join(_printed(golden_files, capsys, "json", argv)))
    keys, cells = csv.reader(_printed(golden_files, capsys, "csv", argv))
    nested = {key for key, value in payload.items() if isinstance(value, (dict, list))}
    assert nested
    assert {key: json.loads(cell) if key in nested else cell for key, cell in zip(keys, cells)} == {
        key: value if key in nested else str(value) for key, value in payload.items()}


@pytest.mark.parametrize("argv, lines", GOLDEN_MASKED)
def test_global_height_table_is_pinned_up_to_floats(argv, lines, golden_files, capsys):
    printed = _printed(golden_files, capsys, "table", argv)
    assert [re.sub(r"-?\d+\.\d+(e-?\d+)?", "<float>", line) for line in printed] == lines


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_all_runs_every_suite(seed, capsys):
    assert main(["--seed", str(seed), "verify", "all"]) == 0
    results = json.loads(capsys.readouterr().out)
    assert [(r["suite"], r["cases"], r["passed"]) for r in results] == [
        ("cvp", 100, True), ("quantization", 20, True), ("theta-char", 20, True),
        ("trop-invariance", 70, True), ("tate-dual-route", 20, True)]
