"""Command-line behaviour: parsing, config, exit codes, determinism."""

import json
from fractions import Fraction

import pytest

from egdeform import combinatorics, shell, wick
from egdeform.distributions import (
    HomogeneousPower,
    LinearCombination,
    MollifiedDelta,
    PropagatorProduct,
)
from egdeform.shell import (
    EXIT_INVARIANT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    SessionConfig,
    UsageError,
    format_kernel,
    load_config,
    main,
    parse_kernel,
)

LEVEL1_POINT = (
    '[{"J": [4, 4], "I": [1, 2], "alpha": [0, 0, 0, 0],'
    ' "coeff_num": 1, "coeff_den": 1}]'
)
LEVEL2_POINT = (
    '[{"J": [4, 4, 4], "I": [1, 2, 3], "alpha": [0, 0, 0, 0, 0, 0, 0, 0],'
    ' "coeff_num": 1, "coeff_den": 1}]'
)
DIST_FILE = {
    "label": [4, 4],
    "terms": [{"I": [1, 2], "alpha": [0, 0, 0, 0], "coeff_num": 3, "coeff_den": 4}],
}


# ---------------------------------------------------------------------------
# Kernel mini-language
# ---------------------------------------------------------------------------


def test_parse_homogeneous_power():
    kernel = parse_kernel("|x|^-1 in R^3")
    assert isinstance(kernel, HomogeneousPower)
    assert kernel.exponent == 1  # stored as |x|^(-exponent)
    assert kernel.ambient == 3
    assert parse_kernel("|x|^1/2 in R^2").exponent == Fraction(-1, 2)


def test_parse_delta():
    kernel = parse_kernel("delta in R^2", default_width=1e-3)
    assert isinstance(kernel, MollifiedDelta)
    assert kernel.alpha.components == (0, 0)
    assert kernel.width == 1e-3
    rich = parse_kernel("delta in R^2 alpha=(1,0) eps=1e-2")
    assert rich.alpha.components == (1, 0)
    assert rich.width == 1e-2


@pytest.mark.parametrize(
    "text, column, fragment",
    [
        ("", 1, "empty kernel spec"),
        ("|x|^z in R^3", 5, "bad exponent"),
        ("|x|^-1", 7, "expected 'in'"),
        ("|x|^-1 on R^3", 8, "expected 'in'"),
        ("|x|^-1 in Q^3", 11, "expected R^<dim>"),
        ("|x|^-1 in R^x", 13, "bad dimension"),
        ("|x|^-1 in R^0", 13, "dimension must be >= 1"),
        ("|x|^-1 in R^3 extra", 15, "unexpected token"),
        ("delta in R^2 alpha=(a)", 14, "bad alpha"),
        ("delta in R^2 eps=-1", 14, "eps must be positive"),
        ("delta in R^2 junk", 14, "unexpected token"),
        ("delta in R^2 alpha=(1,0,0)", 14, "3 components"),
        ("foo in R^2", 1, "unknown kernel head"),
    ],
)
def test_parse_kernel_errors_carry_columns(text, column, fragment):
    with pytest.raises(UsageError) as err:
        parse_kernel(text)
    message = str(err.value)
    assert f"line 1, column {column}:" in message
    assert fragment in message


def test_format_kernel_round_trips_through_the_parser():
    for text in ("|x|^-1 in R^3", "|x|^2 in R^2", "delta in R^2 alpha=(1,0) eps=0.01"):
        kernel = parse_kernel(text)
        assert parse_kernel(format_kernel(kernel)) == kernel


def test_format_kernel_products_and_sums():
    prod = PropagatorProduct(n_points=3, d=4, edges=(((1, 2), 2), ((2, 3), 1)))
    assert format_kernel(prod) == "G(1,2)^2 G(2,3)"
    assert format_kernel(PropagatorProduct(n_points=2, d=4, edges=())) == "1"
    combo = LinearCombination(
        terms=(
            (Fraction(1), HomogeneousPower(exponent=1, ambient=2)),
            (Fraction(3, 2), HomogeneousPower(exponent=-2, ambient=2)),
        )
    )
    assert format_kernel(combo) == "|x|^-1 in R^2 + 3/2 |x|^2 in R^2"


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def test_default_session_config():
    cfg = SessionConfig()
    assert (cfg.d, cfg.p, cfg.n_max) == (4, 4, 4)
    assert cfg.bound_policy == "paper-literal"
    assert cfg.seed == 7
    assert cfg.lam_samples == (Fraction(1, 2), Fraction(3), Fraction(5, 7))
    theory = cfg.theory()
    assert theory.d == 4 and theory.bound_policy == "paper-literal"
    assert load_config(None) == cfg


def test_load_config_full(tmp_path):
    path = tmp_path / "session.ini"
    path.write_text(
        "[theory]\n"
        "d = 2\n"
        "p = 3\n"
        "n_max = 5\n"
        "bound_policy = codim-corrected\n"
        "strict_min_points = true\n"
        "uniform_sd_bound = 7/2\n"
        "[quadrature]\n"
        "resolution = 48\n"
        "half_width = 2.5\n"
        "mollifier_width = 1e-4\n"
        "lam_min = 0.25\n"
        "lam_count = 8\n"
        "[group]\n"
        "truncation = 5\n"
        "n_points = 4\n"
        "lambda_samples = 1/3, 2, 9/5\n"
        "seed = 13\n"
        "trials = 6\n"
        "[wick]\n"
        "trials = 9\n"
        "max_points = 3\n"
        "max_power = 2\n"
        "[sd_bounds]\n"
        "2,2 = 2\n"
        "1,1 = -1/2\n"
    )
    cfg = load_config(str(path))
    assert cfg.d == 2 and cfg.p == 3 and cfg.n_max == 5
    assert cfg.bound_policy == "codim-corrected"
    assert cfg.strict_min_points is True
    assert cfg.uniform_sd_bound == Fraction(7, 2)
    assert cfg.resolution == 48 and cfg.half_width == 2.5
    assert cfg.mollifier_width == 1e-4
    assert (cfg.lam_min, cfg.lam_count) == (0.25, 8)
    assert cfg.truncation == 5 and cfg.n_points == 4
    assert cfg.lam_samples == (Fraction(1, 3), Fraction(2), Fraction(9, 5))
    assert cfg.seed == 13 and cfg.trials == 6
    assert (cfg.wick_trials, cfg.wick_max_points, cfg.wick_max_power) == (9, 3, 2)
    assert cfg.sd_bounds == (
        ((1, 1), Fraction(-1, 2)),
        ((2, 2), Fraction(2)),
    )
    theory = cfg.theory()
    assert theory.sd_bound((2, 2)) == 2


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[mystery]\nx = 1\n", "unknown section"),
        ("[theory]\nflavor = up\n", "unknown key"),
        ("[theory]\nd = two\n", "invalid literal"),
        ("[sd_bounds]\nnot-a-label = 1\n", "bad sd_bounds label"),
        ("[group]\nlambda_samples = 1/0\n", "not a rational"),
    ],
)
def test_load_config_rejects_unknown_entries(tmp_path, body, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(UsageError) as err:
        load_config(str(path))
    assert fragment in str(err.value)


def test_load_config_missing_file():
    with pytest.raises(UsageError):
        load_config("/nonexistent/nowhere.ini")


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_sdeg_exits_zero_and_reports(tmp_path):
    out = tmp_path / "sdeg.json"
    assert main(["sdeg", "|x|^-1 in R^1", "--json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["symbolic"] == {"num": 1, "den": 1}
    assert abs(payload["numeric"] - 1.0) < 1e-6
    assert abs(payload["difference"]) < 1e-6


def test_sdeg_delta_numeric(tmp_path):
    out = tmp_path / "delta.json"
    assert main(["sdeg", "delta in R^1", "--json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["symbolic"] == {"num": 1, "den": 1}
    assert abs(payload["numeric"] - 1.0) < 0.15


def test_malformed_kernel_is_a_usage_error(capsys):
    assert main(["sdeg", "|x|^-1 through R^3"]) == EXIT_USAGE
    assert "column" in capsys.readouterr().err


def test_unknown_verb_and_flag_are_usage_errors(capsys):
    assert main(["transmogrify"]) == EXIT_USAGE
    assert main(["dims", "--frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_negative_powers_are_a_usage_error(capsys):
    assert main(["wick", "2", "--", "-1"]) == EXIT_USAGE
    capsys.readouterr()


def test_embed_bound_violation_exits_two(tmp_path, capsys):
    # the embedded label (2,0,2,0,2) has residuals (0,2,0,2,0): the interleaved
    # legs pair into two edges, so in d = 1 its computed bound is -2 < |alpha|
    cfg = tmp_path / "d1.ini"
    cfg.write_text("[theory]\nd = 1\np = 2\nn_max = 5\n")
    pt = tmp_path / "pt.json"
    pt.write_text(
        '[{"J": [2, 2, 2], "I": [1, 2, 3], "alpha": [0, 0],'
        ' "coeff_num": 1, "coeff_den": 1}]'
    )
    code = main(
        ["deform", str(pt), "embed into=1,3,5 n=5", "--config", str(cfg)]
    )
    assert code == EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err


def test_theta_level_assertion_exits_two(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    pt.write_text(LEVEL1_POINT)
    assert main(["deform", str(pt), "theta q=2 level=2"]) == EXIT_INVARIANT
    assert "level" in capsys.readouterr().err


@pytest.mark.parametrize(
    "action, fragment",
    [
        ("theta q=0", "theta q=0: q is 0"),
        ("theta z=log0", "theta z=log0: q is 0"),
        ("theta z=-1e10", "theta z=-1e10: q is 0"),
        ("theta z=1e10", "theta z=1e10: e^z overflows"),
        ("theta z=inf", "theta z=inf: e^z is not a finite number"),
        ("theta z=nan", "theta z=nan: e^z is not a finite number"),
    ],
)
def test_theta_without_an_invertible_q_is_a_usage_error(
    tmp_path, capsys, action, fragment
):
    pt = tmp_path / "pt.json"
    pt.write_text(LEVEL1_POINT)
    assert main(["deform", str(pt), action]) == EXIT_USAGE
    assert fragment in capsys.readouterr().err


def test_theta_overflowing_at_the_point_level_is_a_usage_error(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    pt.write_text(LEVEL2_POINT)
    assert main(["deform", str(pt), "theta z=700"]) == EXIT_USAGE
    assert "'theta z=700': q^level overflows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, body, fragment",
    [
        ("verify", "n_points = 1", "[group] n_points: 1 is outside 2..8"),
        ("verify", "n_points = 0", "[group] n_points: 0 is outside 2..8"),
        ("verify", "n_points = -1", "[group] n_points: -1 is outside 2..8"),
        ("dims", "n_points = 9", "[group] n_points: 9 is outside 2..8"),
        ("verify", "truncation = 0", "[group] truncation: 0 is below 1"),
        ("dims", "truncation = 0", "[group] truncation: 0 is below 1"),
    ],
)
def test_group_inputs_out_of_range_are_usage_errors(
    tmp_path, capsys, verb, body, fragment
):
    cfg = tmp_path / "group.ini"
    cfg.write_text(f"[group]\n{body}\n")
    assert main([verb, "--config", str(cfg)]) == EXIT_USAGE
    assert fragment in capsys.readouterr().err


def test_tampered_golden_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(shell, "load_golden", lambda: [])
    out = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(out)]) == EXIT_MISMATCH
    assert "mismatch" in capsys.readouterr().err
    assert "DIFFER" in out.read_text()


def test_wick_oracle_mismatch_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(shell, "pairing_moment", lambda *a, **k: Fraction(999))
    code = main(["wick", "2", "2", "--points", "0,0,0,0;1,0,0,0"])
    assert code == EXIT_MISMATCH
    assert "oracle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["wick", "2", "2"], ["dims", "--json"], ["deform", "0"]],
)
def test_out_into_a_missing_directory_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.txt"
    assert main(argv + ["--out", str(target)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "cannot write report" in err
    assert str(target) in err
    assert not target.exists()


def test_zero_denominator_in_a_point_file_is_a_malformed_entry(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    pt.write_text(LEVEL1_POINT.replace('"coeff_den": 1', '"coeff_den": 0'))
    missing = tmp_path / "missing.json"
    missing.write_text(LEVEL1_POINT.replace(', "coeff_den": 1', ""))
    # the same exit code as an entry with a missing field
    assert main(["deform", str(missing)]) == EXIT_INVARIANT
    capsys.readouterr()
    assert main(["deform", str(pt)]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "malformed point entry" in err
    assert "'coeff_den': 0" in err


def test_zero_denominator_in_a_distribution_file_is_a_usage_error(tmp_path, capsys):
    dist = tmp_path / "dist.json"
    terms = [dict(DIST_FILE["terms"][0], coeff_den=0)]
    dist.write_text(json.dumps(dict(DIST_FILE, terms=terms)))
    assert main(["deform", "0", f"shift {dist}"]) == EXIT_USAGE
    assert "malformed distribution file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# deform behaviour
# ---------------------------------------------------------------------------


def test_deform_shift_writes_canonical_point(tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(DIST_FILE))
    out = tmp_path / "point.json"
    assert main(["deform", "0", f"shift {dist}", "--out", str(out)]) == EXIT_OK
    entries = json.loads(out.read_text())
    assert entries == [
        {
            "J": [4, 4],
            "I": [1, 2],
            "alpha": [0, 0, 0, 0],
            "coeff_num": 3,
            "coeff_den": 4,
        }
    ]


def test_deform_round_trip_is_byte_identical(tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(DIST_FILE))
    first = tmp_path / "first.json"
    main(["deform", "0", f"shift {dist}", "--out", str(first)])
    second = tmp_path / "second.json"
    assert main(["deform", str(first), "shift 0", "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_deform_theta_log_two_quadruples_level_two(tmp_path):
    pt = tmp_path / "pt.json"
    pt.write_text(LEVEL2_POINT)
    out = tmp_path / "out.json"
    code = main(["deform", str(pt), "theta z=log2 level=2", "--out", str(out)])
    assert code == EXIT_OK
    (entry,) = json.loads(out.read_text())
    assert entry["coeff_num"] == 4 and entry["coeff_den"] == 1


def test_deform_scale_and_grade(tmp_path):
    pt = tmp_path / "pt.json"
    pt.write_text(LEVEL1_POINT)
    out = tmp_path / "out.json"
    assert main(["deform", str(pt), "scale lambda=1/2", "--out", str(out)]) == EXIT_OK
    # label (4, 4) sits in the eq class: scaling acts as the subset zeta map
    (entry,) = json.loads(out.read_text())
    assert entry["coeff_num"] == 1 and entry["coeff_den"] == 1
    assert main(["deform", str(pt), "grade", "--out", str(out)]) == EXIT_OK
    (entry,) = json.loads(out.read_text())
    assert entry["coeff_num"] == 1  # level 1


def test_deform_rejects_unknown_action(tmp_path, capsys):
    assert main(["deform", "0", "frobnicate"]) == EXIT_USAGE
    assert main(["deform", "0", "theta q=2 z=0.5"]) == EXIT_USAGE
    assert main(["deform", "0", "shift a b"]) == EXIT_USAGE
    capsys.readouterr()


# ---------------------------------------------------------------------------
# wick behaviour and determinism
# ---------------------------------------------------------------------------


def test_wick_table_cross_check(capsys):
    code = main(["wick", "2", "2", "--points", "0,0,0,0;1,0,0,0"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "cross-check passed" in text
    assert "G(1,2)" in text


def test_wick_cross_check_never_enumerates_pairings(monkeypatch, capsys):
    # 16 legs: the brute-force oracle would build 15!! diagrams per term
    def refuse(*args, **kwargs):
        raise AssertionError("the CLI cross-check must not enumerate pairings")

    for module, name in (
        (combinatorics, "enumerate_pairings"),
        (wick, "enumerate_pairings"),
        (wick, "vacuum_moment_oracle"),
        (shell, "vacuum_moment_oracle"),
    ):
        monkeypatch.setattr(module, name, refuse)
    points = "0,0,0,0;1,0,0,0;0,1,0,0;1/2,1/3,0,2"
    assert main(["wick", "4", "4", "4", "4", "--points", points]) == EXIT_OK
    assert "cross-check passed" in capsys.readouterr().out


def test_wick_without_points_skips_cross_check(capsys):
    assert main(["wick", "2", "2"]) == EXIT_OK
    assert "cross-check skipped" in capsys.readouterr().out


def test_wick_points_validation(capsys):
    assert main(["wick", "2", "2", "--points", "0,0;1,0"]) == EXIT_USAGE
    assert main(["wick", "2", "2", "--points", "0,0,0,0;0,0,0,0"]) == EXIT_USAGE
    capsys.readouterr()


def test_wick_json_reports_are_byte_identical(tmp_path):
    args = ["wick", "3", "1", "2", "--json", "--points", "0,0,0,0;1,0,0,0;0,1,0,0"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["cross_check"] == "passed"
    assert all("value" in term for term in payload["terms"])


# ---------------------------------------------------------------------------
# verify and dims
# ---------------------------------------------------------------------------


def test_verify_reproduces_golden(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["matches_golden"] is True
    verdicts = {c["claim_id"]: c["verdict"] for c in payload["claims"]}
    assert verdicts["scaling-triangularity"] == "holds"
    assert verdicts["scaling-identity-at-one"] == "fails"
    assert verdicts["wick-symmetry"] == "holds"


def test_verify_verdicts_are_seed_independent(tmp_path):
    views = []
    for seed in (7, 99):
        out = tmp_path / f"verify-{seed}.json"
        assert main(["verify", "--json", "--seed", str(seed), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        views.append(
            [(c["claim_id"], c["verdict"]) for c in payload["claims"]]
        )
    assert views[0] == views[1]


def test_dims_table_and_payload(tmp_path, capsys):
    assert main(["dims"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "level  labels  paper-literal  codim-corrected" in text
    assert "free graded Lie dimensions" in text
    out = tmp_path / "dims.json"
    assert main(["dims", "--json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["lie_dimensions"] == [1, 1, 2, 3]
    assert set(payload["levels"]) == {"1", "2", "3"}
    for level in payload["levels"].values():
        assert level["codim_corrected"] <= level["paper_literal"]


def test_dims_literal_column_ignores_the_configured_policy(tmp_path):
    cfg = tmp_path / "codim.ini"
    cfg.write_text("[theory]\nbound_policy = codim-corrected\n")
    default_out = tmp_path / "default.json"
    codim_out = tmp_path / "codim.json"
    assert main(["dims", "--json", "--out", str(default_out)]) == EXIT_OK
    assert (
        main(["dims", "--json", "--config", str(cfg), "--out", str(codim_out)])
        == EXIT_OK
    )
    levels = json.loads(codim_out.read_text())["levels"]
    assert levels == json.loads(default_out.read_text())["levels"]
    assert (levels["1"]["paper_literal"], levels["1"]["codim_corrected"]) == (791, 86)
    assert levels["2"]["paper_literal"] == 2458816


def test_dims_counts_nothing_below_the_strict_minimum(tmp_path):
    cfg = tmp_path / "strict.ini"
    cfg.write_text("[theory]\nd = 2\np = 2\nn_max = 3\nstrict_min_points = true\n")
    out = tmp_path / "dims.json"
    assert main(["dims", "--json", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    levels = json.loads(out.read_text())["levels"]
    # the two-point labels stay listed but carry no admissible coordinates
    assert levels["1"] == {"realized_labels": 3, "paper_literal": 0, "codim_corrected": 0}
    assert levels["2"]["paper_literal"] > 0
