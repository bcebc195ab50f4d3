import json
import math

import numpy as np
import pytest

from nctorus import cli


def run_text(command, problem, **kwargs):
    pf = cli.parse_problem_file(json.dumps(problem))
    report, status = cli.run(command, pf, **kwargs)
    return report, status, cli.canonical_json(report)


PRODUCT_PROBLEM = {
    "n": 2,
    "theta": {"product_blocks": [0.3, 0.7]},
    "J": {"blocks": [[[0.0, -1.0], [1.0, 0.0]], [[0.2, -1.3], [0.8, -0.2]]]},
    "truncation": {"N": 3},
    "seed": 7,
}


def test_parse_minimal_n1():
    pf = cli.parse_problem_file(json.dumps({
        "n": 1,
        "theta": [[0.0, 0.4], [-0.4, 0.0]],
        "J": {"tau": [0.0, 1.0]},
    }))
    assert pf.theta.d == 2 and pf.cs.n == 1


def test_parse_rejects_non_skew_theta():
    with pytest.raises(cli.ProblemFileError) as err:
        cli.parse_problem_file(json.dumps({
            "n": 1, "theta": [[0.0, 0.4], [0.4, 0.0]],
        }))
    assert "(0,1)" in str(err.value) and "(1,0)" in str(err.value)


def test_parse_rejects_bad_j():
    with pytest.raises(cli.ProblemFileError):
        cli.parse_problem_file(json.dumps({
            "n": 1, "J": [[1.0, 0.0], [0.0, 1.0]],
        }))


def test_parse_rejects_bad_tau():
    with pytest.raises(cli.ProblemFileError):
        cli.parse_problem_file(json.dumps({
            "n": 1, "module1d": {"q": 1, "tau_re": 0.0, "tau_im": -1.0},
        }))


def test_roundtrip_canonical():
    text = json.dumps(PRODUCT_PROBLEM)
    pf = cli.parse_problem_file(text)
    again = cli.parse_problem_file(cli.emit_problem_file(pf))
    assert cli.emit_problem_file(again) == cli.emit_problem_file(pf)


def test_hodge_command():
    report, status, _ = run_text("hodge", PRODUCT_PROBLEM)
    assert status == 0
    assert report["results"]["dims"] == [1, 2, 1]
    assert report["results"]["index"] == 0


def test_index_command():
    report, status, _ = run_text("index", PRODUCT_PROBLEM)
    assert status == 0
    assert report["results"]["index"] == 0 and report["results"]["stable"]


def test_flatness_command():
    problem = dict(PRODUCT_PROBLEM)
    problem["theta"] = [[0.0, 0.3, 0.1, 0.2], [-0.3, 0.0, 0.4, -0.1],
                        [-0.1, -0.4, 0.0, 0.5], [-0.2, 0.1, -0.5, 0.0]]
    problem["connection"] = {
        "rank": 1,
        "terms": [
            [[[{"m": [0, 0, 1, 0], "re": 1.0, "im": 0.0}]]],
            [[[{"m": [1, 0, 0, 0], "re": 1.0, "im": 0.0}]]],
        ],
    }
    report, status, _ = run_text("flatness", problem)
    assert status == 0
    assert report["results"]["is_flat"] is False
    assert report["results"]["max_abs"] > 1e-3


def test_kunneth_command():
    report, status, _ = run_text("kunneth", {"kunneth": {"dims": [[1, 1], [1, 1]]}})
    assert status == 0 and report["results"]["dims"] == [1, 2, 1]


def test_standard1d_command():
    report, status, _ = run_text("standard1d", {
        "module1d": {"q": 2, "tau_re": 0.0, "tau_im": 1.0, "M": 128},
    })
    assert status == 0
    assert report["results"]["dims"] == [2, 0]
    assert report["results"]["index"] == 2
    assert report["results"]["k0"] == {"rank": 1, "degree": 2}


def test_pushforward_command():
    problem = {
        "n": 2,
        "theta": [[0.0, 0.37, 0.1, 0.0], [-0.37, 0.0, 0.0, 0.2],
                   [-0.1, 0.0, 0.0, 0.5], [0.0, -0.2, -0.5, 0.0]],
        "J": {"blocks": [[[0.0, -1.0], [1.0, 0.0]], [[0.3, -1.09], [1.0, -0.3]]]},
        "truncation": {"N": 3},
        "small": {
            "theta": [[0.0, 0.37], [-0.37, 0.0]],
            "connection": {"rank": 1, "terms": [[[[]]]]},
        },
    }
    report, status, _ = run_text("pushforward", problem)
    assert status == 0
    assert report["results"]["h0_bound_holds"] is True
    assert report["results"]["small"]["dims"] == [1, 1]
    assert report["results"]["big"]["dims"] == [1, 2, 1]


def test_riemann_check_found_and_exact_none():
    found, status, _ = run_text("riemann-check", {
        "n": 1, "J": {"tau": [0.0, 1.0]}, "search": {"bound": 3},
    })
    assert status == 0 and found["results"]["verdict"] == "found"

    den = 10 ** 7
    problem = {
        "n": 2,
        "J": {"period": [
            [[1, 0], {"re": {"num": 0, "den": 1}, "im": {"num": 1, "den": 1}}, [0, 0],
             {"re": {"num": 5347859, "den": den}, "im": {"num": 2531177, "den": den}}],
            [[0, 0], [0, 0], [1, 0], [0, 1]],
        ]},
        "search": {"bound": 6, "exact": True},
    }
    # note: rational and float entries mix; exact path needs all rational
    problem["J"]["period"][0][0] = {"re": {"num": 1, "den": 1}, "im": {"num": 0, "den": 1}}
    problem["J"]["period"][0][2] = {"re": {"num": 0, "den": 1}, "im": {"num": 0, "den": 1}}
    for j in range(4):
        problem["J"]["period"][1][j] = {
            "re": {"num": 1 if j == 2 else 0, "den": 1},
            "im": {"num": 1 if j == 3 else 0, "den": 1},
        }
    report, status, _ = run_text("riemann-check", problem)
    assert status == 0
    assert report["results"]["verdict"] == "none-within-bound"
    assert report["results"]["kernel_dim"] == 4


def test_riemann_check_splittorus_w0_found():
    # the split torus degenerates to a product when w = 0 and carries a form
    problem = {
        "n": 2,
        "J": {"period": [
            [[1, 0], [0, 1], [0, 0], [0, 0]],
            [[0, 0], [0, 0], [1, 0], [0, 1]],
        ]},
        "search": {"bound": 6},
    }
    report, status, _ = run_text("riemann-check", problem)
    assert status == 0
    assert report["results"]["verdict"] == "found"
    assert "divisors" in report["results"]


def test_frobenius_command():
    report, status, _ = run_text("frobenius", {
        "form": [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 6], [0, 0, -6, 0]],
    })
    assert status == 0
    assert report["results"]["divisors"] == [2, 6]


def test_decompose_command():
    problem = {
        "n": 2,
        "J": {"period": [[[0, 1], [0, 0], [1, 0], [0, 0]],
                          [[0, 0], [0, 1], [0, 0], [1, 0]]]},
        "form": [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
    }
    report, status, _ = run_text("decompose", problem)
    assert status == 0
    assert len(report["results"]["pieces"]) == 2


def test_siegel_command():
    report, status, _ = run_text("siegel", {
        "n": 1, "J": {"tau": [0.3, 1.4]},
    })
    assert status == 0
    assert report["results"]["symmetric"] is True


def test_splittorus_command():
    report, status, _ = run_text("splittorus", {
        "splittorus": {"tau": [0.0, 1.0], "tau_prime": [0.0, 1.0], "w": [0.5, 0.25]},
    })
    assert status == 0
    assert report["results"]["valid_complex_structure"] is True


def test_ncriemann_command():
    problem = {
        "n": 2,
        "theta": {"product_blocks": [0.3, 0.7]},
        "J": {"period": [[[0, 1], [0, 0], [1, 0], [0, 0]],
                          [[0, 0], [0, 1], [0, 0], [1, 0]]]},
        "form": [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
        "multiplier": 2,
    }
    report, status, _ = run_text("ncriemann-bound", problem)
    assert status == 0
    assert report["results"]["h0_lower_bound"] >= 2


def test_detect_blocks_command():
    report, status, _ = run_text("detect-blocks", PRODUCT_PROBLEM)
    assert status == 0
    assert report["results"]["product_type"] is True
    assert report["results"]["theta12"] == pytest.approx(0.3)


def test_nonalg_scan_deterministic():
    problem = {"seed": 42, "samples": 6, "search": {"bound": 3}}
    r1, s1, text1 = run_text("nonalg-scan", problem)
    r2, s2, text2 = run_text("nonalg-scan", problem)
    assert s1 == s2 == 0
    assert text1 == text2
    assert r1["results"]["certified"] >= 5


def test_report_determinism_bytes():
    _, _, a = run_text("hodge", PRODUCT_PROBLEM)
    _, _, b = run_text("hodge", PRODUCT_PROBLEM)
    assert a == b


def test_main_exit_codes(tmp_path):
    good = tmp_path / "p.json"
    good.write_text(json.dumps(PRODUCT_PROBLEM))
    out = tmp_path / "r.json"
    assert cli.main(["--input", str(good), "--command", "hodge",
                     "--output", str(out)]) == 0
    text1 = out.read_text()
    assert cli.main(["--input", str(good), "--command", "hodge",
                     "--output", str(out)]) == 0
    assert out.read_text() == text1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "theta": [[0.0, 1.0], [1.0, 0.0]]}))
    assert cli.main(["--input", str(bad), "--command", "hodge",
                     "--output", str(out)]) == 1

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 1}))
    assert cli.main(["--input", str(missing), "--command", "hodge",
                     "--output", str(out)]) == 1


def test_workers_do_not_change_scan(tmp_path):
    problem = {"seed": 9, "samples": 4, "search": {"bound": 3}}
    _, _, seq = run_text("nonalg-scan", problem, workers=1)
    _, _, par = run_text("nonalg-scan", problem, workers=3)
    assert seq == par


def _main_stdout(tmp_path, capsys, problem, command):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code = cli.main(["--input", str(path), "--command", command])
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize("problem, command", [
    ({"search": [1]}, "riemann-check"),
    ({"kunneth": {"dims": 3}}, "kunneth"),
    ({"kunneth": {}}, "kunneth"),
    ({"truncation": {"N": None}}, "hodge"),
    ({"truncation": "N"}, "hodge"),
])
def test_malformed_sections_exit_1_with_error_body(tmp_path, capsys, problem, command):
    code, body = _main_stdout(tmp_path, capsys, problem, command)
    assert code == 1
    assert set(body) == {"version", "error"}


def test_numerical_failure_exits_2(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    problem = dict(PRODUCT_PROBLEM)
    problem["connection"] = {"rank": 1, "terms": [
        [[[{"m": [0, 0, 0, 0], "re": 0.3, "im": 0.1}]]], [[[]]]]}
    code, body = _main_stdout(tmp_path, capsys, problem, "hodge")
    assert code == 2
    assert set(body) == {"version", "error"} and "did not converge" in body["error"]


def test_internal_check_failure_exits_2(tmp_path, capsys, monkeypatch):
    from nctorus import riemann

    reduce = riemann.lll_reduce
    monkeypatch.setattr(riemann, "lll_reduce", lambda basis: reduce(basis)[:-1])
    period = [[[1, 0], [0, 1], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 1]]]
    problem = {
        "n": 2,
        "J": {"period": [[{"re": {"num": re, "den": 1}, "im": {"num": im, "den": 1}}
                          for re, im in row] for row in period]},
        "search": {"bound": 3, "exact": True},
    }
    code, body = _main_stdout(tmp_path, capsys, problem, "riemann-check")
    assert code == 2
    assert set(body) == {"version", "error"} and "internal check failed" in body["error"]
