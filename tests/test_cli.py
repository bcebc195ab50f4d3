import copy
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nctorus import cli, dolbeault


def run_text(command, problem):
    pf = cli.parse_problem_file(json.dumps(problem))
    report, status = cli.run(command, pf)
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


def test_workers_do_not_change_scan(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"seed": 9, "samples": 4, "search": {"bound": 3}}))
    reports = []
    for workers in ("1", "3"):
        assert cli.main(["--input", str(path), "--command", "nonalg-scan",
                         "--workers", workers]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


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
    ({"truncation": {"N": 2.5}}, "hodge"),
    ({"truncation": {"N": True}}, "hodge"),
    ({"seed": -1}, "nonalg-scan"),
    ({"multiplier": 0}, "ncriemann-bound"),
    ({"form": [[0, 2 ** 31], [-(2 ** 31), 0]]}, "frobenius"),
    ({"n": 1, "theta": [[0.0, 0.4], [-0.4, 0.0]],
      "connection": {"rank": 1, "terms": [[[[{"m": [10 ** 30, 0], "re": 1.0}]]]]}}, "flatness"),
    ({"n": 1, "theta": [[0.0, 0.4], [-0.4, 0.0]],
      "connection": {"rank": 1, "terms": [[[[{"m": [1, 0], "re": 1e300}]]]]}}, "flatness"),
    ({"J": {"period": [[{"re": {"num": 1, "den": 0}, "im": 0}]]}}, "siegel"),
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


README_EXAMPLE = re.search(r"```json\n(.*?)```",
                           (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                           re.S).group(1)


def test_defaults_of_the_field_table():
    pf = cli.parse_problem_file(json.dumps({"module1d": {"q": 1}}))
    assert (pf.tol_rel, pf.bound, pf.exact) == (1e-8, 6, False)
    assert (pf.samples, pf.seed, pf.multiplier, pf.workers, pf.N) == (100, 0, 1, 1, None)
    assert (pf.module1d.p, pf.module1d.tau, pf.module1d.M) == (1, 1j, 200)
    # no truncation section: the default box, N = 8 at n = 2 (trivial
    # connection, so the closed-form Koszul path keeps this cheap)
    problem = {key: PRODUCT_PROBLEM[key] for key in ("n", "theta", "J")}
    report, status, _ = run_text("hodge", problem)
    assert status == 0
    assert report["results"]["N"] == 8 and report["results"]["dims"] == [1, 2, 1]


def test_infinite_sigma_kept_serializes_as_inf():
    rep = dolbeault.SpectralReport(dims=(1, 0), index=1, sigma_kept=math.inf, sigma_cut=0.0,
                                   stable=True, conclusive=True, N=4, tol_rel=1e-8)
    assert '"sigma_kept":"inf"' in cli.canonical_json(cli._spectral_results(rep))


def test_readme_example_parses(tmp_path, capsys):
    pf = cli.parse_problem_file(README_EXAMPLE)
    assert pf.N == 8 and pf.cs.n == 2 and pf.connection.rank == 1
    assert pf.module1d.q == 2 and pf.form.size == 4 and pf.multiplier == 2
    # the commands it illustrates run on it: a flat connection, a nonsingular
    # siegel split and a J-compatible Riemann form
    path = tmp_path / "readme.json"
    path.write_text(README_EXAMPLE)
    for command in ("hodge", "index", "siegel", "ncriemann-bound"):
        code = cli.main(["--input", str(path), "--command", command, "--truncation", "2"])
        body = json.loads(capsys.readouterr().out)
        assert code == 0, (command, body)
        assert body["command"] == command


@pytest.mark.parametrize("argv", [
    ["--command", "nonalg-scan", "--truncation", "abc"],
    ["--command", "nonalg-scan", "--samples", "-1"],
    ["--command", "nonalg-scan", "--workers", "0"],
    ["--command", "nonalg-scan", "--seed", "2.5"],
    ["--command", "nonalg-scan", "--bound", "1e30"],
    ["--command", "nonalg-scan", "--tol-rel", "nan"],
    ["--command", "nope"],
    ["--command", "nonalg-scan", "--no-such-flag"],
    [],
])
def test_malformed_flags_exit_1_with_error_body(tmp_path, capsys, argv):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"seed": 9, "samples": 2, "search": {"bound": 2}}))
    assert cli.main(["--input", str(path), *argv]) == 1
    out = capsys.readouterr().out
    assert set(json.loads(out)) == {"version", "error"}
    assert out == cli.canonical_json(json.loads(out))


def test_range_edges():
    """Upper ends of the documented ranges, checked by parsing alone: no work starts."""
    def parses(problem, flags=None):
        try:
            cli.parse_problem_file(json.dumps(problem), flags)
        except cli.ProblemFileError:
            return False
        return True

    # n = 3 at N = 8 is the largest box the docs use: its N + 2 box has 21^6 modes
    three = {"n": 3, "J": {"blocks": [[[0.0, -1.0], [1.0, 0.0]]] * 3}}
    assert parses({**three, "truncation": {"N": 8}})
    assert not parses({**three, "truncation": {"N": 9}})
    assert parses(PRODUCT_PROBLEM, {"N": ("--truncation", "10")})
    assert parses({"samples": 10 ** 6}) and not parses({"samples": 10 ** 6 + 1})
    assert parses({}, {"workers": ("--workers", "64")})
    assert not parses({}, {"workers": ("--workers", "65")})
    assert parses({"search": {"bound": 16}}) and not parses({"search": {"bound": 17}})
    assert parses({"module1d": {"q": 1, "M": 10 ** 4}})
    assert not parses({"module1d": {"q": 1, "M": 10 ** 4 + 1}})


# -- fuzzing ----------------------------------------------------------------------

FUZZ_BASE = {
    **json.loads(README_EXAMPLE),
    # a non-flat connection: hodge refuses it (exit 1), and one of the
    # seeded mutations of it leaves the index inconclusive (exit 2)
    "connection": {"rank": 1, "terms": [[[[{"m": [1, 0, 0, 0], "re": 0.5, "im": 0.0}]]],
                                        [[[]]]]},
    "small": {"theta": [[0.0, 0.3], [-0.3, 0.0]], "connection": {"rank": 1, "terms": [[[[]]]]}},
    "splittorus": {"tau": [0.0, 1.0], "tau_prime": [0.0, 1.0], "w": [0.5, 0.25]},
    "truncation": {"N": 1, "tol_rel": 1e-8},
    "samples": 3,
    "search": {"bound": 2, "exact": False},
}
JUNK = (None, [], {}, "x", 1e300, math.nan, -1, 0, True, [[1]], {"re": "a"}, 1e30, -1e30, 2.5)


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, prefix + (key,))


def test_fuzzed_problem_files_exit_0_1_or_2_with_one_json_object(tmp_path, capsys, monkeypatch):
    """One junk value at a random place of a full problem file, then a random command."""
    boxes = []
    box_run = dolbeault._box_run

    def recorded_box_run(cs, frame, conn, N, *rest):
        boxes.append(N)
        return box_run(cs, frame, conn, N, *rest)

    monkeypatch.setattr(dolbeault, "_box_run", recorded_box_run)
    rng = random.Random(1)
    paths = list(_paths(FUZZ_BASE))
    path = tmp_path / "p.json"

    def cases():
        for _ in range(600):
            problem = copy.deepcopy(FUZZ_BASE)
            where, junk = rng.choice(paths), rng.choice(JUNK)
            node = problem
            for key in where[:-1]:
                node = node[key]
            node[where[-1]] = copy.deepcopy(junk)
            yield problem, rng.choice(cli.COMMANDS), where, junk
        # the coupling step (1, 0, -1, 0) leaves the index inconclusive at
        # N = 1 (exit 2); fixed, so that exit code is seen whatever the draw
        problem = copy.deepcopy(FUZZ_BASE)
        problem["connection"]["terms"][0][0][0][0]["m"] = [1, 0, -1, 0]
        yield problem, "index", ("connection", "terms", 0, 0, 0, 0, "m", 2), -1

    codes = set()
    for problem, command, where, junk in cases():
        path.write_text(json.dumps(problem))
        argv = ["--input", str(path), "--command", command]
        if not isinstance(problem["truncation"], dict) or "N" not in problem["truncation"]:
            argv += ["--truncation", "1"]  # keep the N = 1 box of the base problem
        code = cli.main(argv)
        out = capsys.readouterr().out
        body = json.loads(out)
        assert out == cli.canonical_json(body), (where, junk, argv)
        assert code in (0, 1, 2), (where, junk, argv)
        if code == 1:
            assert set(body) == {"version", "error"}, (where, junk, argv)
        codes.add(code)
    assert codes == {0, 1, 2}
    assert boxes and max(boxes) <= 3  # N = 1 and its N + 2 check box


def test_module_entry_point_runs(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "n": 1, "theta": [[0.0, 0.3], [-0.3, 0.0]], "J": {"tau": [0.0, 1.0]},
        "connection": {"rank": 1, "terms": [[[[]]]]},
    }))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run_cli(*extra):
        return subprocess.run([sys.executable, "-m", "nctorus.cli", "--input", str(path),
                               "--command", "flatness", *extra],
                              capture_output=True, text=True, env=env, timeout=120)

    ok = run_cli()
    assert ok.returncode == 0
    assert ok.stdout == cli.canonical_json(json.loads(ok.stdout))
    assert json.loads(ok.stdout)["results"]["is_flat"] is True
    bad = run_cli("--truncation", "abc")
    assert bad.returncode == 1
    assert set(json.loads(bad.stdout)) == {"version", "error"}
