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

from nctorus import cli, complexstruct, dolbeault


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


def test_riemann_check_truncated_enumeration_exits_2(tmp_path, capsys):
    # J0 at n = 3, bound 2: the kernel basis is truncated, so the negative
    # verdict is partial and the run is inconclusive
    problem = {"n": 3, "J": complexstruct.standard_j(3).tolist(), "search": {"bound": 2}}
    code, body = _main_stdout(tmp_path, capsys, problem, "riemann-check")
    assert code == 2
    assert body["results"]["verdict"] == "none-within-bound"
    assert body["results"]["kernel_dim"] == 9
    assert "truncated kernel basis" in body["diagnostics"]["note"]
    assert "partial" in body["diagnostics"]["note"]


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


def test_nonalg_scan_lists_each_failure_with_its_vanishing_pairs(monkeypatch):
    # about half the samples draw a product structure J1 (+) J2, whose
    # antiholomorphic frame kills any two covectors of the first block, so
    # (1,0,0,0) and (0,1,0,0) vanish; the others are generic
    real = complexstruct.random_complex_structure

    def sometimes_product(n, rng):
        if rng.uniform() < 0.5:
            return real(n, rng)
        J = np.zeros((4, 4))
        J[:2, :2], J[2:, 2:] = real(1, rng).J, real(1, rng).J
        return complexstruct.ComplexStructure(2, J)

    monkeypatch.setattr(complexstruct, "random_complex_structure", sometimes_product)
    report, status, _ = run_text("nonalg-scan", {"seed": 42, "samples": 8, "search": {"bound": 2}})
    results = report["results"]
    failures = results["failures"]
    assert status == 0
    assert 0 < len(failures) < 8 and results["certified"] + len(failures) == 8
    seeds = report["diagnostics"]["child_seeds"]
    for failure in failures:
        assert failure["seed"] == seeds[failure["sample"]]
        pairs = failure["vanishing_pairs"]
        assert pairs and all(pair["abs_value"] < 1e-9 for pair in pairs)
        assert {"alpha": [0, 1, 0, 0], "beta": [1, 0, 0, 0]} in [
            {k: pair[k] for k in ("alpha", "beta")} for pair in pairs]


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
    # the chain's Gram blocks are eigensolved (a scalar shift takes the closed
    # form, and the identity metric is not eigensolved)
    code, body = _main_stdout(tmp_path, capsys, chain_problem(), "hodge")
    assert code == 2
    assert set(body) == {"version", "error"} and "did not converge" in body["error"]


def _term(m, c):
    return [[[{"m": list(m), "re": complex(c).real, "im": complex(c).imag}]]]


def _two_direction_problem():
    """Non-flat: step e1 in term 1 and e2 in term 2, so no batch forms a complex."""
    return {**PRODUCT_PROBLEM, "truncation": {"N": 2}, "connection": {"rank": 1, "terms": [
        _term((1, 0, 0, 0), 1.1), _term((0, 1, 0, 0), 0.9j)]}}


def _n3_fiber_problem():
    """n = 3, r = 2, constant fibers diag(c_j, d_j): single-mode blocks, which
    index-only runs send through the odd block matrix."""
    cs = complexstruct.random_complex_structure(3, np.random.default_rng(33))
    zero = [0] * 6
    terms = [[_term(zero, c)[0] + [[]], [[]] + _term(zero, d)[0]]
             for c, d in ((0.3 + 0.1j, 0.25), (-0.2j, 0.1), (0.4, 0.2 - 0.3j))]
    return {"n": 3, "theta": {"product_blocks": [0.31, 0.47, 0.23]}, "J": cs.J.tolist(),
            "connection": {"rank": 2, "terms": terms}, "truncation": {"N": 1}}


def _shift_problem():
    """A generic scalar shift: every mode takes the closed-form Koszul slabs."""
    return {**PRODUCT_PROBLEM, "connection": {"rank": 1, "terms": [
        _term((0, 0, 0, 0), 0.37 + 0.21j), _term((0, 0, 0, 0), -0.13 + 0.52j)]}}


@pytest.mark.parametrize("case, command", [
    ("chain", "hodge"), ("laplacian", "index"), ("odd", "index"), ("slab", "hodge")])
def test_one_nan_in_one_block_makes_the_report_inconclusive(tmp_path, capsys, monkeypatch,
                                                            case, command):
    # one NaN among the values of the first batched eigensolve (or of the
    # first closed-form slab) of a run; every comparison with it is False
    poisoned, names = [], []
    if case == "slab":
        slabs = dolbeault._Engine._box_koszul_eigenvalues

        def poison(self, N):
            for start, lam in slabs(self, N):
                if not poisoned:
                    poisoned.append(start)
                    lam[lam.size // 2] = np.nan
                yield start, lam

        monkeypatch.setattr(dolbeault._Engine, "_box_koszul_eigenvalues", poison)
    else:
        eigvalsh = np.linalg.eigvalsh

        def poison(a, *args, **kwargs):
            vals = eigvalsh(a, *args, **kwargs)
            if vals.ndim == 2 and not poisoned:
                poisoned.append(vals.shape)
                vals[0, 0] = np.nan
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", poison)
    spectra = dolbeault._Engine._spectra

    def spy(self, ops):
        for terms, feeds in spectra(self, ops):
            names.append((len(terms), tuple(col.singular for col, _, _ in feeds)))
            yield terms, feeds

    monkeypatch.setattr(dolbeault._Engine, "_spectra", spy)
    problem = {"chain": chain_problem, "laplacian": _two_direction_problem,
               "odd": _n3_fiber_problem, "slab": _shift_problem}[case]()
    code, body = _main_stdout(tmp_path, capsys, problem, command)
    assert poisoned
    # the hodge report's box at N feeds its Delta_1 (two terms) to lap[1] and
    # the singular-value collector; the index alone feeds that collector
    # Delta_1 at n = 2, the odd block matrix at n = 3 (Delta_1, Delta_3 and
    # the defect blocks, five terms)
    assert {"chain": (2, (False, True)) in names,
            "laplacian": (2, (True,)) in names,
            "odd": set(names) == {(5, (True,))},
            "slab": not names}[case]
    assert code == 2
    assert body["results"]["conclusive"] is False and body["results"]["stable"] is False


def test_arpack_error_exits_2(tmp_path, capsys, monkeypatch):
    # every component of the N + 2 box goes to the sparse path, whose largest
    # eigenvalue ARPACK then fails to find: inconclusive, not a traceback
    import scipy.sparse.linalg as spla

    calls = []

    def fail(*args, **kwargs):
        calls.append(1)
        raise spla.ArpackError(-9)

    monkeypatch.setattr(dolbeault, "DENSE_BLOCK_LIMIT", 10)
    monkeypatch.setattr(spla, "eigsh", fail)
    code, body = _main_stdout(tmp_path, capsys, _two_direction_problem(), "index")
    assert calls
    assert code == 2
    assert body["results"]["stable"] is False


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


def test_memory_error_exits_1(tmp_path, capsys, monkeypatch):
    # a box that outgrows memory is an input too large for this machine
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 40.0 GiB")

    monkeypatch.setattr(dolbeault._Engine, "run", fail)
    problem = dict(PRODUCT_PROBLEM)
    problem["connection"] = {"rank": 1, "terms": [
        [[[{"m": [0, 0, 0, 0], "re": 0.3, "im": 0.1}]]], [[[]]]]}
    for command in ("hodge", "index"):
        code, body = _main_stdout(tmp_path, capsys, problem, command)
        assert code == 1
        assert set(body) == {"version", "error"}
        assert "out of memory" in body["error"] and "truncation" in body["error"]


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


def test_one_box_rule_for_the_cli_and_the_engine(tmp_path, capsys, monkeypatch):
    """A coupled n = 3 connection at N = 7 exits 1 before any box run."""
    runs = []
    monkeypatch.setattr(dolbeault._Engine, "run", lambda *args: runs.append(args))
    three = {"n": 3, "theta": {"product_blocks": [0.31, 0.47, 0.23]},
             "J": {"blocks": [[[0.0, -1.0], [1.0, 0.0]]] * 3}}
    cs = cli.parse_problem_file(json.dumps(three)).cs
    frame = complexstruct.antihol_frame(cs)
    step = [1, 0, 0, 0, 0, 0]
    # the flat gradient chain along e1
    coupled = {**three, "connection": {"rank": 1, "terms": [
        [[[{"m": step, "re": w.real, "im": w.imag}]]] for w in 0.5 * (frame.W @ step)]}}
    uncoupled = {**three, "connection": {"rank": 1, "terms": [
        [[[{"m": [0] * 6, "re": 0.5}]]], [[[]]], [[[]]]]}}
    for command in ("hodge", "index"):
        for N in (7, 8):
            code, body = _main_stdout(tmp_path, capsys, {**coupled, "truncation": {"N": N}},
                                      command)
            assert code == 1 and set(body) == {"version", "error"}
            assert "truncation.N" in body["error"]
    assert not runs

    def parses(problem, N):
        try:
            cli.parse_problem_file(json.dumps({**problem, "truncation": {"N": N}}))
        except cli.ProblemFileError:
            return False
        return True

    # coupled on one step: 4 + 24 bytes per mode of targets, |v~| in flat and
    # component order, layout and pos_of, at most 10^9 for the N + 2 box
    # (17^6 at N = 6, 19^6 at N = 7); uncoupled: (2N + 5)^6 <= 10^8
    assert parses(coupled, 6) and not parses(coupled, 7)
    assert parses(uncoupled, 8) and not parses(uncoupled, 9)
    assert parses(three, 8) and not parses(three, 9)
    # the library entry points apply the same rule before their first run
    conn = cli.parse_problem_file(json.dumps(coupled)).connection
    for op in (dolbeault.cohomology_dims, dolbeault.index):
        with pytest.raises(ValueError, match="a coupled connection"):
            op(cs, frame, conn, dolbeault.TruncationBox(7))
    assert not runs


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
    run = dolbeault._Engine.run

    def recorded_run(self, N, *rest):
        boxes.append(N)
        return run(self, N, *rest)

    monkeypatch.setattr(dolbeault._Engine, "run", recorded_run)
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


def _env_with_src() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def chain_problem() -> dict:
    """PRODUCT_PROBLEM at N = 2 with the flat gradient chain a_j = 0.5 (W e1)_j U^e1."""
    cs = cli.parse_problem_file(json.dumps(PRODUCT_PROBLEM)).cs
    step = [1, 0, 0, 0]
    terms = [[[[{"m": step, "re": w.real, "im": w.imag}]]]
             for w in 0.5 * (complexstruct.antihol_frame(cs).W @ step)]
    return {**PRODUCT_PROBLEM, "connection": {"rank": 1, "terms": terms}, "truncation": {"N": 2}}


# Imports the CLI, then runs each (label, argv) of argv[1] through cli.main in
# the same interpreter; prints, per label, the exit code and the scipy modules
# loaded by then ("import" for the bare import).
START_UP_PROBE = """
import json, sys
import nctorus.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

seen = {"import": [0, scipy_modules()]}
for label, argv in json.loads(sys.argv[1]):
    seen[label] = [cli.main(argv), scipy_modules()]
print(json.dumps(seen))
"""


def test_cli_start_up_loads_no_scipy(tmp_path):
    # scipy is loaded only where it is used: standard1d's tridiagonal solve,
    # sparse components (eigsh/LOBPCG) and operator export; importing it
    # costs start-up time and memory on every other command
    den = 10 ** 7
    rational = lambda p, q: {"re": {"num": p, "den": 1}, "im": {"num": q, "den": 1}}
    split = [[rational(1, 0), rational(0, 1), rational(0, 0),
              {"re": {"num": 5347859, "den": den}, "im": {"num": 2531177, "den": den}}],
             [rational(0, 0), rational(0, 0), rational(1, 0), rational(0, 1)]]
    grid = {**PRODUCT_PROBLEM, "truncation": {"N": 2}, "connection": {"rank": 1, "terms": [
        [[[{"m": [1, 0, 0, 0], "re": 1.1}]]], [[[{"m": [0, 1, 0, 0], "im": 0.9}]]]]}}
    runs = [
        ("hodge", chain_problem(), "hodge", []),
        ("index", chain_problem(), "index", []),
        ("index-grid", grid, "index", []),
        ("nonalg-scan", {"seed": 3, "samples": 2, "search": {"bound": 2}}, "nonalg-scan", []),
        ("riemann-check", {"n": 1, "J": {"tau": [0.1, 1.2]}, "search": {"bound": 3}},
         "riemann-check", []),
        ("riemann-check-exact", {"n": 2, "J": {"period": split}, "search": {"bound": 2}},
         "riemann-check", ["--exact"]),
    ]
    argvs = []
    for label, problem, command, extra in runs:
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(problem))
        argvs.append((label, ["--input", str(path), "--command", command,
                              "--output", str(tmp_path / f"{label}.out.json"), *extra]))
    out = subprocess.run([sys.executable, "-c", START_UP_PROBE, json.dumps(argvs)],
                         capture_output=True, text=True, env=_env_with_src(), timeout=300)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
    assert list(seen) == ["import"] + [label for label, *_ in runs]
    assert all(loaded == [] and code == 0 for code, loaded in seen.values()), seen
    exact = json.loads((tmp_path / "riemann-check-exact.out.json").read_text())
    assert exact["results"]["exact"] is True


# Counts the argparse parsers built from the import of the CLI on, then runs
# each argv of argv[1] through cli.main in this one interpreter; prints the
# stdout bytes and exit code of each run and the count.
REUSE_PROBE = """
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(type(self).__name__)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import nctorus.cli as cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([out.getvalue(), code])
print(json.dumps({"runs": runs, "built": built}))
"""


def test_one_parser_serves_every_main_call(tmp_path):
    # a report, a bad flag (exit 1 with a JSON body) and the report again,
    # in one process, give the bytes of three fresh processes
    path = tmp_path / "p.json"
    path.write_text(json.dumps(chain_problem()))
    ok = ["--input", str(path), "--command", "hodge", "--truncation", "1"]
    argvs = [ok, ["--input", str(path), "--command", "hodge", "--truncation", "abc"], ok]
    env = _env_with_src()
    probe = subprocess.run([sys.executable, "-c", REUSE_PROBE, json.dumps(argvs)],
                           capture_output=True, text=True, env=env, timeout=300)
    assert probe.returncode == 0, probe.stderr
    seen = json.loads(probe.stdout)
    assert seen["built"] == ["_ArgumentParser"]
    fresh = [subprocess.run([sys.executable, "-m", "nctorus.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=300)
             for argv in argvs]
    assert seen["runs"] == [[run.stdout, run.returncode] for run in fresh]
    assert [code for _, code in seen["runs"]] == [0, 1, 0]
    assert set(json.loads(seen["runs"][1][0])) == {"version", "error"}
    assert json.loads(seen["runs"][0][0])["results"]["dims"] == [1, 2, 1]


def test_module_entry_point_runs(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "n": 1, "theta": [[0.0, 0.3], [-0.3, 0.0]], "J": {"tau": [0.0, 1.0]},
        "connection": {"rank": 1, "terms": [[[[]]]]},
    }))
    env = _env_with_src()

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
