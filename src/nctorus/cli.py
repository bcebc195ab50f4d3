"""Problem-file parsing, command dispatch, and canonical report emission.

One JSON problem file feeds every command; commands ignore sections they
do not use.  Every field of the file and every flag is checked once, at
parse time, by the typed reader that _FIELDS names for it.  Reports are
serialized canonically (sorted keys, compact separators) so identical
inputs and seeds produce byte-identical output.

Exit status contract: 0 for conclusive results (including a clean
"none within bound"), 1 for invalid input (a malformed file, flag or
command), 2 for numerically inconclusive results (gap or reduction
failures).  Exits 1 and 2 write a {"version", "error"} body.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import numpy as np

from . import algebra, complexstruct, dolbeault, heisenberg1d, ktheory, riemann

REPORT_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2


class ProblemFileError(ValueError):
    pass


# -- typed readers ----------------------------------------------------------
# A reader takes a raw value, its place in the file (for messages) and the
# problem parsed so far, and returns the checked value or raises
# ProblemFileError.  Command-line flags reach the same readers as strings.

_INT32 = 2 ** 31 - 1
_INT64 = 2 ** 63 - 1
_REAL = 1e9  # bound on the size of every real number in a problem file
_MISSING = object()  # an absent value, or a record field without default


def _bad(where: str, expected: str, value) -> ProblemFileError:
    return ProblemFileError(f"{where}: expected {expected}, got {value!r}")


def _scalar(kind, ok, expected: str):
    """Reader of an int or float (or a flag's string) x with ok(x); 2.5 is no int."""
    def read(value, where, pf=None):
        try:
            x = kind(value) if type(value) in (int, float, str) else None
        except (ValueError, OverflowError):
            x = None
        if x is None or (type(value) is float and x != value) or not ok(x):
            raise _bad(where, expected, value)
        return x
    return read


def _integer(lo: int, hi: int):
    return _scalar(int, lambda x: lo <= x <= hi, f"an integer in [{lo}, {hi}]")


_real = _scalar(float, lambda x: abs(x) <= _REAL, f"a number of size at most {_REAL:g}")
_int32 = _integer(-_INT32, _INT32)
_int64 = _integer(-_INT64, _INT64)
_den = _scalar(int, lambda x: 0 < abs(x) <= _INT64, f"a nonzero integer in [{-_INT64}, {_INT64}]")
_count = _integer(0, _INT32)
_natural = _integer(1, _INT32)


def _boolean(value, where, pf=None) -> bool:
    if not isinstance(value, bool):
        raise _bad(where, "true or false", value)
    return value


def _list(value, where: str, min_len: int = 0) -> list:
    if not isinstance(value, list) or len(value) < min_len:
        raise _bad(where, f"a list of at least {min_len} items" if min_len else "a list", value)
    return value


def _record(value, where: str, fields: dict) -> dict:
    """Read an object's fields; fields maps key -> (reader, default or _MISSING)."""
    if not isinstance(value, dict):
        raise _bad(where, "an object", value)
    for key in (k for k, (_, default) in fields.items() if default is _MISSING):
        if key not in value:
            raise ProblemFileError(f"{where}.{key}: required")
    return {key: read(value[key], f"{where}.{key}") if key in value else default
            for key, (read, default) in fields.items()}


def _part(value, where: str):
    """A real part: a number, or an exact rational {"num": p, "den": q}."""
    if isinstance(value, dict):
        q = _record(value, where, {"num": (_int64, _MISSING), "den": (_den, _MISSING)})
        return Fraction(q["num"], q["den"])
    return _real(value, where)


def _complex(value, where: str) -> tuple:
    """(re, im), each a float or a Fraction, from x, [re, im] or {"re", "im"}."""
    if type(value) in (int, float):
        return _real(value, where), 0.0
    if isinstance(value, list) and len(value) == 2:
        return _part(value[0], f"{where}[0]"), _part(value[1], f"{where}[1]")
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        return (_part(value.get("re", 0.0), f"{where}.re"),
                _part(value.get("im", 0.0), f"{where}.im"))
    raise _bad(where, "[re, im] or {re, im}", value)


def _as_complex(value, where: str) -> complex:
    re, im = _complex(value, where)
    return complex(float(re), float(im))


def _matrix(value, where: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFileError(f"{where}: not a numeric matrix ({exc})")
    if arr.ndim != 2 or not (np.abs(arr) <= _REAL).all():
        raise ProblemFileError(f"{where}: expected a matrix of numbers of size at most {_REAL:g}")
    return arr


def _theta(spec, where: str, n: int | None) -> algebra.ThetaMatrix:
    if isinstance(spec, dict):
        if set(spec) != {"product_blocks"}:
            raise ProblemFileError(f"{where}: exactly one of a matrix or product_blocks")
        blocks = _list(spec["product_blocks"], f"{where}.product_blocks", 1)
        theta = algebra.ThetaMatrix.product(
            [_real(b, f"{where}.product_blocks[{i}]") for i, b in enumerate(blocks)])
    else:
        theta = algebra.ThetaMatrix(_matrix(spec, where))
    if n is not None and theta.n_half != n:
        raise ProblemFileError(f"{where}: size {theta.d} but n = {n}")
    return theta


def _j(spec, where: str, pf) -> tuple:
    """(cs, exact_j); exact_j is the rational J of an all-rational period matrix."""
    keys = set(spec) if isinstance(spec, dict) else None
    exact_j = None
    if keys == {"period"}:
        rows = [[_complex(cell, f"{where}.period[{i}][{j}]")
                 for j, cell in enumerate(_list(row, f"{where}.period[{i}]", 1))]
                for i, row in enumerate(_list(spec["period"], f"{where}.period", 1))]
        Q = np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])
        cs = complexstruct.j_from_period(complexstruct.PeriodMatrix(Q))
        if all(isinstance(x, Fraction) for row in rows for cell in row for x in cell):
            exact_j = riemann.exact_j_from_rational_period(
                [[re for re, _ in row] for row in rows], [[im for _, im in row] for row in rows])
    elif keys == {"blocks"}:
        blocks = [_matrix(b, f"{where}.blocks[{i}]")
                  for i, b in enumerate(_list(spec["blocks"], f"{where}.blocks", 1))]
        if any(b.shape != (2, 2) for b in blocks):
            raise ProblemFileError(f"{where}.blocks: blocks must be 2x2")
        J = np.zeros((2 * len(blocks), 2 * len(blocks)))
        for i, b in enumerate(blocks):
            J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = b
        cs = complexstruct.ComplexStructure.from_matrix(J)
    elif keys == {"tau"}:
        cs = complexstruct.j_from_tau(_as_complex(spec["tau"], f"{where}.tau"))
    elif keys is None:
        cs = complexstruct.ComplexStructure.from_matrix(_matrix(spec, where))
    else:
        raise ProblemFileError(f"{where}: exactly one of a matrix, period, blocks, or tau")
    if pf.n is not None and cs.n != pf.n:
        raise ProblemFileError(f"{where}: complex dimension {cs.n} but n = {pf.n}")
    return cs, exact_j


def _connection(spec, where: str, theta) -> dolbeault.FreeConnection:
    if theta is None:
        raise ProblemFileError(f"{where}: needs a theta section")
    spec = _record(spec, where, {"rank": (_natural, _MISSING), "terms": (_list, _MISSING)})
    r, terms = spec["rank"], []
    for j, term in enumerate(spec["terms"]):  # r x r arrays, checked by the constructors
        at = f"{where}.terms[{j}]"
        terms.append(algebra.MatrixElement(theta, [
            [_fourier(cell, f"{at}[{a}][{b}]", theta)
             for b, cell in enumerate(_list(row, f"{at}[{a}]"))]
            for a, row in enumerate(_list(term, at))
        ]))
    return dolbeault.FreeConnection(r, terms)


def _fourier(cell, where: str, theta) -> algebra.FourierElement:
    """A list of coefficient records {"m": exponents, "re": .., "im": ..}."""
    coeffs = []
    for k, rec in enumerate(_list(cell, where)):
        at = f"{where}[{k}]"
        rec = _record(rec, at, {"m": (_list, _MISSING), "re": (_real, 0.0),
                                "im": (_real, 0.0)})
        m = tuple(_int32(x, f"{at}.m[{i}]") for i, x in enumerate(rec["m"]))
        coeffs.append((m, complex(rec["re"], rec["im"])))
    return algebra.FourierElement(theta, coeffs)


def _module1d(spec, where: str, pf) -> heisenberg1d.StandardModule1D:
    m = _record(spec, where, {
        "q": (_int32, _MISSING),
        "p": (_natural, 1),
        "tau_re": (_real, 0.0),
        "tau_im": (_real, 1.0),
        "M": (_integer(16, 10_000), 200),
    })
    return heisenberg1d.StandardModule1D(q=m["q"], p=m["p"], M=m["M"],
                                         tau=complex(m["tau_re"], m["tau_im"]))


def _form(spec, where: str, pf) -> riemann.IntegerSkewForm:
    rows = [[_int32(x, f"{where}[{i}][{j}]") for j, x in enumerate(_list(row, f"{where}[{i}]"))]
            for i, row in enumerate(_list(spec, where, 1))]
    return riemann.IntegerSkewForm(rows)


def _box_size(value, where: str, pf) -> int:
    """N >= 1 whose boxes the engine runs for the connection (dolbeault.check_box)."""
    N = _natural(value, where)
    dolbeault.check_box(2 * pf.cs.n if pf.cs is not None else 2, N, pf.connection)
    return N


def _kunneth(dims, where: str, pf) -> list:
    return [[_count(x, f"{where}[{i}][{k}]")
             for k, x in enumerate(_list(d, f"{where}[{i}]", 1))]
            for i, d in enumerate(_list(dims, where, 2))]


def _small(spec, where: str, pf) -> tuple:
    """The curve of `pushforward`: (theta, connection) at n = 1."""
    if not isinstance(spec, dict) or not {"theta", "connection"} <= set(spec):
        raise ProblemFileError(f"{where}: needs theta and connection")
    theta = _theta(spec["theta"], f"{where}.theta", 1)
    return theta, _connection(spec["connection"], f"{where}.connection", theta)


def _split_torus(spec, where: str, pf) -> complexstruct.PeriodMatrix:
    z = _record(spec, where, dict.fromkeys(("tau", "tau_prime", "w"), (_as_complex, _MISSING)))
    return riemann.split_torus_example(z["tau"], z["tau_prime"], z["w"])


def _columns(spec, where: str, pf) -> tuple:
    last = 2 * pf.cs.n - 1 if pf.cs is not None else _INT32
    return tuple(_integer(0, last)(c, f"{where}[{i}]") for i, c in enumerate(_list(spec, where)))


# attribute -> (path in the file, None for a flag only; reader; default), read
# in this order, so a reader may use the attributes above it.
_FIELDS = {
    "n": (("n",), _natural, None),
    "theta": (("theta",), lambda v, w, pf: _theta(v, w, pf.n), None),
    ("cs", "exact_j"): (("J",), _j, (None, None)),
    "connection": (("connection",), lambda v, w, pf: _connection(v, w, pf.theta), None),
    "module1d": (("module1d",), _module1d, None),
    "form": (("form",), _form, None),
    "bound": (("search", "bound"), _integer(0, 16), 6),
    "exact": (("search", "exact"), _boolean, False),
    "N": (("truncation", "N"), _box_size, None),
    "tol_rel": (("truncation", "tol_rel"),
                _scalar(float, lambda x: 0 < x < 1, "a number in (0, 1)"), 1e-8),
    "kunneth": (("kunneth", "dims"), _kunneth, None),
    "small": (("small",), _small, None),
    "splittorus": (("splittorus",), _split_torus, None),
    "siegel_split": (("siegel", "split"), _columns, None),
    "seed": (("seed",), _integer(0, _INT64), 0),
    "samples": (("samples",), _integer(0, 10 ** 6), 100),
    "multiplier": (("multiplier",), _natural, 1),
    "workers": (None, _integer(1, 64), 1),
}


class ProblemFile(SimpleNamespace):
    """raw is the file as given, which reports echo; the rest is read by _FIELDS."""


def _lookup(raw: dict, path: tuple):
    for sec in path[:-1]:
        raw = raw.get(sec, {})
        if not isinstance(raw, dict):
            raise _bad(sec, "an object", raw)
    return raw.get(path[-1], _MISSING)


def _read(read, value, where: str, pf):
    try:
        return read(value, where, pf)
    except ProblemFileError:
        raise
    except ValueError as exc:  # a library constructor rejected the value
        raise ProblemFileError(f"{where}: {exc}")


def parse_problem_file(text: str, flags: dict | None = None) -> ProblemFile:
    """Validate and load a problem file, with field-level diagnostics.

    flags maps an attribute to (flag, value); it overrides the checked file value.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ProblemFileError("problem file must be a JSON object")
    pf = ProblemFile(raw=raw)
    for attr, (path, read, default) in _FIELDS.items():
        value = _lookup(raw, path) if path else _MISSING
        value = default if value is _MISSING else _read(read, value, ".".join(path), pf)
        if flags and attr in flags:
            value = _read(read, flags[attr][1], flags[attr][0], pf)
        for name, v in zip(attr, value) if isinstance(attr, tuple) else [(attr, value)]:
            setattr(pf, name, v)
    return pf


def emit_problem_file(pf: ProblemFile) -> str:
    return canonical_json(pf.raw)


# -- canonical serialization ----------------------------------------------


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def make_report(command: str, pf: ProblemFile, results: dict, diagnostics: dict) -> dict:
    return {
        "version": REPORT_VERSION,
        "command": command,
        "seed": pf.seed,
        "inputs": pf.raw,
        "results": results,
        "diagnostics": diagnostics,
    }


def _spectral_results(rep: dolbeault.SpectralReport) -> dict:
    out = {
        "dims": list(rep.dims),
        "index": rep.index,
        "sigma_kept": rep.sigma_kept,
        "sigma_cut": rep.sigma_cut,
        "stable": rep.stable,
        "conclusive": rep.conclusive,
        "N": rep.N,
    }
    if rep.kernel_modes_q0 is not None:
        out["kernel_modes_q0"] = [
            {"m": list(mode), "count": count} for mode, count in rep.kernel_modes_q0
        ]
    return out


# -- commands -------------------------------------------------------------


def _box(pf: ProblemFile, n: int) -> dolbeault.TruncationBox:
    return dolbeault.TruncationBox(pf.N) if pf.N else dolbeault.default_box(n)


def _spectral_inputs(pf: ProblemFile) -> tuple:
    """(cs, frame, connection, box, tol_rel); no connection means the trivial one."""
    conn = pf.connection or dolbeault.FreeConnection.trivial(pf.theta, pf.cs.n, 1)
    return pf.cs, complexstruct.antihol_frame(pf.cs), conn, _box(pf, pf.cs.n), pf.tol_rel


def _cmd_hodge(pf: ProblemFile):
    rep = dolbeault.cohomology_dims(*_spectral_inputs(pf))
    status = EXIT_OK if rep.stable else EXIT_INCONCLUSIVE
    return _spectral_results(rep), {"tol_rel": pf.tol_rel}, status


def _cmd_index(pf: ProblemFile):
    res = dolbeault.index(*_spectral_inputs(pf))
    results = {
        "index": res.index,
        "stable": res.stable,
        "conclusive": res.conclusive,
        "N": res.N,
    }
    diagnostics = {"sigma_kept": res.sigma_kept, "sigma_cut": res.sigma_cut}
    return results, diagnostics, EXIT_OK if res.stable else EXIT_INCONCLUSIVE


def _cmd_flatness(pf: ProblemFile):
    curv = dolbeault.flatness_curvature(pf.connection, complexstruct.antihol_frame(pf.cs))
    norms = [[entry.max_abs() for entry in row] for row in curv.entries]
    return {"is_flat": curv.is_flat, "max_abs": curv.max_abs,
            "entry_norms": norms}, {}, EXIT_OK


def _cmd_kunneth(pf: ProblemFile):
    return {"dims": list(reduce(dolbeault.kunneth_dims, pf.kunneth))}, {}, EXIT_OK


def _cmd_pushforward(pf: ProblemFile):
    theta_small, conn_small = pf.small
    frame_big = complexstruct.block_adapted_frame(pf.cs)
    pushed = dolbeault.pushforward_connection(theta_small, conn_small, pf.theta,
                                              pf.cs, frame_big)
    cs_small = complexstruct.ComplexStructure(1, pf.cs.J[:2, :2], tol=1e-9)
    frame_small = complexstruct.antihol_frame(cs_small)
    box = _box(pf, pf.cs.n)
    rep_small = dolbeault.cohomology_dims(cs_small, frame_small, conn_small,
                                          box, pf.tol_rel)
    rep_big = dolbeault.cohomology_dims(pf.cs, frame_big, pushed, box, pf.tol_rel)
    results = {
        "small": _spectral_results(rep_small),
        "big": _spectral_results(rep_big),
        "h0_bound_holds": rep_big.dims[0] >= rep_small.dims[0],
        "pushed_terms": [
            [[cell.to_terms() for cell in row] for row in term.entries]
            for term in pushed.terms
        ],
    }
    return results, {}, EXIT_OK if rep_small.stable and rep_big.stable else EXIT_INCONCLUSIVE


def _cmd_standard1d(pf: ProblemFile):
    rep = heisenberg1d.standard_module_cohomology(pf.module1d, pf.tol_rel)
    results = _spectral_results(rep)
    results["k0"] = {"rank": pf.module1d.p, "degree": pf.module1d.q}
    return results, {}, EXIT_OK if rep.stable else EXIT_INCONCLUSIVE


def _cmd_nonalg_scan(pf: ProblemFile):
    children = np.random.SeedSequence(pf.seed).spawn(pf.samples)
    seeds = [int(c.generate_state(1)[0]) for c in children]

    def one(seed: int) -> dict:
        rng = np.random.default_rng(seed)
        cs = complexstruct.random_complex_structure(2, rng)
        ent = np.triu(rng.uniform(-0.6, 0.6, size=(4, 4)), 1)
        theta = algebra.ThetaMatrix(ent - ent.T)
        cert = ktheory.nonalg_certificate(cs, theta, bound=pf.bound)
        return {**cert.to_dict(), "seed": seed}

    with ThreadPoolExecutor(max_workers=pf.workers) as pool:
        certs = list(pool.map(one, seeds))
    certified = sum(1 for c in certs if c["certified"])
    failures = [
        {"sample": i, **{k: c[k] for k in ("vanishing_pairs", "top_value", "seed")}}
        for i, c in enumerate(certs) if not c["certified"]
    ]
    results = {
        "samples": pf.samples,
        "bound": pf.bound,
        "certified": certified,
        "certified_fraction": certified / pf.samples if pf.samples else 0.0,
        "failures": failures,
    }
    return results, {"child_seeds": seeds[:8]}, EXIT_OK


def _cmd_riemann_check(pf: ProblemFile):
    res = riemann.riemann_form_search(pf.cs, bound=pf.bound, exact=pf.exact,
                                      exact_j=pf.exact_j)
    out = {
        "verdict": "found" if res.found else "none-within-bound",
        "bound": res.bound,
        "kernel_dim": res.kernel_dim,
        "exact": res.exact,
    }
    if res.found:
        out["form"] = res.form.E.astype(int).tolist()
        out["eigenvalues"] = [float(x) for x in res.hermitian.eigenvalues]
        out["divisors"] = list(riemann.frobenius_basis(res.form).divisors)
    return out, res.diagnostics, EXIT_INCONCLUSIVE if res.inconclusive else EXIT_OK


def _cmd_frobenius(pf: ProblemFile):
    fb = riemann.frobenius_basis(pf.form)
    return {
        "U": [[int(x) for x in row] for row in fb.U.tolist()],
        "divisors": list(fb.divisors),
    }, {}, EXIT_OK


def _cmd_decompose(pf: ProblemFile):
    fb = riemann.frobenius_basis(pf.form)
    pieces, reports = riemann.decompose_riemann_form(pf.form, fb, pf.cs)
    results = {
        "divisors": list(fb.divisors),
        "pieces": [
            {
                "S": [[int(x) for x in row] for row in p.E.tolist()],
                "eigenvalues": [float(x) for x in rep.eigenvalues],
                "compat_residual": rep.residual,
            }
            for p, rep in zip(pieces, reports)
        ],
    }
    return results, {}, EXIT_OK


def _cmd_siegel(pf: ProblemFile):
    res = riemann.siegel_normalize(complexstruct.period_from_j(pf.cs), pf.siegel_split)
    return {
        "omega": [[{"re": z.real, "im": z.imag} for z in row] for row in res.omega.tolist()],
        "symmetric": res.symmetric,
        "positive": res.positive,
    }, {}, EXIT_OK


def _cmd_splittorus(pf: ProblemFile):
    cs = complexstruct.j_from_period(pf.splittorus)
    return {
        "period": [[{"re": z.real, "im": z.imag} for z in row]
                   for row in pf.splittorus.Q.tolist()],
        "valid_complex_structure": True,
        "n": cs.n,
    }, {}, EXIT_OK


def _cmd_ncriemann_bound(pf: ProblemFile):
    res = riemann.ncriemann_h0_bound(pf.theta, pf.cs, pf.form, k=pf.multiplier)
    results = {
        "h0_lower_bound": res.h0_lower_bound,
        "degree": res.degree,
        "tau": {"re": res.tau.real, "im": res.tau.imag},
        "divisors": list(res.divisors),
        "stable": res.stable,
    }
    return results, {}, EXIT_OK if res.stable else EXIT_INCONCLUSIVE


def _cmd_detect_blocks(pf: ProblemFile):
    res = riemann.detect_block_structure(pf.theta, pf.cs)
    return {
        "product_type": res.product_type,
        "splitting": res.splitting,
        "theta12": res.theta12,
    }, {}, EXIT_OK


# command -> (function, the problem-file sections it needs)
_DISPATCH = {
    "hodge": (_cmd_hodge, ("theta", "cs")),
    "index": (_cmd_index, ("theta", "cs")),
    "flatness": (_cmd_flatness, ("theta", "cs", "connection")),
    "kunneth": (_cmd_kunneth, ("kunneth",)),
    "pushforward": (_cmd_pushforward, ("theta", "cs", "small")),
    "standard1d": (_cmd_standard1d, ("module1d",)),
    "nonalg-scan": (_cmd_nonalg_scan, ()),
    "riemann-check": (_cmd_riemann_check, ("cs",)),
    "frobenius": (_cmd_frobenius, ("form",)),
    "decompose": (_cmd_decompose, ("cs", "form")),
    "siegel": (_cmd_siegel, ("cs",)),
    "splittorus": (_cmd_splittorus, ("splittorus",)),
    "ncriemann-bound": (_cmd_ncriemann_bound, ("theta", "cs", "form")),
    "detect-blocks": (_cmd_detect_blocks, ("theta", "cs")),
}
COMMANDS = tuple(_DISPATCH)


def run(command: str, pf: ProblemFile) -> tuple[dict, int]:
    """Dispatch a command on a parsed problem file; returns (report, status)."""
    if command not in _DISPATCH:
        raise ProblemFileError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    cmd, needs = _DISPATCH[command]
    for section in needs:
        if getattr(pf, section) is None:
            raise ProblemFileError(f"command needs the problem-file section '{section}'")
    results, diagnostics, status = cmd(pf)
    return make_report(command, pf, results, diagnostics), status


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ProblemFileError(message)


def _build_parser():
    """The argument parser and the flags that override problem-file fields."""
    parser = _ArgumentParser(
        prog="nctorus",
        description="Spectral and lattice computations for noncommutative complex tori",
    )
    parser.add_argument("--input", required=True, help="problem file (JSON)")
    parser.add_argument("--command", required=True, help=f"one of: {', '.join(COMMANDS)}")
    parser.add_argument("--output", help="report file (default stdout)")
    # each flag overrides the ProblemFile attribute named by its dest
    flags = [
        parser.add_argument("--seed"),
        parser.add_argument("--truncation", dest="N", metavar="N"),
        parser.add_argument("--tol-rel"),
        parser.add_argument("--bound"),
        parser.add_argument("--exact", action="store_const", const=True),
        parser.add_argument("--samples"),
        parser.add_argument("--workers"),
    ]
    return parser, flags


# built once per process; parsing leaves it unchanged, so every main call shares it
_PARSER, _FLAGS = _build_parser()


def main(argv=None) -> int:
    output = None
    try:
        args = _PARSER.parse_args(argv)
        output = args.output
        given = {f.dest: (f.option_strings[0], getattr(args, f.dest))
                 for f in _FLAGS if getattr(args, f.dest) is not None}
        with open(args.input) as fh:
            pf = parse_problem_file(fh.read(), given)
        report, status = run(args.command, pf)
    except (np.linalg.LinAlgError, riemann.InternalCheckError) as exc:
        # a failed factorization (a ValueError subclass) or exact self-check
        # is a fault of the run, not of the input
        report = {"version": REPORT_VERSION, "error": f"{type(exc).__name__}: {exc}"}
        status = EXIT_INCONCLUSIVE
    except (ValueError, OSError) as exc:
        report, status = {"version": REPORT_VERSION, "error": str(exc)}, EXIT_INPUT
    except MemoryError as exc:  # a box outgrew memory; a smaller N is the remedy
        error = f"out of memory ({type(exc).__name__}: {exc}); try a smaller truncation N"
        report, status = {"version": REPORT_VERSION, "error": error}, EXIT_INPUT
    try:
        with open(output, "w") if output else contextlib.nullcontext(sys.stdout) as out:
            out.write(canonical_json(report))
    except OSError as exc:  # the report file cannot be written
        sys.stdout.write(canonical_json({"version": REPORT_VERSION, "error": str(exc)}))
        return EXIT_INPUT
    return status


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
