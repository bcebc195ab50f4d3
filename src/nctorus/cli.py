"""Problem-file parsing, command dispatch, and canonical report emission.

One JSON problem file feeds every command; commands ignore sections they
do not use.  Reports are serialized canonically (sorted keys, compact
separators) so identical inputs and seeds produce byte-identical output.

Exit status contract: 0 for conclusive results (including a clean
"none within bound"), 1 for invalid input, 2 for numerically
inconclusive results (gap or reduction failures).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra, complexstruct, dolbeault, heisenberg1d, ktheory, riemann

REPORT_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2

COMMANDS = (
    "hodge", "index", "flatness", "kunneth", "pushforward", "standard1d",
    "nonalg-scan", "riemann-check", "frobenius", "decompose", "siegel",
    "splittorus", "ncriemann-bound", "detect-blocks",
)


class ProblemFileError(ValueError):
    pass


# -- value parsing -------------------------------------------------------


def _parse_real(value, where: str):
    if isinstance(value, dict):
        if set(value) != {"num", "den"}:
            raise ProblemFileError(f"{where}: rational values need num and den")
        return Fraction(int(value["num"]), int(value["den"]))
    if isinstance(value, (int, float)):
        return value
    raise ProblemFileError(f"{where}: expected a number, got {type(value).__name__}")


def _parse_complex(value, where: str) -> tuple:
    """Returns (re, im) where each part is float or Fraction."""
    if isinstance(value, (int, float)):
        return value, 0.0
    if isinstance(value, list) and len(value) == 2:
        return _parse_real(value[0], where), _parse_real(value[1], where)
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        return (_parse_real(value.get("re", 0.0), where),
                _parse_real(value.get("im", 0.0), where))
    raise ProblemFileError(f"{where}: expected [re, im] or {{re, im}}")


def _matrix(value, where: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{where}: not a numeric matrix ({exc})")
    if arr.ndim != 2:
        raise ProblemFileError(f"{where}: expected a matrix")
    return arr


@dataclass
class ProblemFile:
    raw: dict
    n: int | None = None
    theta: algebra.ThetaMatrix | None = None
    cs: complexstruct.ComplexStructure | None = None
    exact_j: list | None = None
    connection: dolbeault.FreeConnection | None = None
    module1d: heisenberg1d.StandardModule1D | None = None
    form: riemann.IntegerSkewForm | None = None
    bound: int = 6
    exact: bool = False
    N: int | None = None
    tol_rel: float = 1e-8
    seed: int = 0
    samples: int = 100
    multiplier: int = 1
    kunneth: list | None = None
    small: dict | None = None
    splittorus: dict | None = None
    siegel_split: tuple | None = None


def _parse_theta(spec, n, where="theta") -> algebra.ThetaMatrix:
    if isinstance(spec, dict):
        keys = set(spec)
        if keys != {"product_blocks"}:
            raise ProblemFileError(f"{where}: exactly one of a matrix or product_blocks")
        blocks = spec["product_blocks"]
        if n is not None and len(blocks) != n:
            raise ProblemFileError(f"{where}: {len(blocks)} blocks but n = {n}")
        return algebra.ThetaMatrix.product([float(b) for b in blocks])
    arr = _matrix(spec, where)
    bad = np.argwhere(np.abs(arr + arr.T) > 0)
    if bad.size:
        i, j = bad[0]
        raise ProblemFileError(
            f"{where}: not skew-symmetric at entries ({int(i)},{int(j)}) and ({int(j)},{int(i)})"
        )
    try:
        return algebra.ThetaMatrix(arr)
    except ValueError as exc:
        raise ProblemFileError(f"{where}: {exc}")


def _parse_j(spec, n, where="J") -> tuple[complexstruct.ComplexStructure, list | None]:
    """Returns (cs, exact_j) where exact_j is a rational matrix when available."""
    if isinstance(spec, dict):
        keys = set(spec)
        if keys == {"period"}:
            rows = spec["period"]
            re_rows, im_rows = [], []
            rational = True
            for i, row in enumerate(rows):
                re_row, im_row = [], []
                for j, cell in enumerate(row):
                    re, im = _parse_complex(cell, f"{where}.period[{i}][{j}]")
                    rational = rational and isinstance(re, Fraction) and isinstance(im, Fraction)
                    re_row.append(re)
                    im_row.append(im)
                re_rows.append(re_row)
                im_rows.append(im_row)
            Q = np.array([[complex(float(a), float(b)) for a, b in zip(rr, ir)]
                          for rr, ir in zip(re_rows, im_rows)])
            try:
                cs = complexstruct.j_from_period(complexstruct.PeriodMatrix(Q))
            except ValueError as exc:
                raise ProblemFileError(f"{where}.period: {exc}")
            exact_j = riemann.exact_j_from_rational_period(re_rows, im_rows) if rational else None
            return cs, exact_j
        if keys == {"blocks"}:
            blocks = [_matrix(b, f"{where}.blocks") for b in spec["blocks"]]
            m = 2 * len(blocks)
            J = np.zeros((m, m))
            for i, b in enumerate(blocks):
                if b.shape != (2, 2):
                    raise ProblemFileError(f"{where}.blocks[{i}]: blocks must be 2x2")
                J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = b
            try:
                return complexstruct.ComplexStructure.from_matrix(J), None
            except ValueError as exc:
                raise ProblemFileError(f"{where}.blocks: {exc}")
        if keys == {"tau"}:
            re, im = _parse_complex(spec["tau"], f"{where}.tau")
            tau = complex(float(re), float(im))
            if tau.imag <= 0:
                raise ProblemFileError(f"{where}.tau: Im tau must be positive")
            return complexstruct.j_from_tau(tau), None
        raise ProblemFileError(f"{where}: exactly one of a matrix, period, blocks, or tau")
    arr = _matrix(spec, where)
    try:
        return complexstruct.ComplexStructure.from_matrix(arr), None
    except ValueError as exc:
        raise ProblemFileError(f"{where}: {exc}")


def _parse_connection(spec, theta, where="connection") -> dolbeault.FreeConnection:
    if not isinstance(spec, dict) or "rank" not in spec or "terms" not in spec:
        raise ProblemFileError(f"{where}: needs rank and terms")
    r = int(spec["rank"])
    terms = []
    for j, term in enumerate(spec["terms"]):
        if len(term) != r or any(len(row) != r for row in term):
            raise ProblemFileError(f"{where}.terms[{j}]: must be {r} x {r}")
        entries = [
            [algebra.FourierElement.from_terms(theta, cell) for cell in row]
            for row in term
        ]
        terms.append(algebra.MatrixElement(theta, entries))
    try:
        return dolbeault.FreeConnection(r, terms)
    except ValueError as exc:
        raise ProblemFileError(f"{where}: {exc}")


def _section(raw: dict, key: str) -> dict:
    sec = raw[key]
    if not isinstance(sec, dict):
        raise ProblemFileError(f"{key}: expected an object, got {type(sec).__name__}")
    return sec


def _number(value, convert, where: str):
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{where}: {exc}")


def parse_problem_file(text: str) -> ProblemFile:
    """Validate and load a problem file, with field-level diagnostics."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ProblemFileError("problem file must be a JSON object")
    pf = ProblemFile(raw=raw)
    pf.n = int(raw["n"]) if "n" in raw else None
    if "theta" in raw:
        pf.theta = _parse_theta(raw["theta"], pf.n)
        if pf.n is not None and pf.theta.d != 2 * pf.n:
            raise ProblemFileError(f"theta: size {pf.theta.d} but n = {pf.n}")
    if "J" in raw:
        pf.cs, pf.exact_j = _parse_j(raw["J"], pf.n)
        if pf.n is not None and pf.cs.n != pf.n:
            raise ProblemFileError(f"J: complex dimension {pf.cs.n} but n = {pf.n}")
    if "connection" in raw:
        if pf.theta is None:
            raise ProblemFileError("connection: needs a theta section")
        pf.connection = _parse_connection(raw["connection"], pf.theta)
    if "module1d" in raw:
        m = raw["module1d"]
        try:
            pf.module1d = heisenberg1d.StandardModule1D(
                q=int(m["q"]), p=int(m.get("p", 1)),
                tau=complex(float(m.get("tau_re", 0.0)), float(m.get("tau_im", 1.0))),
                M=int(m.get("M", 200)),
            )
        except (KeyError, ValueError) as exc:
            raise ProblemFileError(f"module1d: {exc}")
    if "form" in raw:
        try:
            pf.form = riemann.IntegerSkewForm(np.array(raw["form"], dtype=int))
        except ValueError as exc:
            raise ProblemFileError(f"form: {exc}")
    if "search" in raw:
        search = _section(raw, "search")
        pf.bound = _number(search.get("bound", 6), int, "search.bound")
        pf.exact = bool(search.get("exact", False))
    if "truncation" in raw:
        trunc = _section(raw, "truncation")
        pf.N = _number(trunc["N"], int, "truncation.N") if "N" in trunc else None
        pf.tol_rel = _number(trunc.get("tol_rel", 1e-8), float, "truncation.tol_rel")
    pf.seed = int(raw.get("seed", 0))
    pf.samples = int(raw.get("samples", 100))
    pf.multiplier = int(raw.get("multiplier", 1))
    if "kunneth" in raw:
        dims = _section(raw, "kunneth").get("dims")
        if not isinstance(dims, list) or not all(isinstance(d, list) for d in dims):
            raise ProblemFileError("kunneth.dims: expected a list of lists of dimensions")
        pf.kunneth = [[_number(x, int, "kunneth.dims") for x in d] for d in dims]
    if "small" in raw:
        pf.small = raw["small"]
    if "splittorus" in raw:
        pf.splittorus = raw["splittorus"]
    if "siegel" in raw and "split" in raw["siegel"]:
        pf.siegel_split = tuple(int(c) for c in raw["siegel"]["split"])
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
        "sigma_kept": rep.sigma_kept if rep.sigma_kept != float("inf") else "inf",
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


def _need(pf, *fields):
    for f in fields:
        if getattr(pf, f) is None:
            raise ProblemFileError(f"command needs the problem-file section '{f}'")


def _default_connection(pf: ProblemFile) -> dolbeault.FreeConnection:
    if pf.connection is not None:
        return pf.connection
    return dolbeault.FreeConnection.trivial(pf.theta, pf.cs.n, 1)


def _box(pf: ProblemFile, n: int) -> dolbeault.TruncationBox:
    return dolbeault.TruncationBox(pf.N) if pf.N else dolbeault.default_box(n)


def _cmd_hodge(pf: ProblemFile):
    _need(pf, "theta", "cs")
    frame = complexstruct.antihol_frame(pf.cs)
    conn = _default_connection(pf)
    rep = dolbeault.cohomology_dims(pf.cs, frame, conn, _box(pf, pf.cs.n), pf.tol_rel)
    status = EXIT_OK if rep.stable else EXIT_INCONCLUSIVE
    return _spectral_results(rep), {"tol_rel": pf.tol_rel}, status


def _cmd_index(pf: ProblemFile):
    _need(pf, "theta", "cs")
    frame = complexstruct.antihol_frame(pf.cs)
    conn = _default_connection(pf)
    res = dolbeault.index(pf.cs, frame, conn, _box(pf, pf.cs.n), pf.tol_rel)
    results = {
        "index": res.index,
        "stable": res.stable,
        "conclusive": res.conclusive,
        "N": res.N,
    }
    status = EXIT_OK if res.stable else EXIT_INCONCLUSIVE
    return results, {"sigma_kept": res.sigma_kept if res.sigma_kept != float("inf") else "inf",
                     "sigma_cut": res.sigma_cut}, status


def _cmd_flatness(pf: ProblemFile):
    _need(pf, "theta", "cs", "connection")
    frame = complexstruct.antihol_frame(pf.cs)
    curv = dolbeault.flatness_curvature(pf.connection, frame)
    norms = [[curv.entries[j][k].max_abs() for k in range(len(curv.entries))]
             for j in range(len(curv.entries))]
    return {"is_flat": curv.is_flat, "max_abs": curv.max_abs,
            "entry_norms": norms}, {}, EXIT_OK


def _cmd_kunneth(pf: ProblemFile):
    if not pf.kunneth or len(pf.kunneth) < 2:
        raise ProblemFileError("kunneth: needs a list of at least two graded dims")
    acc = tuple(pf.kunneth[0])
    for dims in pf.kunneth[1:]:
        acc = dolbeault.kunneth_dims(acc, dims)
    return {"dims": list(acc)}, {}, EXIT_OK


def _cmd_pushforward(pf: ProblemFile):
    _need(pf, "theta", "cs")
    if not pf.small:
        raise ProblemFileError("pushforward: needs a 'small' section")
    theta_small = _parse_theta(pf.small["theta"], 1, "small.theta")
    conn_small = _parse_connection(pf.small["connection"], theta_small, "small.connection")
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
    ok = rep_small.stable and rep_big.stable
    return results, {}, EXIT_OK if ok else EXIT_INCONCLUSIVE


def _cmd_standard1d(pf: ProblemFile):
    _need(pf, "module1d")
    rep = heisenberg1d.standard_module_cohomology(pf.module1d, pf.tol_rel)
    results = _spectral_results(rep)
    results["k0"] = {"rank": pf.module1d.p, "degree": pf.module1d.q}
    status = EXIT_OK if rep.stable else EXIT_INCONCLUSIVE
    return results, {}, status


def _sample_structures(seed: int, d: int = 4):
    rng = np.random.default_rng(seed)
    cs = complexstruct.random_complex_structure(d // 2, rng)
    ent = rng.uniform(-0.6, 0.6, size=(d, d))
    theta = algebra.ThetaMatrix(np.triu(ent, 1) - np.triu(ent, 1).T)
    return cs, theta


def _cmd_nonalg_scan(pf: ProblemFile, workers: int = 1):
    children = np.random.SeedSequence(pf.seed).spawn(pf.samples)
    seeds = [int(c.generate_state(1)[0]) for c in children]

    def one(seed: int) -> dict:
        cs, theta = _sample_structures(seed)
        cert = ktheory.nonalg_certificate(cs, theta, bound=pf.bound)
        return {**cert.to_dict(), "seed": seed}

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            certs = list(pool.map(one, seeds))
    else:
        certs = [one(s) for s in seeds]
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


def _form_results(res: riemann.RiemannSearchResult) -> dict:
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
    return out


def _cmd_riemann_check(pf: ProblemFile):
    _need(pf, "cs")
    if pf.exact and pf.exact_j is None:
        raise ProblemFileError(
            "search.exact needs J given as a rational period matrix"
        )
    res = riemann.riemann_form_search(pf.cs, bound=pf.bound, exact=pf.exact,
                                      exact_j=pf.exact_j)
    status = EXIT_INCONCLUSIVE if res.inconclusive else EXIT_OK
    return _form_results(res), res.diagnostics, status


def _cmd_frobenius(pf: ProblemFile):
    _need(pf, "form")
    fb = riemann.frobenius_basis(pf.form)
    return {
        "U": [[int(x) for x in row] for row in fb.U.tolist()],
        "divisors": list(fb.divisors),
    }, {}, EXIT_OK


def _cmd_decompose(pf: ProblemFile):
    _need(pf, "cs", "form")
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
    _need(pf, "cs")
    pm = complexstruct.period_from_j(pf.cs)
    res = riemann.siegel_normalize(pm, pf.siegel_split)
    return {
        "omega": [[{"re": z.real, "im": z.imag} for z in row] for row in res.omega.tolist()],
        "symmetric": res.symmetric,
        "positive": res.positive,
    }, {}, EXIT_OK


def _cmd_splittorus(pf: ProblemFile):
    if not pf.splittorus:
        raise ProblemFileError("splittorus: needs the splittorus section")
    sec = pf.splittorus
    vals = {}
    for key in ("tau", "tau_prime", "w"):
        re, im = _parse_complex(sec[key], f"splittorus.{key}")
        vals[key] = complex(float(re), float(im))
    pm = riemann.split_torus_example(vals["tau"], vals["tau_prime"], vals["w"])
    cs = complexstruct.j_from_period(pm)
    return {
        "period": [[{"re": z.real, "im": z.imag} for z in row] for row in pm.Q.tolist()],
        "valid_complex_structure": True,
        "n": cs.n,
    }, {}, EXIT_OK


def _cmd_ncriemann_bound(pf: ProblemFile):
    _need(pf, "theta", "cs", "form")
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
    _need(pf, "theta", "cs")
    res = riemann.detect_block_structure(pf.theta, pf.cs)
    return {
        "product_type": res.product_type,
        "splitting": res.splitting,
        "theta12": res.theta12,
    }, {}, EXIT_OK


_DISPATCH = {
    "hodge": _cmd_hodge,
    "index": _cmd_index,
    "flatness": _cmd_flatness,
    "kunneth": _cmd_kunneth,
    "pushforward": _cmd_pushforward,
    "standard1d": _cmd_standard1d,
    "riemann-check": _cmd_riemann_check,
    "frobenius": _cmd_frobenius,
    "decompose": _cmd_decompose,
    "siegel": _cmd_siegel,
    "splittorus": _cmd_splittorus,
    "ncriemann-bound": _cmd_ncriemann_bound,
    "detect-blocks": _cmd_detect_blocks,
}


def run(command: str, pf: ProblemFile, workers: int = 1) -> tuple[dict, int]:
    """Dispatch a command on a parsed problem file; returns (report, status)."""
    if command == "nonalg-scan":
        results, diagnostics, status = _cmd_nonalg_scan(pf, workers)
    elif command in _DISPATCH:
        results, diagnostics, status = _DISPATCH[command](pf)
    else:
        raise ProblemFileError(f"unknown command {command!r}; choose from {COMMANDS}")
    return make_report(command, pf, results, diagnostics), status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Spectral and lattice computations for noncommutative complex tori",
    )
    parser.add_argument("--input", required=True, help="problem file (JSON)")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--output", default=None, help="report file (default stdout)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--truncation", type=int, default=None, metavar="N")
    parser.add_argument("--tol-rel", type=float, default=None)
    parser.add_argument("--bound", type=int, default=None)
    parser.add_argument("--exact", action="store_true", default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    def emit(payload: dict) -> None:
        text = canonical_json(payload)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

    try:
        with open(args.input) as fh:
            pf = parse_problem_file(fh.read())
        if args.seed is not None:
            pf.seed = args.seed
        if args.truncation is not None:
            pf.N = args.truncation
        if args.tol_rel is not None:
            pf.tol_rel = args.tol_rel
        if args.bound is not None:
            pf.bound = args.bound
        if args.exact:
            pf.exact = True
        if args.samples is not None:
            pf.samples = args.samples
        report, status = run(args.command, pf, workers=args.workers)
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a failed factorization is numerics, not input
        emit({"version": REPORT_VERSION, "error": f"numerical failure: {exc}"})
        return EXIT_INCONCLUSIVE
    except riemann.InternalCheckError as exc:
        # an exact self-check of a result failed: a fault of the run, not the input
        emit({"version": REPORT_VERSION, "error": str(exc)})
        return EXIT_INCONCLUSIVE
    except (ProblemFileError, OSError) as exc:
        emit({"version": REPORT_VERSION, "error": str(exc)})
        return EXIT_INPUT
    except ValueError as exc:
        emit({"version": REPORT_VERSION, "error": str(exc)})
        return EXIT_INPUT
    emit(report)
    return status


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
