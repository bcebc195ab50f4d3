"""Seeded problem sets and report checks for the nctorus benchmark.

A workload is a fixed list of items.  An item is one CLI report: a
problem file, a command with its arguments, and what a correct report
must say.  Every number in a problem file (Theta, J, connection
coefficients, moduli, forms) is drawn from ``numpy.random.default_rng``
seeded by the benchmark seed, in a fixed order, so one seed always gives
the same files.  The expected answers hold for every seed: they follow
from the mathematics, not from a stored run.

``tiny=True`` shrinks every item (truncation, samples, search bound) and
is used for warm-up and for the benchmark's own tests.

An item with ``timed=False`` is left out of the timed passes: the run
ends with it, once, so that it counts in peak memory and in the checks but
in no latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from nctorus import complexstruct

WORKLOADS = ("hodge-chain", "hodge-uncoupled", "index-grid", "certify-lattice")

# Three axis steps, a diagonal step and a mixed step.  The axis chains are
# the longest and their `hodge` reports cost most; with three of them in ten
# reports per pass the tail (see run.tail) falls inside that group, not on
# its edge.
CHAIN_STEPS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, -1))

# Result fields that make up a report's correctness digest: dims, flags,
# verdicts and exact counts.  Singular values (sigma_*) and other floats are
# left out because they may move at rounding level.
DIGEST_FIELDS = (
    "dims", "index", "stable", "conclusive", "N", "kernel_modes_q0",
    "verdict", "kernel_dim", "exact", "samples", "bound", "certified",
    "divisors", "h0_lower_bound", "degree", "product_type", "splitting",
    "symmetric", "positive", "k0",
)


@dataclass
class Item:
    label: str
    command: str
    problem: dict
    expect: dict
    args: tuple = ()
    timed: bool = True


# -- shared random pieces ----------------------------------------------------


def _skew(rng, d: int, spread: float) -> list:
    upper = np.triu(rng.uniform(-spread, spread, (d, d)), 1)
    return (upper - upper.T).tolist()


def _unit_phase(rng, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(2j * math.pi * rng.uniform()))


def _modulus(rng) -> complex:
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.5))


def _coeff(m, c: complex) -> dict:
    return {"m": [int(x) for x in m], "re": float(c.real), "im": float(c.imag)}


def _zero_terms(n: int, r: int) -> list:
    return [[[[] for _ in range(r)] for _ in range(r)] for _ in range(n)]


def _spectral(label, command, problem, N, **expect) -> Item:
    problem = dict(problem, truncation={"N": N})
    return Item(label, command, problem, {"kind": command, **expect})


# -- workloads ---------------------------------------------------------------


def hodge_chain(seed: int, tiny: bool = False) -> list[Item]:
    """Flat n = 2 gradient chains a_j = c (W s)_j U^s along five steps."""
    rng = np.random.default_rng([seed, 1])
    N = 1 if tiny else 4
    theta = _skew(rng, 4, 0.7)
    cs = complexstruct.random_complex_structure(2, rng)
    W = complexstruct.antihol_frame(cs).W
    base = {"n": 2, "theta": theta, "J": cs.J.tolist()}
    items = []
    for s in CHAIN_STEPS:
        c = _unit_phase(rng, 0.3, 0.7)
        ws = W @ np.array(s, dtype=float)
        conn = {"rank": 1, "terms": [[[[_coeff(s, c * w)]]] for w in ws]}
        problem = dict(base, connection=conn)
        name = "".join(str(x) for x in s)
        items.append(_spectral(f"chain{name}/hodge", "hodge", problem, N, dims=[1, 2, 1]))
        items.append(_spectral(f"chain{name}/index", "index", problem, N))
    return items


def hodge_uncoupled(seed: int, tiny: bool = False) -> list[Item]:
    """Two scalar shifts at n = 2 and the trivial connection at n = 3, r = 1, 2.

    The closed-form trivial path is bound by memory traffic, and its time
    follows the machine's drift about four times as much as the shift
    path's.  The timed trivial reports therefore run at N = 2 (an N + 2 box
    of 9^6 modes), where they take an eighth of the pass, and the four shift
    reports hold the median and the tail.  The untimed memory probe runs at
    N = 4, whose N + 2 box of 13^6 modes streams in three chunks, so peak
    memory shows what chunking saves; a report there takes about 2 s and
    varies by about 20% from one report to the next.
    """
    rng = np.random.default_rng([seed, 2])
    theta2 = _skew(rng, 4, 0.7)
    cs2 = complexstruct.random_complex_structure(2, rng)
    N2 = 2 if tiny else 8
    items = []
    for k in range(2):
        shifts = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        conn = {"rank": 1, "terms": [[[[_coeff((0, 0, 0, 0), c)]]] for c in shifts]}
        problem = {"n": 2, "theta": theta2, "J": cs2.J.tolist(), "connection": conn}
        items.append(_spectral(f"shift{k}/hodge", "hodge", problem, N2, dims=[0, 0, 0]))
        items.append(_spectral(f"shift{k}/index", "index", problem, N2))
    theta3 = {"product_blocks": [float(x) for x in rng.uniform(0.1, 0.9, 3)]}
    cs3 = complexstruct.random_complex_structure(3, rng)
    for label, r, N3 in (("trivial3r1", 1, 2), ("trivial3r2", 2, 2),
                         ("memory/trivial3r1N4", 1, 4)):
        problem = {"n": 3, "theta": theta3, "J": cs3.J.tolist(),
                   "connection": {"rank": r, "terms": _zero_terms(3, r)}}
        items.append(_spectral(
            f"{label}/hodge", "hodge", problem, 1 if tiny else N3,
            dims=[r * math.comb(3, q) for q in range(4)],
            kernel_modes_q0=[{"m": [0] * 6, "count": r}],
        ))
    items[-1].timed = False
    return items


def index_grid(seed: int, tiny: bool = False) -> list[Item]:
    """Four non-flat connections coupling two directions; index only.

    J is a product of two elliptic curves with seeded moduli and Theta is
    generic.  With a generic J instead, about one seed in eight puts a
    singular value of the even-to-odd operator inside the threshold band
    at this truncation, and the program rightly reports exit 2.
    """
    rng = np.random.default_rng([seed, 3])
    theta = _skew(rng, 4, 0.7)
    blocks = [complexstruct.j_from_tau(_modulus(rng)).J.tolist() for _ in range(2)]
    base = {"n": 2, "theta": theta, "J": {"blocks": blocks}}
    N = 1 if tiny else 2
    items = []
    for k in range(4):
        c1, c2 = _unit_phase(rng, 0.9, 1.3), _unit_phase(rng, 0.9, 1.3)
        conn = {"rank": 1, "terms": [[[[_coeff((1, 0, 0, 0), c1)]]],
                                     [[[_coeff((0, 1, 0, 0), c2)]]]]}
        items.append(_spectral(f"grid{k}/index", "index", dict(base, connection=conn), N))
    return items


def _rational(x: float, den: int = 10 ** 7) -> dict:
    return {"num": int(round(x * den)), "den": den}


def _product_period(taus) -> list:
    zero = [0.0, 0.0]
    return [[[taus[0].real, taus[0].imag], zero, [1.0, 0.0], zero],
            [zero, [taus[1].real, taus[1].imag], zero, [1.0, 0.0]]]


def _unimodular(rng, size: int) -> np.ndarray:
    P = np.eye(size, dtype=int)
    for _ in range(6):
        i, j = rng.choice(size, 2, replace=False)
        P[:, j] += int(rng.choice([-2, -1, 1, 2])) * P[:, i]
    return P


def certify_lattice(seed: int, tiny: bool = False) -> list[Item]:
    """Riemann forms, Frobenius reduction, certificates, standard modules.

    The scan is the costliest report of a pass (about 1.2 s).  Three exact
    searches at bound 4 (about 0.5 s each, against 0.9 s at bound 5) come
    next, with a clear gap below the scan, so the tail (see run.tail) falls
    inside their group.
    """
    rng = np.random.default_rng([seed, 4])
    items = []
    bound = 2 if tiny else 6
    for k in range(3):
        tau = [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.3, 2.0))]
        items.append(Item(f"curve{k}/riemann-check", "riemann-check",
                          {"n": 1, "J": {"tau": tau}, "search": {"bound": bound}},
                          {"kind": "form-found"}))

    zero, one = {"num": 0, "den": 1}, {"num": 1, "den": 1}
    for k in range(3):
        w = (_rational(rng.uniform(0.1, 0.9)), _rational(rng.uniform(0.1, 0.9)))
        split = [[{"re": one, "im": zero}, {"re": zero, "im": one},
                  {"re": zero, "im": zero}, {"re": w[0], "im": w[1]}],
                 [{"re": zero, "im": zero}, {"re": zero, "im": zero},
                  {"re": one, "im": zero}, {"re": zero, "im": one}]]
        items.append(Item(f"splittorus{k}/riemann-check-exact", "riemann-check",
                          {"n": 2, "J": {"period": split},
                           "search": {"bound": 2 if tiny else 4}},
                          {"kind": "form-none"}, ("--exact",)))

    samples = 8 if tiny else 100
    items.append(Item("scan/nonalg-scan", "nonalg-scan",
                      {"seed": int(rng.integers(2 ** 31)), "samples": samples,
                       "search": {"bound": 3 if tiny else 5}},
                      {"kind": "nonalg-scan"}, ("--workers", "1")))

    d1 = int(rng.choice([1, 2]))
    divisors = [d1, d1 * int(rng.choice([1, 2, 3]))]
    E0 = np.zeros((4, 4), dtype=int)
    E0[0, 2], E0[1, 3] = divisors
    E0 = E0 - E0.T
    P = _unimodular(rng, 4)
    items.append(Item("form/frobenius", "frobenius", {"form": (P.T @ E0 @ P).tolist()},
                      {"kind": "frobenius", "divisors": divisors}))

    taus = [_modulus(rng) for _ in range(2)]
    product = {"n": 2, "J": {"period": _product_period(taus)}, "form": E0.tolist()}
    items.append(Item("product/decompose", "decompose", product,
                      {"kind": "decompose", "divisors": divisors}))
    multiplier = int(rng.choice([1, 2]))
    thetas = [float(x) for x in rng.uniform(0.1, 0.9, 2)]
    items.append(Item("product/ncriemann-bound", "ncriemann-bound",
                      dict(product, theta={"product_blocks": thetas}, multiplier=multiplier),
                      {"kind": "ncriemann", "h0": multiplier * divisors[0]}))
    items.append(Item("product/siegel", "siegel", {"n": 2, "J": product["J"]},
                      {"kind": "siegel"}))

    blocks = [complexstruct.j_from_tau(t).J.tolist() for t in taus]
    items.append(Item("product/detect-blocks", "detect-blocks",
                      {"n": 2, "theta": {"product_blocks": thetas}, "J": {"blocks": blocks}},
                      {"kind": "detect-blocks", "theta12": thetas[0]}))

    # twelve standard modules hold the middle of the pass, well inside their
    # group rather than at its edge: their cost does not depend on the seeded
    # degree and modulus, so the median report does not move with the seed
    for k in range(12):
        q = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        module = {"q": q, "tau_re": float(rng.uniform(-0.5, 0.5)),
                  "tau_im": float(rng.uniform(0.7, 2.0)), "M": 40 if tiny else 200}
        items.append(Item(f"module{k}/standard1d", "standard1d", {"module1d": module},
                          {"kind": "standard1d", "degree": q}))
    return items


GENERATORS = {
    "hodge-chain": hodge_chain,
    "hodge-uncoupled": hodge_uncoupled,
    "index-grid": index_grid,
    "certify-lattice": certify_lattice,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Item]:
    return GENERATORS[workload](seed, tiny)


# -- checks ------------------------------------------------------------------


def _check_spectral(res: dict, expect: dict) -> list[str]:
    errors = []
    if res.get("stable") is not True:
        errors.append("not stable")
    if res.get("index") != 0:
        errors.append(f"index {res.get('index')} != 0")
    dims = res.get("dims")
    if expect["kind"] == "hodge":
        alt = sum((-1) ** q * d for q, d in enumerate(dims or []))
        if alt != res.get("index"):
            errors.append(f"index {res.get('index')} != alternating dim sum {alt}")
        if dims != expect["dims"]:
            errors.append(f"dims {dims} != {expect['dims']}")
        if "kernel_modes_q0" in expect and res.get("kernel_modes_q0") != expect["kernel_modes_q0"]:
            errors.append(f"kernel_modes_q0 {res.get('kernel_modes_q0')}")
    return errors


def _check_scan(res: dict, expect: dict) -> list[str]:
    errors = []
    if res.get("certified_fraction", 0.0) < 0.95:
        errors.append(f"certified fraction {res.get('certified_fraction')} < 0.95")
    for f in res.get("failures", []):
        top = abs(complex(f["top_value"]["re"], f["top_value"]["im"]))
        if not f["vanishing_pairs"] and top > 1e-8:
            errors.append(f"unexplained certificate failure at sample {f['sample']}")
    return errors


def _check_fields(res: dict, expect: dict) -> list[str]:
    kind = expect["kind"]
    want = {
        "form-found": {"verdict": "found"},
        "form-none": {"verdict": "none-within-bound", "exact": True},
        "frobenius": {"divisors": expect.get("divisors")},
        "siegel": {"symmetric": True, "positive": True},
        "detect-blocks": {"product_type": True, "splitting": True},
        "ncriemann": {"stable": True, "h0_lower_bound": expect.get("h0"),
                      "degree": expect.get("h0")},
        "standard1d": {"stable": True, "index": expect.get("degree")},
        "decompose": {"divisors": expect.get("divisors")},
    }[kind]
    errors = [f"{k} {res.get(k)!r} != {v!r}" for k, v in want.items() if res.get(k) != v]
    if kind == "detect-blocks" and abs(res["theta12"] - expect["theta12"]) > 1e-12:
        errors.append(f"theta12 {res.get('theta12')} != {expect['theta12']}")
    if kind == "standard1d" and sum(res.get("dims", [])) != abs(expect["degree"]):
        errors.append(f"dims {res.get('dims')} do not sum to |degree|")
    if kind == "decompose":
        pieces = res.get("pieces", [])
        if len(pieces) != 2 or any(p["compat_residual"] > 1e-8 for p in pieces):
            errors.append("product form does not split into two compatible pieces")
    return errors


def check(item: Item, code: int, report: dict) -> list[str]:
    """Reasons the report is wrong; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}: {report.get('error', '')}"]
    res = report.get("results")
    if not isinstance(res, dict) or report.get("command") != item.command:
        return ["report has no results for its command"]
    kind = item.expect["kind"]
    checker = {"hodge": _check_spectral, "index": _check_spectral,
               "nonalg-scan": _check_scan}.get(kind, _check_fields)
    try:
        return checker(res, item.expect)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed results: {exc!r}"]


def digest_record(item: Item, code: int, report: dict) -> dict:
    res = report.get("results", {})
    return {"label": item.label, "code": code,
            **{k: res[k] for k in DIGEST_FIELDS if k in res}}
