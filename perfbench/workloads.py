"""The benchmark's three workloads: seeded inputs, requests and output checks.

Every workload is a pool of requests generated from the workload seed with
numpy alone, so the program only ever sees the generated inputs.  A request
runs the library calls a user would make and returns their raw outputs;
``check`` compares those outputs with references computed at set-up from
numpy (``svd``, ``eigh`` and closed forms), never from the library's own
routes.  ``check`` returns the number of correct digits against the
reference, or raises :class:`CheckFailed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import wrearr
from wrearr import formats, verify

MAX_DIGITS = 16.0

# Block sizes 12..32 visited with stride 8 (coprime to 21), so any stretch of
# consecutive requests mixes small and large blocks evenly.
SPECTRAL_SIZES = [12 + (8 * j) % 21 for j in range(21)]
# The extreme-magnitude share scales by 2^k.  The range is the widest on which
# the seed passes every check: 2^-30 gives wrong projections and 2^255 wrong
# singular values (absolute Jacobi thresholds and squared column norms).
SPECTRAL_SCALE_EXPONENTS = (-8, 240)
ORLICZ_PIECES = [200 + 100 * ((4 * j) % 9) for j in range(9)]
# Membership probes scales 2^-30..2^30 only, so levels spread wider than
# 2^+-28 are reported as non-members of cosh-1 and capped:1.0 at the seed.
ORLICZ_LEVEL_SPREAD = 24
ORLICZ_DOMAIN = 10.0
ORLICZ_NORMS = ["orlicz:cosh-1", "orlicz:llogl", "orlicz:pow:3", "orlicz:capped:1.0", "L2.5"]
VERIFY_TRIALS = 5
EXTREME_EVERY = 10

SV_TOL = 1e-10
PROJECTION_TOL = 1e-8
VALUE_TOL = 1e-10
ROUTE_GAP_TOL = 1e-8
CLOSED_FORM_TOL = 1e-9


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


@dataclass
class Request:
    inputs: dict
    reference: dict


def digits(rel_err):
    """Correct decimal digits for a relative error, capped at 16."""
    if rel_err <= 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(rel_err))


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- weights ------------------------------------------------------------------


def _random_weight_obj(rng, use_exp):
    if use_exp:
        return {"kind": "exp"}
    k = int(rng.integers(1, 7))
    widths = rng.uniform(0.5, 3.0, size=k)
    ratios = rng.uniform(0.3, 0.9, size=k - 1)
    values = rng.uniform(0.5, 3.0) * np.concatenate([[1.0], np.cumprod(ratios)])
    return {
        "kind": "step",
        "mu": {
            "breakpoints": np.concatenate([[0.0], np.cumsum(widths)]).tolist(),
            "values": values.tolist(),
        },
    }


def _cumulative_weight(weight_obj, t):
    """W(t) = integral of the weight density over [0, t), in numpy."""
    t = np.asarray(t, dtype=float)
    if weight_obj["kind"] == "exp":
        return -np.expm1(-t)
    bp = np.asarray(weight_obj["mu"]["breakpoints"])
    cum = np.concatenate([[0.0], np.cumsum(np.diff(bp) * np.asarray(weight_obj["mu"]["values"]))])
    return np.interp(t, bp, cum)


def _masses(weight_obj, lengths):
    """Weight mass of consecutive intervals of the given lengths from 0."""
    ends = np.concatenate([[0.0], np.cumsum(lengths)])
    return np.diff(_cumulative_weight(weight_obj, ends))


# -- spectral-blocks ------------------------------------------------------------


def spectral_inputs(rng, i):
    n = SPECTRAL_SIZES[i % len(SPECTRAL_SIZES)]
    block = rng.standard_normal((n, n))
    if i % EXTREME_EVERY == EXTREME_EVERY - 1:
        lo, hi = SPECTRAL_SCALE_EXPONENTS
        block = np.ldexp(block, int(rng.integers(lo, hi + 1)))
    return {
        "operator": {
            "algebra": {"kind": "matrix", "blocks": [n], "weights": [float(rng.uniform(0.5, 2.0))]},
            "blocks": [block.ravel().tolist()],
        },
        "weight": _random_weight_obj(rng, use_exp=i % 2 == 1),
        "theta_index": int(rng.integers(0, n - 1)),
    }


def spectral_reference(inputs):
    op = inputs["operator"]
    n = op["algebra"]["blocks"][0]
    lam = op["algebra"]["weights"][0]
    block = np.asarray(op["blocks"][0]).reshape(n, n)
    s = np.linalg.svd(block, compute_uv=False)
    j = inputs["theta_index"]
    _, vecs = np.linalg.eigh(block.T @ block)
    top = vecs[:, ::-1][:, : j + 1]
    masses = _masses(inputs["weight"], np.full(n, lam))
    return {
        "singular_values": s,
        "theta": math.sqrt(s[j] * s[j + 1]),
        "projection": top @ top.T,
        "trace": float(s @ masses),
        "l2": math.sqrt(float((s * s) @ masses)),
    }


def spectral_request(inputs, reference):
    a = formats.parse_operator(inputs["operator"])
    ctx = wrearr.WeightedContext(a.algebra, formats.parse_weight(inputs["weight"]))
    l2 = wrearr.NormSpec.parse("L2")
    return {
        "trace": wrearr.weighted_trace(ctx, a),
        "l2_a": wrearr.norm_route_a(ctx, l2, a),
        "l2_b": wrearr.norm_route_b(ctx, l2, a),
        "singular_values": wrearr.singular_value_function(a).values,
        "projection": wrearr.spectral_projection(wrearr.absolute(a), reference["theta"]).blocks[0],
    }


def spectral_check(ref, out):
    s_ref = ref["singular_values"]
    sv = np.asarray(out["singular_values"])
    _require(sv.shape == s_ref.shape, f"{sv.size} distinct singular values, expected {s_ref.size}")
    sv_err = float(np.max(np.abs(sv - s_ref))) / s_ref[0]
    _require(sv_err <= SV_TOL, f"singular values off by {sv_err:.3e} of the largest")
    proj_err = float(np.max(np.abs(out["projection"] - ref["projection"])))
    _require(proj_err <= PROJECTION_TOL, f"spectral projection off by {proj_err:.3e}")
    errs = [sv_err, proj_err]
    for key, ref_key in (("trace", "trace"), ("l2_a", "l2"), ("l2_b", "l2")):
        err = _rel(out[key], ref[ref_key])
        _require(err <= VALUE_TOL, f"{key} off by {err:.3e} relative")
        errs.append(err)
    return digits(max(errs))


# -- orlicz-multipliers -----------------------------------------------------------


def orlicz_inputs(rng, i):
    pieces = ORLICZ_PIECES[i % len(ORLICZ_PIECES)]
    bp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, size=pieces))])
    bp *= ORLICZ_DOMAIN / bp[-1]
    bp[-1] = ORLICZ_DOMAIN
    levels = rng.uniform(0.05, 2.0, size=pieces) * rng.choice([-1.0, 1.0], size=pieces)
    if i % EXTREME_EVERY == EXTREME_EVERY - 1:
        levels = levels * np.exp2(rng.uniform(-ORLICZ_LEVEL_SPREAD, ORLICZ_LEVEL_SPREAD, size=pieces))
    return {
        "operator": {
            "algebra": {"kind": "steps", "bound": ORLICZ_DOMAIN},
            "step": {"breakpoints": bp.tolist(), "values": levels.tolist()},
        },
        "weight": _random_weight_obj(rng, use_exp=i % 2 == 1),
    }


def orlicz_reference(inputs):
    step = inputs["operator"]["step"]
    levels = np.abs(np.asarray(step["values"]))
    lengths = np.diff(step["breakpoints"])
    order = np.argsort(-levels, kind="stable")
    levels = levels[order]
    masses = _masses(inputs["weight"], lengths[order])
    return {
        "orlicz:pow:3": float((masses @ levels**3) ** (1.0 / 3.0)),
        "L2.5": float((masses @ levels**2.5) ** (1.0 / 2.5)),
    }


def orlicz_request(inputs, reference):
    a = formats.parse_operator(inputs["operator"])
    ctx = wrearr.WeightedContext(a.algebra, formats.parse_weight(inputs["weight"]))
    out = {}
    for text in ORLICZ_NORMS:
        spec = wrearr.NormSpec.parse(text)
        out[text] = (
            wrearr.norm_route_a(ctx, spec, a),
            wrearr.norm_route_b(ctx, spec, a),
            wrearr.membership_route_a(ctx, spec, a),
            wrearr.membership_route_b(ctx, spec, a),
        )
    return out


def orlicz_check(ref, out):
    errs = []
    for text in ORLICZ_NORMS:
        na, nb, ma, mb = out[text]
        _require(ma == mb, f"{text}: membership routes disagree ({ma} vs {mb})")
        _require(
            ma == math.isfinite(na) == math.isfinite(nb),
            f"{text}: membership {ma} but norms {na!r}, {nb!r}",
        )
        if ma:
            gap = abs(na - nb) / max(abs(na), abs(nb)) if na or nb else 0.0
            _require(gap <= ROUTE_GAP_TOL, f"{text}: routes differ by {gap:.3e} relative")
        if text in ref:
            for value in (na, nb):
                err = _rel(value, ref[text])
                _require(err <= CLOSED_FORM_TOL, f"{text}: off the closed form by {err:.3e}")
                errs.append(err)
    return digits(max(errs))


# -- verify-suite ------------------------------------------------------------------


def verify_inputs(rng, i):
    return {
        "property": verify.PROPERTY_NAMES[i % len(verify.PROPERTY_NAMES)],
        "seed": int(rng.integers(0, 2**31)),
    }


def verify_reference(inputs):
    return {}


def verify_request(inputs, reference):
    return verify.run_property(inputs["property"], inputs["seed"], trials=VERIFY_TRIALS)


def verify_check(ref, result):
    _require(
        result.failures == 0,
        f"{result.name}: {result.failures} of {result.trials} trials failed "
        f"(worst residual {result.worst_residual:.3e}, tolerance {result.tolerance:.1e})",
    )
    return digits(result.worst_residual)


# -- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # requests before the size (or property) order repeats
    pool_cycles: int  # distinct cycles in the pool; a longer run wraps round
    make_inputs: object
    make_reference: object
    request: object
    check: object

    def build_pool(self, seed):
        """The seeded request pool; the same seed gives identical inputs."""
        rng = np.random.default_rng(int(seed))
        inputs = [self.make_inputs(rng, i) for i in range(self.pool_cycles * self.cycle)]
        return [Request(x, self.make_reference(x)) for x in inputs]


# Pools hold about one 30-second run at the seed's speed, so that a run's
# statistics rest on distinct inputs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectral-blocks", len(SPECTRAL_SIZES), 8,
                 spectral_inputs, spectral_reference, spectral_request, spectral_check),
        Workload("orlicz-multipliers", len(ORLICZ_PIECES), 56,
                 orlicz_inputs, orlicz_reference, orlicz_request, orlicz_check),
        Workload("verify-suite", len(verify.PROPERTY_NAMES), 32,
                 verify_inputs, verify_reference, verify_request, verify_check),
    )
}
