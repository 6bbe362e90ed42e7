"""Orlicz functions, Luxemburg norms, and the two weighted routes.

Every norm is the Luxemburg norm of an Orlicz function: Lp is the Orlicz norm
of ``u^p``, and L-infinity that of the step function that is 0 on [0, 1] and
infinite beyond, so Lp norms share the Orlicz closed forms and membership
rule.  A weighted norm of an operator can be computed two ways: apply the
norm to the singular value function under the weight's measure, or apply it
to the weighted rearrangement under Lebesgue measure.  The two routes agree,
and their agreement is one of the package's central machine-checked facts.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .algebra import singular_value_function
from .errors import NormOverflowError, ParseError, ValidationError
from .stepfn import LEBESGUE, _live, integrate
from .weighted import weighted_rearrangement

__all__ = [
    "OrliczFunction",
    "power",
    "cosh_minus_one",
    "l_log_l",
    "capped",
    "NormSpec",
    "modular",
    "luxemburg_norm",
    "norm_route_a",
    "norm_route_b",
    "membership_route_a",
    "membership_route_b",
]

LUXEMBURG_RELATIVE_WIDTH = 2.0**-50  # 4 eps: a few units in the last place
_FLOAT_MAX = sys.float_info.max


class OrliczFunction:
    """A convex non-decreasing function on [0, inf] with value 0 at 0.

    ``finite_threshold`` is the supremum of the region where the function is
    finite (``inf`` when it is finite everywhere); evaluation at ``inf``
    yields ``inf``.  ``atom_norm(levels, masses)``, when given, returns the
    Luxemburg norm in closed form from a function's levels on its pieces of
    positive mass, finite and not all zero, and those masses; without it
    :func:`luxemburg_norm` finds the norm by a bracketed Anderson–Björck
    search.  The builtins are built once per parameter and shared, so they
    are never to be modified.
    """

    __slots__ = ("name", "_fn", "finite_threshold", "atom_norm")

    def __init__(self, name, fn, finite_threshold=math.inf, atom_norm=None):
        self.name = name
        self._fn = fn
        self.finite_threshold = float(finite_threshold)
        self.atom_norm = atom_norm
        if not self.finite_threshold >= 0:
            raise ValidationError("an Orlicz function's finite threshold must be >= 0")
        with np.errstate(over="ignore", invalid="ignore"):  # one raw evaluation at 0 and inf
            at_zero, at_inf = (np.zeros(2) + fn(np.array([0.0, math.inf]))).tolist()
        if at_zero != 0.0:
            raise ValidationError("an Orlicz function must vanish at 0")
        if not math.isinf(at_inf):
            raise ValidationError("an Orlicz function must be infinite at infinity")

    def __call__(self, u):
        uu = np.asarray(u, dtype=float)
        if not (uu >= 0).all():  # also catches nan
            raise ValidationError("Orlicz functions are evaluated on [0, inf]")
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.asarray(self._fn(uu), dtype=float)
        return float(out) if uu.ndim == 0 else out

    def __repr__(self):
        return f"OrliczFunction({self.name!r})"


def _power_norm(levels, masses, p):
    """(sum of m v^p)^(1/p) for levels ``v``, finite and not all zero, with
    masses ``m``.  The levels are divided by the largest first: then ``v^p``
    cannot overflow, and the sum is at least the largest level's mass, so it
    cannot underflow to 0."""
    top = levels.max()
    q = levels / top
    q **= p
    return float(top * masses.dot(q) ** (1.0 / p))


def power(p):
    """u -> u**p for p >= 1."""
    p = float(p)
    if not p >= 1:
        raise ValidationError("power exponent must be >= 1")
    return _power(p)


@functools.lru_cache(maxsize=64)
def _power(p):
    return OrliczFunction(
        f"pow:{p:g}", lambda u: u**p, atom_norm=lambda v, m: _power_norm(v, m, p)
    )


def _cosh_minus_one(u):
    # cosh(u) - 1 = 2 sinh(u/2)^2, with no cancellation; squared and doubled in
    # sinh's result, so a modular evaluation makes no further temporaries
    h = np.sinh(u / 2.0)
    h *= h
    h *= 2.0
    return h


def _l_log_l(u):
    # multiplied in log1p's result, which needs no second temporary
    out = np.log1p(u)
    out *= u
    return out


_COSH_MINUS_ONE = OrliczFunction("cosh-1", _cosh_minus_one)
_L_LOG_L = OrliczFunction("llogl", _l_log_l)


def cosh_minus_one():
    """u -> cosh(u) - 1, evaluated cancellation-free."""
    return _COSH_MINUS_ONE


def l_log_l():
    """u -> u * log(u + 1)."""
    return _L_LOG_L


def capped(bound):
    """u -> u up to ``bound`` and infinity beyond; finite threshold ``bound``.

    Left continuous at the threshold, where the value is still finite.
    """
    b = float(bound)
    if not (b > 0 and math.isfinite(b)):
        raise ValidationError("cap must be positive and finite")
    return _capped(b)


@functools.lru_cache(maxsize=64)
def _capped(b):
    def atom_norm(levels, masses):
        # a finite modular needs every v / lam <= b, and is then sum(m v) / lam
        return max(float(levels.max()) / b, float(masses.dot(levels)))

    return OrliczFunction(
        f"capped:{b:g}",
        lambda u: np.where(u <= b, u, math.inf),
        finite_threshold=b,
        atom_norm=atom_norm,
    )


# 0 on [0, 1] and infinite beyond: its Luxemburg norm is the essential supremum
_LINF = OrliczFunction(
    "Linf",
    lambda u: np.where(u <= 1.0, 0.0, math.inf),
    finite_threshold=1.0,
    atom_norm=lambda levels, masses: float(levels.max()),
)


_BUILTIN_FACTORIES = {
    "cosh-1": lambda args: _no_parameter(args, _COSH_MINUS_ONE),
    "llogl": lambda args: _no_parameter(args, _L_LOG_L),
    "pow": lambda args: power(_parse_float(args, "pow")),
    "capped": lambda args: capped(_parse_float(args, "capped")),
}


def _no_parameter(args, psi):
    if args is not None:
        raise ParseError(f"orlicz:{psi.name} takes no parameter, got {args!r}")
    return psi


def _parse_float(args, label):
    if args is None:
        raise ParseError(f"orlicz:{label} needs a numeric parameter")
    try:
        return float(args)
    except ValueError as exc:
        raise ParseError(f"bad parameter for orlicz:{label}: {args!r}") from exc


class NormSpec:
    """Which norm to compute: the Luxemburg norm of the Orlicz function ``psi``.

    ``lp(p)`` takes ``u^p``, or for p = inf the 0/inf step function at 1, so
    Lp shares the Orlicz closed forms and membership rule; it keeps ``p`` and
    the label ``L<p>``.  ``p`` is None for any other Orlicz function.
    """

    __slots__ = ("p", "psi")

    def __init__(self, psi, p=None):
        if not isinstance(psi, OrliczFunction):
            raise ValidationError("a norm spec needs an OrliczFunction")
        self.psi = psi
        self.p = p

    @classmethod
    def lp(cls, p):
        p = float(p)
        if not p >= 1:
            raise ValidationError("Lp norms need p >= 1")
        return cls(power(p) if math.isfinite(p) else _LINF, p)

    @classmethod
    def orlicz(cls, psi):
        return cls(psi)

    @classmethod
    def parse(cls, text):
        """Parse a CLI norm string: L1, L2, Linf, orlicz:cosh-1, orlicz:llogl,
        orlicz:pow:3, orlicz:capped:1.0."""
        t = text.strip()
        if t.startswith("orlicz:"):
            name, _, args = t[len("orlicz:") :].partition(":")
            factory = _BUILTIN_FACTORIES.get(name)
            if factory is None:
                raise ParseError(f"unknown Orlicz function {name!r}")
            try:
                return cls.orlicz(factory(args if args else None))
            except ValidationError as exc:
                raise ParseError(str(exc)) from exc
        if t.startswith("L"):
            try:
                return cls.lp(float(t[1:]))
            except (ValueError, ValidationError) as exc:
                raise ParseError(f"bad norm spec {text!r}: {exc}") from exc
        raise ParseError(f"bad norm spec {text!r}")

    def label(self):
        return f"orlicz:{self.psi.name}" if self.p is None else f"L{self.p:g}"

    def __repr__(self):
        return f"NormSpec({self.label()!r})"


def modular(psi, f, m):
    """The modular: integral of ``psi(f)`` against ``m``, infinity allowed."""
    if not f.is_nonnegative():
        raise ValidationError("the modular is defined for non-negative functions")
    return integrate(f.map_values(psi), m)


def _atoms(f, m):
    """The levels of ``|f|`` on its pieces of positive ``m``-mass, those
    masses, and the largest level, the essential supremum of ``|f|``.  A
    modular of any scaling of ``f`` depends on nothing else.  They are kept
    on ``f``, read-only, for the last measure object asked for."""
    if f._atoms is None or f._atoms[0] is not m:
        values, masses = _live(f, m)
        levels = np.abs(values)
        levels.setflags(write=False)
        masses.setflags(write=False)
        f._atoms = (m, levels, masses, float(levels.max(initial=0.0)))
    return f._atoms[1:]


def _atom_modular(psi, levels, masses, lam):
    """modular(psi, f / lam, m) from the atoms of ``f`` under ``m``."""
    return float(masses.dot(psi(levels / lam)))


def luxemburg_norm(psi, f, m):
    """Luxemburg norm: the least scale ``lam`` with modular(f / lam) <= 1.

    The atoms of ``f`` under ``m`` are kept on ``f``, so every norm and
    membership of ``f`` under ``m`` reads them; the modular at each scale is a
    dot product over them.  ``psi.atom_norm`` gives the norm in closed form
    when set.  Otherwise the bracket grows or shrinks by factors of 2 from
    the largest live level of ``|f|`` until the modular crosses 1.  Under a
    finite ``psi.finite_threshold`` it starts instead at the least scale that
    brings every level to the threshold or below, which is the norm when its
    modular is at most 1, and only grows.  Then
    Anderson–Björck steps (regula falsi) on log(modular) against log(lam),
    a line for ``u^p``, or midpoint steps while an end's modular is 0 or
    ``inf``, narrow it to a relative width of {width:.1e}, or to adjacent
    floats when the scale is subnormal, and its upper end is returned.
    Returns 0 for functions vanishing ``m``-almost everywhere and ``inf`` when
    ``f`` is infinite on a set of positive mass or ``psi`` is infinite beyond
    0.  Raises :class:`NormOverflowError` when the least scale exceeds the
    largest float.
    """
    levels, masses, sup_ess = _atoms(f, m)
    if sup_ess == 0.0:
        return 0.0
    if math.isinf(sup_ess) or psi.finite_threshold == 0.0:
        # no scale makes the modular finite; the search below would stop only
        # where the levels divided by the scale underflow to 0
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        if psi.atom_norm is not None:
            lam = psi.atom_norm(levels, masses)
        else:
            # the levels are absolute values, so inside psi's domain [0, inf]:
            # its raw function is evaluated directly, without psi's own check
            lam = _least_scale(psi._fn, psi.finite_threshold, levels, masses, sup_ess)
    if not math.isfinite(lam):
        raise NormOverflowError(f"the {psi.name} norm exceeds the float range")
    return lam


def _least_scale(fn, threshold, levels, masses, sup_ess):
    """The least scale with modular at most 1, or ``inf`` past the largest float."""

    def log_modular(lam):
        value = _atom_modular(fn, levels, masses, lam)
        return math.log(value) if value > 0.0 else -math.inf

    if math.isfinite(threshold):
        # below the least float scale with every level / lam <= threshold the
        # modular is infinite, so the bracket starts there, or at the least
        # positive float where the quotient underflows
        lo = max(sup_ess / threshold, math.ulp(0.0))
        while not sup_ess / lo <= threshold:
            lo = math.nextafter(lo, math.inf)
        g_lo = log_modular(lo)
        if g_lo <= 0.0:
            return lo
        hi, g_hi = lo, g_lo
    else:
        # the bracket: halve lo while its modular is at most 1, else double hi
        lo = hi = sup_ess
        g_lo = g_hi = log_modular(sup_ess)
        while g_lo <= 0.0:
            hi, g_hi = lo, g_lo
            lo /= 2.0
            if lo == 0.0:  # hi is the least positive float
                return hi
            g_lo = log_modular(lo)
    while g_hi > 0.0:
        if hi == _FLOAT_MAX:
            return math.inf
        lo, g_lo = hi, g_hi
        hi = min(hi * 2.0, _FLOAT_MAX)
        g_hi = log_modular(hi)
    replaced = None  # the end that the previous step moved
    while hi - lo > LUXEMBURG_RELATIVE_WIDTH * hi:
        mid = lo + 0.5 * (hi - lo)
        if math.isfinite(g_lo) and math.isfinite(g_hi):
            # the root of log(modular), linear in log(lam) through both ends, kept
            # half the stopping width inside so that the far end moves too
            secant = hi * math.exp(math.log(lo / hi) * (g_hi / (g_hi - g_lo)))
            margin = 0.5 * LUXEMBURG_RELATIVE_WIDTH * hi
            secant = min(max(secant, lo + margin), hi - margin)
            if lo < secant < hi:  # not so among the subnormals
                mid = secant
        if not lo < mid < hi:  # adjacent floats
            break
        g = log_modular(mid)
        # Anderson–Björck: an end kept for a second step in a row has its value
        # scaled by how much the moved end's value shrank, or halved
        if g <= 0.0:
            if replaced == "hi":
                g_lo *= _kept_end_factor(g, g_hi)
            hi, g_hi, replaced = mid, g, "hi"
        else:
            if replaced == "lo":
                g_hi *= _kept_end_factor(g, g_lo)
            lo, g_lo, replaced = mid, g, "lo"
    return float(hi)


def _kept_end_factor(g_new, g_prev):
    """The Anderson–Björck factor ``1 - g_new / g_prev`` for the end kept while
    the other end's value went from ``g_prev`` to ``g_new``; ½ where that is
    not positive or not defined."""
    factor = 1.0 - g_new / g_prev if g_prev != 0.0 else 0.0
    return factor if factor > 0.0 else 0.5


luxemburg_norm.__doc__ = luxemburg_norm.__doc__.format(width=LUXEMBURG_RELATIVE_WIDTH)


def norm_route_a(ctx, spec, a):
    """Norm of the singular value function under the weighted measure."""
    return luxemburg_norm(spec.psi, singular_value_function(a), ctx.weight)


def norm_route_b(ctx, spec, a):
    """Norm of the weighted rearrangement under Lebesgue measure."""
    return luxemburg_norm(spec.psi, weighted_rearrangement(ctx, a), LEBESGUE)


def _has_finite_modular(psi, f, m):
    """Whether some positive scaling of ``f`` has a finite ``psi``-modular.

    ``f`` has finitely many pieces of finite mass, so this holds exactly when
    its essential supremum is finite (a large scale then brings every live
    level below ``psi.finite_threshold``) and that threshold is positive or
    ``f`` vanishes almost everywhere.
    """
    sup_ess = _atoms(f, m)[2]
    return math.isfinite(sup_ess) and (psi.finite_threshold > 0 or sup_ess == 0.0)


def membership_route_a(ctx, spec, a):
    """Whether some positive scaling of the singular value function has a
    finite modular under the weighted measure."""
    return _has_finite_modular(spec.psi, singular_value_function(a), ctx.weight)


def membership_route_b(ctx, spec, a):
    """Whether some positive scaling of the weighted rearrangement has a
    finite modular under Lebesgue measure."""
    return _has_finite_modular(spec.psi, weighted_rearrangement(ctx, a), LEBESGUE)
