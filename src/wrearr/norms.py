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

import math

import numpy as np

from .algebra import singular_value_function
from .errors import ParseError, ValidationError
from .stepfn import LEBESGUE, _piece_masses, ess_sup, integrate
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
    "lp_norm",
    "norm_route_a",
    "norm_route_b",
    "membership_route_a",
    "membership_route_b",
]

LUXEMBURG_RELATIVE_WIDTH = 1e-10


class OrliczFunction:
    """A convex non-decreasing function on [0, inf] with value 0 at 0.

    ``finite_threshold`` is the supremum of the region where the function is
    finite (``inf`` when it is finite everywhere); evaluation at ``inf``
    yields ``inf``.  ``atom_norm(levels, masses)``, when given, returns the
    Luxemburg norm in closed form from a function's levels on its pieces of
    positive mass, finite and not all zero, and those masses; without it the
    norm is found by bisection.
    """

    __slots__ = ("name", "_fn", "finite_threshold", "atom_norm")

    def __init__(self, name, fn, finite_threshold=math.inf, atom_norm=None):
        self.name = name
        self._fn = fn
        self.finite_threshold = float(finite_threshold)
        self.atom_norm = atom_norm
        if not self.finite_threshold >= 0:
            raise ValidationError("an Orlicz function's finite threshold must be >= 0")
        if self(0.0) != 0.0:
            raise ValidationError("an Orlicz function must vanish at 0")
        if not math.isinf(self(math.inf)):
            raise ValidationError("an Orlicz function must be infinite at infinity")

    def __call__(self, u):
        uu = np.asarray(u, dtype=float)
        if np.any(uu < 0):
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
    return float(top * np.dot((levels / top) ** p, masses) ** (1.0 / p))


def power(p):
    """u -> u**p for p >= 1."""
    p = float(p)
    if not p >= 1:
        raise ValidationError("power exponent must be >= 1")
    return OrliczFunction(
        f"pow:{p:g}", lambda u: u**p, atom_norm=lambda v, m: _power_norm(v, m, p)
    )


def cosh_minus_one():
    """u -> cosh(u) - 1, evaluated cancellation-free."""
    return OrliczFunction("cosh-1", lambda u: 2.0 * np.sinh(u / 2.0) ** 2)


def l_log_l():
    """u -> u * log(u + 1)."""
    return OrliczFunction("llogl", lambda u: u * np.log1p(u))


def capped(bound):
    """u -> u up to ``bound`` and infinity beyond; finite threshold ``bound``.

    Left continuous at the threshold, where the value is still finite.
    """
    b = float(bound)
    if not (b > 0 and math.isfinite(b)):
        raise ValidationError("cap must be positive and finite")

    def atom_norm(levels, masses):
        # a finite modular needs every v / lam <= b, and is then sum(m v) / lam
        return max(float(levels.max()) / b, float(np.dot(levels, masses)))

    return OrliczFunction(
        f"capped:{b:g}",
        lambda u: np.where(u <= b, u, math.inf),
        finite_threshold=b,
        atom_norm=atom_norm,
    )


_BUILTIN_FACTORIES = {
    "cosh-1": lambda args: cosh_minus_one(),
    "llogl": lambda args: l_log_l(),
    "pow": lambda args: power(_parse_float(args, "pow")),
    "capped": lambda args: capped(_parse_float(args, "capped")),
}


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
    the label ``L<p>``.  ``kind`` is "lp" or "orlicz".
    """

    __slots__ = ("kind", "p", "psi")

    def __init__(self, psi, p=None):
        if not isinstance(psi, OrliczFunction):
            raise ValidationError("a norm spec needs an OrliczFunction")
        self.psi = psi
        self.p = p
        self.kind = "orlicz" if p is None else "lp"

    @classmethod
    def lp(cls, p):
        p = float(p)
        if not p >= 1:
            raise ValidationError("Lp norms need p >= 1")
        if math.isfinite(p):
            return cls(power(p), p)
        sup = OrliczFunction(
            "Linf",
            lambda u: np.where(u <= 1.0, 0.0, math.inf),
            finite_threshold=1.0,
            atom_norm=lambda levels, masses: float(levels.max()),
        )
        return cls(sup, p)

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
    return integrate(f.map_values(psi), m, math.inf)


def _atoms(f, m):
    """The levels of ``|f|`` on its pieces of positive ``m``-mass, and those
    masses.  A modular of any scaling of ``f`` depends on nothing else."""
    masses = _piece_masses(f, m)
    live = masses > 0
    return np.abs(f.values[live]), masses[live]


def _atom_modular(psi, levels, masses, lam):
    """modular(psi, f / lam, m) from the atoms of ``f`` under ``m``."""
    return float(np.dot(psi(levels / lam), masses))


def luxemburg_norm(psi, f, m):
    """Luxemburg norm: the least scale ``lam`` with modular(f / lam) <= 1.

    The atoms of ``f`` under ``m`` are taken once; the modular at each scale
    is a dot product over them.  ``psi.atom_norm`` gives the norm in closed
    form when set.  Otherwise a monotone bisection finds it: the bracket grows
    or shrinks geometrically from the largest live level of ``|f|`` until the
    modular crosses 1, then bisects to a relative width of {width:g}, or to
    adjacent floats when the scale is subnormal.  Returns 0 for functions
    vanishing ``m``-almost everywhere and ``inf`` when ``f`` is infinite on a
    set of positive mass, when ``psi`` is infinite beyond 0, or when the
    least scale overflows.
    """
    levels, masses = _atoms(f, m)
    sup_ess = float(levels.max(initial=0.0))
    if sup_ess == 0.0:
        return 0.0
    if math.isinf(sup_ess) or psi.finite_threshold == 0.0:
        # no scale makes the modular finite; the search below would stop only
        # where the levels divided by the scale underflow to 0
        return math.inf
    if psi.atom_norm is not None:
        return psi.atom_norm(levels, masses)
    # the levels are absolute values, so inside psi's domain [0, inf]: its raw
    # function is evaluated directly, without the check each psi call makes
    fn = psi._fn

    def modular_at(lam):
        return _atom_modular(fn, levels, masses, lam)

    with np.errstate(over="ignore", invalid="ignore"):
        if modular_at(sup_ess) <= 1.0:
            hi = sup_ess
            lo = sup_ess / 2.0
            while lo > 0.0 and modular_at(lo) <= 1.0:  # lo is 0 once hi is the least positive float
                hi = lo
                lo /= 2.0
        else:
            lo = sup_ess
            hi = sup_ess * 2.0
            while modular_at(hi) > 1.0:  # hi overflows to inf, where the modular is 0
                lo = hi
                hi *= 2.0
        while hi - lo > LUXEMBURG_RELATIVE_WIDTH * hi:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # adjacent floats, as among the subnormals
                break
            if modular_at(mid) <= 1.0:
                hi = mid
            else:
                lo = mid
    return float(hi)


luxemburg_norm.__doc__ = luxemburg_norm.__doc__.format(width=LUXEMBURG_RELATIVE_WIDTH)


def lp_norm(f, m, p):
    """(integral of |f|^p d m)^(1/p); essential supremum for p = inf."""
    return luxemburg_norm(NormSpec.lp(p).psi, f, m)


def norm_route_a(ctx, spec, a):
    """Norm of the singular value function under the weighted measure."""
    return luxemburg_norm(spec.psi, singular_value_function(a), ctx.weight.measure())


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
    sup_ess = ess_sup(f, m)
    return math.isfinite(sup_ess) and (psi.finite_threshold > 0 or sup_ess == 0.0)


def membership_route_a(ctx, spec, a):
    """Whether some positive scaling of the singular value function has a
    finite modular under the weighted measure."""
    return _has_finite_modular(spec.psi, singular_value_function(a), ctx.weight.measure())


def membership_route_b(ctx, spec, a):
    """Whether some positive scaling of the weighted rearrangement has a
    finite modular under Lebesgue measure."""
    return _has_finite_modular(spec.psi, weighted_rearrangement(ctx, a), LEBESGUE)
