"""Closed-form covering and measurement-count bounds.

Every bound carries an explicit leading constant (big_o_constant, default 1)
because the asymptotic statements fix none; logs are natural.  These
evaluators are meant for dominance and scaling checks against built
dictionaries and covers, not as tight predictions.  A bound that is not a
finite float64 at its parameters, or whose formula leaves float64's range
on the way, raises BoundOverflowError.
"""

import math
from dataclasses import dataclass

from .errors import BoundOverflowError, is_number, require, require_integer


@dataclass(frozen=True)
class BoundParams:
    """Geometric and embedding parameters shared by the bound evaluators."""

    d: int  # intrinsic dimension
    V: float  # d-dimensional volume
    eps: float = 0.3  # embedding distortion target, in (0, 1/2)
    reach: float | None = None  # curvature/self-avoidance radius
    D: int | None = None  # ambient dimension (uniform bound only)
    J: int = 0  # finest dictionary scale
    C1: float = 1.0  # center separation constant
    big_o_constant: float = 1.0
    j0: int | None = None  # tube scale estimate, when known

    def __post_init__(self):
        require_integer("d", self.d, 1)
        # eps is closed at 1/2: the closed forms are well defined there and the
        # half-distortion grid point is a common sizing input
        require(is_number(self.eps) and 0 < self.eps <= 0.5, "eps", self.eps, "in (0, 1/2]")
        for name in ("V", "reach", "C1", "big_o_constant"):
            value = getattr(self, name)
            if value is not None or name != "reach":
                require(is_number(value) and 0 < value < math.inf, name, value, "a finite number > 0")
        if self.D is not None:
            require_integer("D", self.D, 1)
        require_integer("J", self.J, 0)
        if self.j0 is not None:
            require_integer("j0", self.j0, 0)


def _finite(quantity, formula):
    """formula(), unless it or a step on the way (a power, a quotient, a log) leaves float64's range."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError, ValueError):  # ValueError: the log of a product rounded to 0
        value = math.nan
    if not math.isfinite(value):
        raise BoundOverflowError("%s is not a finite float64 at these parameters" % quantity)
    return value


def _cover_factor(d):
    return (d / 2.0 + 1.0) ** (d / 2.0 + 1.0) / 2.0 ** (d / 2.0)


def cover_bound(params, delta):
    """Upper bound on the size of a minimal delta-cover of the manifold."""
    require(params.reach is not None, "reach", None, "a finite number > 0 for cover_bound")
    require(is_number(delta) and 0 < delta < params.reach, "delta", delta, "in (0, reach) = (0, %r)" % params.reach)
    return _finite("cover_bound", lambda: params.V * _cover_factor(params.d) / delta**params.d)


def center_count_bound(params, j):
    """Upper bound on the number of dictionary cells at scale j.

    Valid for j above both the tube scale j0 and log2(C1/reach) - 2; the
    caller is responsible for that range (j0 is checked when params carry
    it).  j must be an integer >= 0.
    """
    require_integer("j", j, 0)
    require(params.j0 is None or j > params.j0, "j", j, "above the tube scale j0 = %s" % params.j0)
    return _finite("center_count_bound at j=%d" % j, lambda: (
        2.0 ** (params.d * (j + 1.5))
        / params.C1**params.d
        * params.V
        * (params.d / 2.0 + 1.0) ** (params.d / 2.0 + 1.0)
    ))


def m_nonuniform(params):
    """Measurement count sufficient for the per-query recovery guarantee.

    ceil(c * (d eps^-2 (J + ln(d/eps)) + eps^-2 ln V)); independent of the
    ambient dimension.
    """
    c = params.big_o_constant
    value = _finite("m_nonuniform", lambda: c * (
        params.d * params.eps**-2 * (params.J + math.log(params.d / params.eps))
        + params.eps**-2 * math.log(params.V)
    ))
    return max(1, math.ceil(value))


def m_uniform(params):
    """Measurement count sufficient for the uniform stability guarantee.

    ceil(c * (d eps^-2 ln(D/(eps reach)) + d eps^-2 J + eps^-2 ln V)); grows
    logarithmically with the ambient dimension.
    """
    require(params.D is not None, "D", None, "an integer >= 1 for m_uniform")
    require(params.reach is not None, "reach", None, "a finite number > 0 for m_uniform")
    c = params.big_o_constant
    value = _finite("m_uniform", lambda: c * (
        params.d * params.eps**-2 * math.log(params.D / (params.eps * params.reach))
        + params.d * params.eps**-2 * params.J
        + params.eps**-2 * math.log(params.V)
    ))
    return max(1, math.ceil(value))


def scales_for_precision(delta, reach, constant=1.0):
    """Suggested finest scale J = ceil(c * log2(1/(delta * reach))).

    Substituting this J into m_nonuniform yields the alternative
    d log(d/(delta reach)) sizing; both forms are exposed rather than picking
    one as canonical.  delta, reach and constant must be finite numbers > 0.
    """
    for name, value in (("delta", delta), ("reach", reach), ("constant", constant)):
        require(is_number(value) and 0 < value < math.inf, name, value, "a finite number > 0")
    return max(0, math.ceil(_finite("scales_for_precision", lambda: constant * math.log2(1.0 / (delta * reach)))))
