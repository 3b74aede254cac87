"""Trigonometry of the two-dimensional constant-curvature model surfaces.

Scalar kernels for the generalized sine ``sn``, its derivative ``cs`` and
the distance modifier ``md``, the side-coefficient ratio ``f`` together
with its monotone inverse, and exact triangle solvers (side from a hinge,
angle from three sides).  Curvature is a plain float: positive selects the
sphere of radius 1/sqrt(kappa), negative the hyperbolic plane of the
corresponding scale, and all kernels are continuous across zero.

Batch variants used by the quadruple scanners live at the bottom; they
evaluate the same formulas over numpy arrays and signal undefined model
angles with NaN instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAngleError,
    InvalidTriangleError,
    InverseRangeError,
    TrigDomainError,
    UndefinedModelAngleError,
)

# Below this value of |kappa|*t^2 the closed forms are replaced by a
# truncated power series; the five retained terms leave a relative error
# around (1e-6)^5 / 11!, far below double precision.
SERIES_CUTOFF = 1e-6

# Default tolerance on f-values for the monotone inverse.
F_VALUE_TOL = 1e-12

_TRI_SLACK = 1e-9


def check_curvature(kappa: float) -> float:
    """Coerce and validate a curvature value (finite real, NaN/inf rejected)."""
    k = float(kappa)
    if not math.isfinite(k):
        raise TrigDomainError(f"curvature must be a finite real, got {kappa!r}")
    return k


def _check_length(t: float, name: str = "t") -> float:
    x = float(t)
    if not math.isfinite(x) or x < 0.0:
        raise TrigDomainError(f"{name} must be a finite nonnegative length, got {t!r}")
    return x


def sn(kappa: float, t: float) -> float:
    """Generalized sine: sin(sqrt(k)t)/sqrt(k), t, or sinh(sqrt(-k)t)/sqrt(-k)."""
    k = check_curvature(kappa)
    x = _check_length(t)
    u = k * x * x
    if abs(u) < SERIES_CUTOFF:
        # 1 - u/6 + u^2/120 - u^3/5040 + u^4/362880, Horner form
        return x * (1.0 - u / 6.0 * (1.0 - u / 20.0 * (1.0 - u / 42.0 * (1.0 - u / 72.0))))
    if k > 0.0:
        s = math.sqrt(k)
        return math.sin(s * x) / s
    s = math.sqrt(-k)
    return math.sinh(s * x) / s


def cs(kappa: float, t: float) -> float:
    """Derivative of ``sn`` in t: cos, 1, or cosh of the scaled argument."""
    k = check_curvature(kappa)
    x = _check_length(t)
    u = k * x * x
    if abs(u) < SERIES_CUTOFF:
        return 1.0 - u / 2.0 * (1.0 - u / 12.0 * (1.0 - u / 30.0 * (1.0 - u / 56.0)))
    if k > 0.0:
        return math.cos(math.sqrt(k) * x)
    return math.cosh(math.sqrt(-k) * x)


def md(kappa: float, t: float) -> float:
    """Integral of ``sn`` from 0 to t; equals t^2/2 at zero curvature.

    Evaluated through half-angle forms, 2*sin^2(.)/kappa and
    -2*sinh^2(.)/kappa, which stay accurate where 1-cos would cancel.
    """
    k = check_curvature(kappa)
    x = _check_length(t)
    u = k * x * x
    if abs(u) < SERIES_CUTOFF:
        return 0.5 * x * x * (1.0 - u / 12.0 * (1.0 - u / 30.0 * (1.0 - u / 56.0 * (1.0 - u / 90.0))))
    if k > 0.0:
        half = 0.5 * math.sqrt(k) * x
        return 2.0 * math.sin(half) ** 2 / k
    half = 0.5 * math.sqrt(-k) * x
    return -2.0 * math.sinh(half) ** 2 / k


def md_inverse(kappa: float, m: float) -> float:
    """Length t >= 0 with md(kappa, t) = m.

    For positive curvature the invertible range is m <= 2/kappa (t up to the
    antipodal distance); values beyond it raise :class:`TrigDomainError`.
    """
    k = check_curvature(kappa)
    mm = float(m)
    if not math.isfinite(mm):
        raise TrigDomainError(f"md value must be finite, got {m!r}")
    if mm < 0.0:
        if mm < -1e-12:
            raise TrigDomainError(f"md value must be nonnegative, got {m!r}")
        mm = 0.0
    u = k * mm
    if abs(u) < 0.5 * SERIES_CUTOFF:
        # inverse series in k*m; direct half-angle forms underflow for
        # curvatures this small
        return math.sqrt(2.0 * mm) * (1.0 + u / 12.0 + 3.0 * u * u / 160.0)
    if k > 0.0:
        w = 0.5 * u
        if w > 1.0:
            if w > 1.0 + 1e-12:
                raise TrigDomainError(
                    f"md value {m!r} exceeds the invertible range 2/kappa for kappa={k!r}"
                )
            w = 1.0
        return 2.0 * math.asin(math.sqrt(w)) / math.sqrt(k)
    s = math.sqrt(-k)
    return 2.0 * math.asinh(math.sqrt(-0.5 * u)) / s


def f_pole(c: float) -> float:
    """Curvature at which sn(., c) first vanishes: (pi/c)^2."""
    cc = _check_length(c, "c")
    if cc == 0.0:
        raise TrigDomainError("f requires a strictly positive base length")
    return (math.pi / cc) ** 2


def f(c: float, kappa: float) -> float:
    """Side coefficient cs(kappa, c)/sn(kappa, c).

    Strictly decreasing and concave in kappa on its domain.  The ratio has a
    pole where sn vanishes, so curvatures at or above (pi/c)^2 are rejected.
    """
    k = check_curvature(kappa)
    cc = _check_length(c, "c")
    if cc == 0.0:
        raise TrigDomainError("f requires a strictly positive base length")
    if k > 0.0 and math.sqrt(k) * cc >= math.pi:
        raise TrigDomainError(
            f"f undefined: sn vanishes at or before c={cc!r} for kappa={k!r}"
        )
    return cs(k, cc) / sn(k, cc)


def f_inverse(
    c: float,
    y: float,
    bracket: tuple[float, float] | None = None,
    tol: float = F_VALUE_TOL,
) -> float:
    """Curvature kappa with f(c, kappa) = y, unique by strict monotonicity.

    Bisection on the bracket (default [-1e4, just below the pole (pi/c)^2])
    down to ~1e-12 in kappa, then two secant polish steps.  Raises
    :class:`InverseRangeError` when y falls outside the bracketed image,
    reporting the bracket used.
    """
    cc = _check_length(c, "c")
    yy = float(y)
    if not math.isfinite(yy):
        raise TrigDomainError(f"target value must be finite, got {y!r}")
    pole = f_pole(cc)
    if bracket is None:
        lo, hi = -1.0e4, pole - 1e-9 * max(1.0, pole)
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
        hi = min(hi, pole - 1e-12 * max(1.0, pole))
    if not lo < hi:
        raise InverseRangeError(
            f"empty bracket for f_inverse at c={cc!r}", bracket=(lo, hi)
        )
    flo = f(cc, lo)
    fhi = f(cc, hi)
    # f decreasing: image over the bracket is [fhi, flo]
    if not (fhi - tol <= yy <= flo + tol):
        raise InverseRangeError(
            f"target {yy!r} outside image [{fhi!r}, {flo!r}] of f over "
            f"bracket [{lo!r}, {hi!r}] at c={cc!r}",
            bracket=(lo, hi),
            values=(flo, fhi),
        )
    a, b = lo, hi
    fa, fb = flo, fhi
    for _ in range(200):
        if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
            break
        mid = 0.5 * (a + b)
        fm = f(cc, mid)
        if fm >= yy:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    root = 0.5 * (a + b)
    for _ in range(2):
        if fa == fb:
            break
        cand = a + (fa - yy) * (b - a) / (fa - fb)
        if not (a <= cand <= b):
            break
        fc_ = f(cc, cand)
        if fc_ >= yy:
            a, fa = cand, fc_
        else:
            b, fb = cand, fc_
        root = cand
    return root


@dataclass(frozen=True)
class TriangleSides:
    """Three side lengths of a triangle, validated on construction.

    The triangle inequality is enforced with a small relative slack so that
    side triples produced by float summation are accepted.  The curvature
    dependent admissibility (perimeter < 2*pi/sqrt(kappa) for kappa > 0) is
    checked where an angle is actually computed.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not math.isfinite(v) or v < 0.0:
                raise InvalidTriangleError(
                    f"side {name} must be a finite nonnegative length, got {v!r}"
                )
        slack = _TRI_SLACK * (self.a + self.b + self.c) + 1e-300
        if (
            self.a > self.b + self.c + slack
            or self.b > self.a + self.c + slack
            or self.c > self.a + self.b + slack
        ):
            raise InvalidTriangleError(
                f"triangle inequality fails for sides ({self.a}, {self.b}, {self.c})"
            )

    @property
    def perimeter(self) -> float:
        return self.a + self.b + self.c

    def side(self, i: int) -> float:
        return (self.a, self.b, self.c)[i]

    def admissible(self, kappa: float) -> bool:
        """True when a model triangle with these sides exists in curvature kappa."""
        k = check_curvature(kappa)
        if k <= 0.0:
            return True
        return self.perimeter < 2.0 * math.pi / math.sqrt(k)


# beyond this scaled size the hyperbolic cosine law is evaluated in
# exponentially rescaled form to dodge cosh/sinh overflow
_HYP_RESCALE = 300.0


def _cos_angle_hyp_scaled(s, opp, u, v):
    """cos of the hyperbolic-law angle with all exponents kept nonpositive.

    Works for scalars and arrays; exact rearrangement of
    (cosh(su)cosh(sv) - cosh(s opp)) / (sinh(su)sinh(sv)).
    """
    e = np.exp
    num = (
        1.0 + e(-2.0 * s * u) + e(-2.0 * s * v) + e(-2.0 * s * (u + v))
        - 2.0 * e(-s * (u + v - opp)) - 2.0 * e(-s * (u + v + opp))
    )
    den = 1.0 - e(-2.0 * s * u) - e(-2.0 * s * v) + e(-2.0 * s * (u + v))
    return num / den


def angle_from_sides(kappa: float, opposite: float, u: float, v: float) -> float:
    """Angle between the sides of lengths u and v, opposite the third side.

    Direct inversion of the curvature cosine law.  Raises
    :class:`UndefinedModelAngleError` when kappa > 0 and the perimeter
    reaches 2*pi/sqrt(kappa), and :class:`DegenerateAngleError` when an
    adjacent side vanishes (the angle between genuine geodesics needs both).
    """
    k = check_curvature(kappa)
    opp = _check_length(opposite, "opposite")
    uu = _check_length(u, "u")
    vv = _check_length(v, "v")
    if uu == 0.0 or vv == 0.0:
        raise DegenerateAngleError(
            "angle undefined at a vertex with a zero-length adjacent side"
        )
    per = opp + uu + vv
    slack = _TRI_SLACK * per
    if opp > uu + vv + slack or uu > opp + vv + slack or vv > opp + uu + slack:
        raise InvalidTriangleError(
            f"triangle inequality fails for sides ({opp}, {uu}, {vv})"
        )
    if k > 0.0 and per >= 2.0 * math.pi / math.sqrt(k):
        raise UndefinedModelAngleError(
            f"no model triangle: perimeter {per!r} >= 2*pi/sqrt({k!r})"
        )
    if k < 0.0 and math.sqrt(-k) * per > _HYP_RESCALE:
        cosang = float(_cos_angle_hyp_scaled(math.sqrt(-k), opp, uu, vv))
    else:
        denom = sn(k, uu) * sn(k, vv)
        num = md(k, uu) + md(k, vv) - k * md(k, uu) * md(k, vv) - md(k, opp)
        cosang = num / denom
    if cosang > 1.0:
        if cosang > 1.0 + 1e-9:
            raise InvalidTriangleError(f"sides not realizable, cos angle {cosang!r}")
        cosang = 1.0
    elif cosang < -1.0:
        if cosang < -1.0 - 1e-9:
            raise InvalidTriangleError(f"sides not realizable, cos angle {cosang!r}")
        cosang = -1.0
    return math.acos(cosang)


def model_angle(kappa: float, sides: TriangleSides, at: int) -> float:
    """Angle of the model triangle at the vertex opposite ``sides.side(at)``.

    ``at`` indexes the opposite side: at=0 gives the angle between sides b
    and c, and so on cyclically.
    """
    if at not in (0, 1, 2):
        raise ValueError(f"vertex selector must be 0, 1 or 2, got {at!r}")
    opp = sides.side(at)
    u = sides.side((at + 1) % 3)
    v = sides.side((at + 2) % 3)
    return angle_from_sides(kappa, opp, u, v)


def model_side(kappa: float, b: float, c: float, alpha: float) -> float:
    """Side opposite the hinge: lengths b, c enclosing the angle alpha.

    Solves md(|BC|) = md(b) + md(c) - kappa*md(b)*md(c) - sn(b)*sn(c)*cos(alpha)
    for |BC|.  For kappa > 0 both legs must be shorter than pi/sqrt(kappa)
    and the resulting md value must stay in the invertible range.
    """
    k = check_curvature(kappa)
    bb = _check_length(b, "b")
    cc = _check_length(c, "c")
    aa = float(alpha)
    if not math.isfinite(aa) or aa < -1e-12 or aa > math.pi + 1e-12:
        raise TrigDomainError(f"hinge angle must lie in [0, pi], got {alpha!r}")
    aa = min(max(aa, 0.0), math.pi)
    if k > 0.0:
        lim = math.pi / math.sqrt(k)
        if bb >= lim or cc >= lim:
            raise TrigDomainError(
                f"hinge legs ({bb!r}, {cc!r}) must be < pi/sqrt(kappa) = {lim!r}"
            )
    m = md(k, bb) + md(k, cc) - k * md(k, bb) * md(k, cc) - sn(k, bb) * sn(k, cc) * math.cos(aa)
    if m < 0.0:
        m = 0.0
    return md_inverse(k, m)


def taylor_side_expansion(kappa: float, c: float, b: float, beta: float) -> float:
    """Second-order expansion of the opposite side of a hinge in the short leg.

    Returns c - b*cos(beta) + 0.5*sin(beta)^2 * f(c, kappa) * b^2; the true
    side differs by O(b^3).
    """
    k = check_curvature(kappa)
    cc = _check_length(c, "c")
    bb = _check_length(b, "b")
    s = math.sin(beta)
    return cc - bb * math.cos(beta) + 0.5 * s * s * f(cc, k) * bb * bb


# ---------------------------------------------------------------------------
# batch kernels

def _sn_arr(kappa: float, t: np.ndarray) -> np.ndarray:
    k = check_curvature(kappa)
    x = np.asarray(t, dtype=float)
    u = k * x * x
    series = x * (1.0 - u / 6.0 * (1.0 - u / 20.0 * (1.0 - u / 42.0 * (1.0 - u / 72.0))))
    if k == 0.0:
        return series
    with np.errstate(invalid="ignore"):
        if k > 0.0:
            s = math.sqrt(k)
            main = np.sin(s * x) / s
        else:
            s = math.sqrt(-k)
            main = np.sinh(s * x) / s
    return np.where(np.abs(u) < SERIES_CUTOFF, series, main)


def _md_arr(kappa: float, t: np.ndarray) -> np.ndarray:
    k = check_curvature(kappa)
    x = np.asarray(t, dtype=float)
    u = k * x * x
    series = 0.5 * x * x * (1.0 - u / 12.0 * (1.0 - u / 30.0 * (1.0 - u / 56.0 * (1.0 - u / 90.0))))
    if k == 0.0:
        return series
    with np.errstate(invalid="ignore"):
        if k > 0.0:
            main = 2.0 * np.sin(0.5 * math.sqrt(k) * x) ** 2 / k
        else:
            main = -2.0 * np.sinh(0.5 * math.sqrt(-k) * x) ** 2 / k
    return np.where(np.abs(u) < SERIES_CUTOFF, series, main)


def batch_angle(
    kappa: float, opposite: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``angle_from_sides``: angles array plus defined mask.

    Entries where the model angle does not exist (positive curvature with
    perimeter >= 2*pi/sqrt(kappa)) come back NaN with mask False; entries
    violating the triangle inequality beyond slack or with a vanishing
    adjacent side also come back NaN.  Matches the scalar kernel to within
    roundoff on defined entries.
    """
    k = check_curvature(kappa)
    opp = np.asarray(opposite, dtype=float)
    uu = np.asarray(u, dtype=float)
    vv = np.asarray(v, dtype=float)
    per = opp + uu + vv
    slack = _TRI_SLACK * per
    ok = (
        (uu > 0.0)
        & (vv > 0.0)
        & (opp <= uu + vv + slack)
        & (uu <= opp + vv + slack)
        & (vv <= opp + uu + slack)
    )
    if k > 0.0:
        ok &= per < 2.0 * math.pi / math.sqrt(k)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if k < 0.0:
            s = math.sqrt(-k)
            big = s * per > _HYP_RESCALE
            # placeholder side lengths where the md form would overflow
            su = np.where(big, 1.0, uu)
            sv = np.where(big, 1.0, vv)
            so = np.where(big, 1.0, opp)
            mu, mv = _md_arr(k, su), _md_arr(k, sv)
            num = mu + mv - k * mu * mv - _md_arr(k, so)
            cosang = num / (_sn_arr(k, su) * _sn_arr(k, sv))
            cosang = np.where(big, _cos_angle_hyp_scaled(s, opp, uu, vv), cosang)
        else:
            mu, mv = _md_arr(k, uu), _md_arr(k, vv)
            num = mu + mv - k * mu * mv - _md_arr(k, opp)
            cosang = num / (_sn_arr(k, uu) * _sn_arr(k, vv))
        cosang = np.clip(cosang, -1.0, 1.0)
        out = np.where(ok, np.arccos(cosang), np.nan)
    return out, ok
