"""Trigonometry of the two-dimensional constant-curvature model surfaces.

Scalar kernels for the generalized sine ``sn``, its derivative ``cs`` and
the distance modifier ``md``, the side-coefficient ratio ``f`` together
with its monotone inverse, and exact triangle solvers (side from a hinge,
angle from three sides).  Curvature is a plain float: positive selects the
sphere of radius 1/sqrt(kappa), negative the hyperbolic plane of the
corresponding scale, and all kernels are continuous across zero.

Array kernels live at the bottom, one per formula that the sweeps and
scans evaluate (``batch_sn``, ``batch_md``, ``batch_md_inverse``,
``batch_f``, ``batch_f_inverse``, ``batch_model_side`` and
``batch_angle``).  They broadcast every argument, curvature included,
evaluate each branch of a formula only on the entries that take it, and
return NaN where the scalar kernel raises.  They call no scalar kernel;
the scalar kernels are their oracles in the tests.  ``cs`` has no array
kernel of its own: ``batch_f`` evaluates it inline.
"""

from __future__ import annotations

import math
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

# Tolerance on f-values for the monotone inverse's image test.
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


def f_inverse(c: float, y: float, bracket: tuple[float, float] | None = None) -> float:
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
    if not (fhi - F_VALUE_TOL <= yy <= flo + F_VALUE_TOL):
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


# ---------------------------------------------------------------------------
# batch kernels
#
# One array kernel per formula.  Every argument broadcasts, curvature
# included, so a block of trials that each draw their own curvature is one
# call.  Where the scalar kernel raises, the array kernel returns NaN.  Each
# branch of a formula (power series, circular, hyperbolic) is evaluated only
# on the entries that take it, so a scalar curvature costs one branch.


def _operands(*args):
    """Float arrays of ``args``; 0-d ones stay 0-d, the others share one shape."""
    arrays = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    return [a if a.ndim == 0 or a.shape == shape else np.broadcast_to(a, shape)
            for a in arrays]


def _branchwise(k, x, u, small, ok, formulas):
    """Evaluate ``formulas`` (series, circular, hyperbolic) by branch; NaN off ``ok``.

    ``small`` selects the series; the other entries split by the sign of k.
    Each branch gathers its entries by index, and one that every entry
    takes runs on the whole arrays.
    """
    shape = u.shape
    k, x, u = (a.ravel() if a.ndim else a for a in (k, x, u))
    series = (ok & small).ravel()
    rest = (ok & ~small).ravel()
    if k.ndim:
        masks = (series, rest & (k > 0.0), rest & (k < 0.0))
    else:  # one curvature: the series and at most one closed form
        masks = (series, rest if k > 0.0 else None, rest if k < 0.0 else None)
    out = np.full(u.size, np.nan)
    with np.errstate(all="ignore"):
        for mask, formula in zip(masks, formulas):
            if mask is None or not mask.any():
                continue
            if mask.all():
                return formula(k, x, u).reshape(shape)
            idx = np.flatnonzero(mask)
            out[idx] = formula(*(a[idx] if a.ndim else a for a in (k, x, u)))
    return out.reshape(shape)


def _sn_series(k, x, u):
    return x * (1.0 - u / 6.0 * (1.0 - u / 20.0 * (1.0 - u / 42.0 * (1.0 - u / 72.0))))


def _cs_series(k, x, u):
    return 1.0 - u / 2.0 * (1.0 - u / 12.0 * (1.0 - u / 30.0 * (1.0 - u / 56.0)))


def _f_circular(k, x, u):
    s = np.sqrt(k)
    return np.cos(s * x) / (np.sin(s * x) / s)


def _f_hyperbolic(k, x, u):
    s = np.sqrt(-k)
    return np.cosh(s * x) / (np.sinh(s * x) / s)


# (series, circular, hyperbolic) forms, each of (k, t, u=k*t^2), in the
# scalar kernels' arithmetic
_SN = (
    _sn_series,
    lambda k, x, u: np.sin(np.sqrt(k) * x) / np.sqrt(k),
    lambda k, x, u: np.sinh(np.sqrt(-k) * x) / np.sqrt(-k),
)
_MD = (
    lambda k, x, u: 0.5 * x * x * (
        1.0 - u / 12.0 * (1.0 - u / 30.0 * (1.0 - u / 56.0 * (1.0 - u / 90.0)))),
    lambda k, x, u: 2.0 * np.sin(0.5 * np.sqrt(k) * x) ** 2 / k,
    lambda k, x, u: -2.0 * np.sinh(0.5 * np.sqrt(-k) * x) ** 2 / k,
)
_F = (lambda k, x, u: _cs_series(k, x, u) / _sn_series(k, x, u), _f_circular, _f_hyperbolic)


def _length_formula(formulas, kappa, t):
    k, x = _operands(kappa, t)
    with np.errstate(invalid="ignore", over="ignore"):
        u = k * x * x
        ok = (x >= 0.0) & (x < math.inf) & np.isfinite(k)
    return _branchwise(k, x, u, np.abs(u) < SERIES_CUTOFF, ok, formulas)


def batch_sn(kappa, t):
    """Array ``sn``."""
    return _length_formula(_SN, kappa, t)


def batch_md(kappa, t):
    """Array ``md``."""
    return _length_formula(_MD, kappa, t)


def batch_md_inverse(kappa, m):
    """Array ``md_inverse``."""
    k, mm = _operands(kappa, m)
    with np.errstate(invalid="ignore", over="ignore"):
        ok = np.isfinite(k) & np.isfinite(mm) & (mm >= -1e-12)
        mm = np.maximum(mm, 0.0)
        u = k * mm
        ok &= ~((k > 0.0) & (0.5 * u > 1.0 + 1e-12))
    return _branchwise(k, mm, u, np.abs(u) < 0.5 * SERIES_CUTOFF, ok, (
        lambda k, m, u: np.sqrt(2.0 * m) * (1.0 + u / 12.0 + 3.0 * u * u / 160.0),
        lambda k, m, u: 2.0 * np.arcsin(np.sqrt(np.minimum(0.5 * u, 1.0))) / np.sqrt(k),
        lambda k, m, u: 2.0 * np.arcsinh(np.sqrt(-0.5 * u)) / np.sqrt(-k),
    ))


def _f(cc, k, ok):
    """f on the entries of ``ok``, which must lie in its domain; NaN elsewhere."""
    with np.errstate(invalid="ignore", over="ignore"):
        u = k * cc * cc
    return _branchwise(k, cc, u, np.abs(u) < SERIES_CUTOFF, ok, _F)


def batch_f(c, kappa):
    """Array ``f``: NaN at and beyond the pole and for a base length that is not positive."""
    cc, k = _operands(c, kappa)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(k) & np.isfinite(cc) & (cc > 0.0)
        ok &= ~((k > 0.0) & (np.sqrt(k) * cc >= math.pi))
    return _f(cc, k, ok)


def batch_f_inverse(c, y, lo=-1.0e4, hi=None):
    """Array ``f_inverse`` over per-element brackets ``[lo, hi]``.

    ``hi=None`` is the scalar's default, just below the pole.  Every entry
    bisects under the scalar's stopping rule, then takes its two secant
    polish steps.  NaN where the scalar raises: an empty bracket, a target
    outside the bracketed image, or an input outside the domain of f.
    """
    cc, yy, a = _operands(c, y, lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        pole = (math.pi / cc) ** 2
        if hi is None:
            b = pole - 1e-9 * np.maximum(1.0, pole)
        else:
            b = np.minimum(hi, pole - 1e-12 * np.maximum(1.0, pole))
    shape = np.broadcast_shapes(cc.shape, yy.shape, a.shape, b.shape)
    a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    fa, fb = batch_f(cc, a), batch_f(cc, b)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(yy) & (a < b) & (fb - F_VALUE_TOL <= yy) & (yy <= fa + F_VALUE_TOL)
        active = ok.copy()
        for _ in range(200):
            active &= b - a > 1e-12 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            if not active.any():
                break
            mid = 0.5 * (a + b)
            fm = _f(cc, mid, active)
            up = fm >= yy
            a, fa = np.where(active & up, mid, a), np.where(active & up, fm, fa)
            b, fb = np.where(active & ~up, mid, b), np.where(active & ~up, fm, fb)
        root = 0.5 * (a + b)
        polish = ok.copy()
        for _ in range(2):
            cand = a + (fa - yy) * (b - a) / (fa - fb)
            polish &= (fa != fb) & (a <= cand) & (cand <= b)
            if not polish.any():
                break
            fc = _f(cc, cand, polish)
            up = fc >= yy
            a, fa = np.where(polish & up, cand, a), np.where(polish & up, fc, fa)
            b, fb = np.where(polish & ~up, cand, b), np.where(polish & ~up, fc, fb)
            root = np.where(polish, cand, root)
    return np.where(ok, root, np.nan)


def batch_model_side(kappa, b, c, alpha):
    """Array ``model_side``."""
    k, bb, cc, aa = _operands(kappa, b, c, alpha)
    ok = (np.isfinite(k) & np.isfinite(bb) & (bb >= 0.0) & np.isfinite(cc) & (cc >= 0.0)
          & np.isfinite(aa) & (aa >= -1e-12) & (aa <= math.pi + 1e-12))
    aa = np.clip(aa, 0.0, math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        lim = math.pi / np.sqrt(k)
        ok &= (k <= 0.0) | ((bb < lim) & (cc < lim))
    mb, mc = batch_md(k, bb), batch_md(k, cc)
    m = mb + mc - k * mb * mc - batch_sn(k, bb) * batch_sn(k, cc) * np.cos(aa)
    return np.where(ok, batch_md_inverse(k, np.maximum(m, 0.0)), np.nan)


def _cosine_law(k, opp, uu, vv):
    mu, mv = batch_md(k, uu), batch_md(k, vv)
    return (mu + mv - k * mu * mv - batch_md(k, opp)) / (batch_sn(k, uu) * batch_sn(k, vv))


def batch_angle(kappa, opposite, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Array ``angle_from_sides``: the angles, and the mask of undefined model angles.

    An angle is NaN wherever the scalar kernel raises: an input that is not
    finite, a negative ``opposite``, a zero adjacent side, sides that break
    the triangle inequality beyond the slack, a model angle that does not
    exist (positive curvature with perimeter >= 2*pi/sqrt(kappa)), or a
    cosine more than 1e-9 outside [-1, 1]; cosines within that are clipped.
    The mask, ``undefined``, holds exactly where the scalar kernel raises
    :class:`UndefinedModelAngleError`.
    """
    k, opp, uu, vv = _operands(kappa, opposite, u, v)
    per = opp + uu + vv
    slack = _TRI_SLACK * per
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # every test the scalar kernel makes before the perimeter's
        valid = (np.isfinite(k) & np.isfinite(per) & (opp >= 0.0) & (uu > 0.0) & (vv > 0.0)
                 & (opp <= uu + vv + slack) & (uu <= opp + vv + slack) & (vv <= opp + uu + slack))
        if k.ndim:
            defined = (k <= 0.0) | (per < 2.0 * math.pi / np.sqrt(k))
            big = (k < 0.0) & (np.sqrt(-k) * per > _HYP_RESCALE)
        elif k > 0.0:  # one curvature: its sign settles both tests
            defined, big = per < 2.0 * math.pi / np.sqrt(k), None
        else:
            defined = np.broadcast_to(k <= 0.0, per.shape)
            big = np.sqrt(-k) * per > _HYP_RESCALE if k < 0.0 else None
        # where the md form would overflow, the exponentially rescaled form
        if big is None or not big.any():
            cosang = _cosine_law(k, opp, uu, vv)
        else:
            cosang = np.empty(per.shape)
            rest = ~big
            cosang[rest] = _cosine_law(*(a[rest] if a.ndim else a for a in (k, opp, uu, vv)))
            kb, ob, ub, vb = (a[big] if a.ndim else a for a in (k, opp, uu, vv))
            cosang[big] = _cos_angle_hyp_scaled(np.sqrt(-kb), ob, ub, vb)
        ok = valid & defined & (np.abs(cosang) <= 1.0 + 1e-9)
        angle = np.where(ok, np.arccos(np.clip(cosang, -1.0, 1.0)), np.nan)
    return angle, valid & ~defined


def first_missing(angle, undefined) -> tuple[np.ndarray, np.ndarray]:
    """Along ``batch_angle``'s first axis: any angle missing, and the first one undefined.

    A scalar oracle raises at its first failing triangle: vacuous where that
    angle is undefined, skipped elsewhere.
    """
    missing = np.isnan(angle)
    first = np.argmax(missing, axis=0)[None]
    return missing.any(axis=0), np.take_along_axis(undefined, first, axis=0)[0]
