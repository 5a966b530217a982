"""Divergence primitives, numerical inverses, and relaxations.

Everything here is a pure function on plain floats (natural-log units
throughout); this is the shared numerical core for the confidence bounds in
the rest of the package.

It also holds the library's domain checks, one per kind of scalar parameter
(``_check_unit``, ``_check_delta``, ``_check_rate``, ``_check_nonneg``,
``_check_count`` and the interval check ``_check_range``).  Every public
entry point runs its scalar arguments through them before any arithmetic.
"""
from __future__ import annotations

import math
import numbers
import sys
from typing import Iterable, Sequence

# Bisection settings for kl_inverse: absolute tolerance on q with a hard
# iteration cap so results are deterministic across platforms.
BISECT_TOL = 1e-11
BISECT_MAX_ITER = 200

# How far a weight vector may be from summing to one before construction
# refuses to silently renormalize it.
NORMALIZATION_TOL = 1e-9

# kl_inverse's error budget for one evaluation of its kl in doubles, per
# unit of |t1| + |t2| + 1 (see kl_inverse).
_KL_ERR = 64.0 * 2.0 ** -53


# Closed ends of open domains: a float x > 0 iff x >= _TINY, and so on.
_TINY = math.ulp(0.0)
_BELOW_ONE = math.nextafter(1.0, 0.0)
_MAX = sys.float_info.max


def _check_range(x: float, name: str, lo: float, hi: float,
                 domain: str) -> float:
    """``x`` as a float when lo <= x <= hi, which NaN fails; otherwise, and
    for None, a ValueError "<name> must be <domain>, got <x>"."""
    if x is not None:
        x = float(x)
        if lo <= x <= hi:
            return x
    raise ValueError(f"{name} must be {domain}, got {x}")


def _check_unit(x: float, name: str) -> float:
    """``x`` in [0, 1]: a probability, a loss or a mean of losses."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must not be NaN" if x != x
                         else f"{name} must be in [0, 1], got {x}")
    return x


def _check_delta(x: float) -> float:
    """``x`` in (0, 1): a confidence level."""
    return _check_range(x, "delta", _TINY, _BELOW_ONE, "in (0, 1)")


def _check_rate(x: float, name: str = "eta") -> float:
    """``x`` positive and finite: a learning rate, a scale or a range."""
    return _check_range(x, name, _TINY, _MAX, "positive and finite")


def _check_nonneg(x: float, name: str, inf_ok: bool = False) -> float:
    """``x`` >= 0, and finite unless ``inf_ok``: a budget or a variance."""
    if inf_ok:
        return _check_range(x, name, 0.0, math.inf, "a nonnegative real")
    return _check_range(x, name, 0.0, _MAX, "nonnegative and finite")


def _check_count(n, name: str, floor=1, stop=math.inf):
    """``n`` as given when floor <= n < stop, which NaN fails, and it is an
    int or a numpy integer: a sample size, an arm count, a horizon or an
    index below ``stop``."""
    if n is not None and floor <= n < stop:
        # int first: the ABC check alone takes ten times as long on an int
        if isinstance(n, (int, numbers.Integral)):
            return n
        raise ValueError(f"{name} must be an integer, got {n}")
    domain = (f">= {floor} and finite" if stop == math.inf
              else f"in [{floor}, {stop})")
    raise ValueError(f"{name} must be {domain}, got {n}")


class ProbVec:
    """A finite probability distribution as an ordered weight vector.

    Weights within ``NORMALIZATION_TOL`` of summing to one are renormalized;
    anything further off is rejected.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Iterable[float]):
        ws = list(map(float, weights))
        if len(ws) < 1:
            raise ValueError("ProbVec needs at least one weight")
        # min finds any negative weight; it returns a NaN that comes first and
        # skips any later one, which makes the total NaN instead (or makes
        # fsum raise on an overflow it meets first)
        if not min(ws) >= 0.0:
            _raise_first_bad_weight(ws)
        try:
            total = math.fsum(ws)
        except OverflowError:  # the weights sum past the largest double
            _raise_first_bad_weight(ws)
            total = math.inf
        if total != total:
            _raise_first_bad_weight(ws)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        if total != 1.0:  # w / 1.0 is w
            ws = [w / total for w in ws]
        self._weights = tuple(ws)

    @property
    def weights(self) -> tuple:
        return self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self):
        return iter(self._weights)


def _raise_first_bad_weight(ws: list[float]) -> None:
    """Raise the error of the first NaN or negative weight in ``ws``."""
    for w in ws:
        if math.isnan(w):
            raise ValueError("ProbVec weights must not be NaN")
        if w < 0.0:
            raise ValueError(f"ProbVec weights must be nonnegative, got {w}")


def binary_kl(p: float, q: float) -> float:
    """kl(p || q) between Bernoulli biases, with the usual 0 ln 0 conventions.

    Returns +inf when p puts mass where q has none.
    """
    p = _check_unit(p, "p")
    q = _check_unit(q, "q")
    if p == q:
        return 0.0
    if q == 0.0 or q == 1.0:
        return math.inf
    # the 0 ln 0 = 0 conventions drop the p term at p = 0, the 1-p term at 1
    if p == 0.0:
        return math.log(1.0 / (1.0 - q))
    if p == 1.0:
        return math.log(1.0 / q)
    return _kl_interior(p, q)


def _kl_interior(p: float, q: float) -> float:
    """kl(p || q) for floats p, q in (0, 1), unchecked."""
    total = 0.0
    total += p * math.log(p / q)
    total += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return max(total, 0.0)


def categorical_kl(rho: Sequence[float], pi: Sequence[float]) -> float:
    """KL(rho || pi) between two finite distributions of equal length."""
    r = list(map(float, rho))
    p = list(map(float, pi))
    if len(r) != len(p):
        raise ValueError(f"length mismatch: {len(r)} vs {len(p)}")
    total = 0.0
    for ri, pi_i in zip(r, p):
        # the first bad entry raises unless an earlier term is already
        # infinite; a NaN fails the range test too, and is named first
        if not (0.0 <= ri <= _MAX and 0.0 <= pi_i <= _MAX):
            if math.isnan(ri) or math.isnan(pi_i):
                raise ValueError("KL arguments must not be NaN")
            bad = pi_i if 0.0 <= ri <= _MAX else ri
            raise ValueError(f"KL arguments must be finite and nonnegative, "
                             f"got {bad}")
        if ri == 0.0:
            continue
        if pi_i == 0.0:
            return math.inf
        ratio = ri / pi_i  # under- or overflows for pi_i above 1 or near 0
        total += ri * (math.log(ratio) if 0.0 < ratio <= _MAX
                       else math.log(ri) - math.log(pi_i))
    return total


def kl_inverse(p_hat: float, eps: float) -> float:
    """Numerically invert kl(p_hat || q) <= eps from above.

    Returns max{q in [p_hat, 1] : kl(p_hat||q) <= eps}.  Bisection works
    because kl(p_hat||q) is convex in q with a minimum of zero at q = p_hat,
    hence increasing on [p_hat, 1].  The loop compares ``_kl_interior``'s two
    terms with ``eps`` inline and without its ``max(., 0.0)`` clamp, which
    decides the same way: the sum differs at most in the sign of a zero, and
    ``eps >= 0``.

    The loop spends its logs only near the root.  ``_kl_window`` certifies
    a window (a, b) around it, and the loop moves lo to a mid <= a and hi
    to a mid >= b with no log; a mid inside is decided by the formula.  The
    bracket, the mids, BISECT_TOL, BISECT_MAX_ITER and the returned end are
    the plain bisection's, and so is the returned double, because a mid
    outside the window gets the answer the formula would give there:

    - Let t1, t2 be the formula's terms, g their sum and E = _KL_ERR
      (|t1| + |t2| + 1), which bounds g's rounding error many times over.
    - The low end, a, has g(a) + 2E(a) <= eps.  Between p_hat and a the
      true kl is at most kl(a), being convex with its minimum within an ulp
      of p_hat, and E is at most E(a), since |t1| and |t2| grow away from
      p_hat; so the formula finds every mid there feasible.
    - The high end, b, has g(b) - 2E(b) > eps and lies more than _KL_ERR
      above p_hat, which keeps kl - E growing beyond b; so the formula
      finds every mid beyond b infeasible.

    An end whose check fails is the bracket's own: the low end for an eps
    below about 1e-13, and both ends, which leave the plain bisection, for
    a root within rounding of p_hat.
    """
    p_hat = _check_unit(p_hat, "p_hat")
    eps = _check_nonneg(eps, "eps", inf_ok=True)
    if math.isinf(eps) or p_hat == 1.0:
        return 1.0
    if p_hat == 0.0:
        # kl(0||q) = -ln(1-q), solved in closed form.
        return 1.0 - math.exp(-eps)
    # p_hat is interior here, so kl(p_hat||1) = inf > eps: 1 is infeasible
    # and p_hat stays feasible.  Every mid lies strictly between lo and hi
    # (hi - lo > BISECT_TOL is far above an ulp), so it is interior too and
    # the unchecked formula applies.
    lo, hi = p_hat, 1.0
    q_hat, log = 1.0 - p_hat, math.log
    a, b = _kl_window(p_hat, q_hat, eps)
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if mid <= a or mid < b and (
                p_hat * log(p_hat / mid) + q_hat * log(q_hat / (1.0 - mid))
                <= eps):
            lo = mid
        else:
            hi = mid
    return lo


def _kl_window(p_hat, q_hat, eps):
    """kl_inverse's window (a, b) for an interior p_hat: each end is a
    certified point or the bracket's own end, p_hat or 1.

    Newton's method finds the root x first, in t = -ln(1 - q).  In t the
    kl is convex and tends to a line toward 1: a step from the near side
    lands on the far side, the steps from there fall monotonically onto the
    root, and none reaches 1 (an iterate that rounds onto it ends the
    iteration).  The start is the root's series to the order eps**1.5, and
    where that lies outside the bracket, the point at t-distance
    (sqrt(2 p_hat q_hat eps) + eps/2) / q_hat from p_hat.  The iteration
    stops once the next step's error, from the curvature, is below a
    sixteenth of h = 8E/kl' + 2**-50 x, and the window is x -+ h.
    """
    log, exp = math.log, math.exp
    pq = p_hat * q_hat
    d0 = math.sqrt(2.0 * pq * eps)
    d = d0 + eps * (d0 * (1.0 - 13.0 * pq) / (18.0 * pq)
                    + (2.0 * q_hat - 1.0) / 1.5)
    f = 1.0 - d / q_hat
    if not 0.0 < f < 1.0:
        f = exp(-(d0 + 0.5 * eps) / q_hat)
    x = 1.0 - q_hat * f
    if x == 1.0:
        x = _BELOW_ONE
    # past _KL_ERR above p_hat, t1 is negative and t2 and slope positive;
    # the kl's t-derivative is -slope s > 0, and k is its second derivative
    # over it
    for _ in range(BISECT_MAX_ITER):
        if not (x < 1.0 and x - p_hat > _KL_ERR):
            return p_hat, 1.0
        s, u, v = x - 1.0, p_hat / x, q_hat / (1.0 - x)
        t1, t2, slope = p_hat * log(u), q_hat * log(v), v - u
        err = _KL_ERR * (t2 - t1 + 1.0)
        k = -(u * (s / x) + v * (s / (1.0 - x))) / slope - 1.0
        dt = (t1 + t2 - eps) / -(slope * s)
        # exp overflows past 709, so a step is cut to dt = 700
        x = 1.0 + s * exp(700.0 if dt > 700.0 else dt)
        if x == 1.0 or -err <= k * dt * dt * s * slope <= err:
            break
    else:
        return p_hat, 1.0
    h = 8.0 * err / slope + x * 2.0 ** -50
    # each of x -+ h that the loop would certainly find feasible is a low
    # end, and each it would certainly find infeasible a high end; rounding
    # could decide the rest either way
    a, b = p_hat, 1.0
    for y in (x - h, x + h):
        if y < 1.0 and y - p_hat > _KL_ERR:
            t1 = p_hat * log(p_hat / y)
            t2 = q_hat * log(q_hat / (1.0 - y))
            e = 2.0 * _KL_ERR * (abs(t1) + abs(t2) + 1.0)
            if t1 + t2 + e <= eps:
                a = y
            elif t1 + t2 - e > eps:
                b = y
    return a, b


def pinsker_relaxations(p_hat: float, eps: float) -> tuple:
    """Closed-form relaxations of the kl upper inverse.

    Returns (plain, refined):
      plain    = min(1, p_hat + sqrt(eps/2))
      refined  = min(1, p_hat + sqrt(2 p_hat eps) + 2 eps)
    """
    p_hat = _check_unit(p_hat, "p_hat")
    eps = _check_nonneg(eps, "eps", inf_ok=True)
    if math.isinf(eps):  # as kl_inverse; at p_hat = 0, 0 * inf is NaN
        return 1.0, 1.0
    plain = min(1.0, p_hat + math.sqrt(eps / 2.0))
    refined = min(1.0, p_hat + math.sqrt(2.0 * p_hat * eps) + 2.0 * eps)
    return plain, refined
