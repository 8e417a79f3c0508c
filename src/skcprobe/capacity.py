"""Closed-form secret-key capacity quantities and their Monte Carlo estimates.

Quantities (all in bits, log base 2; QUANTITIES names them):

* ``pilot_mi``    -- exact mutual information between the two pilot-window
  observations; n_a*n_b*log2 of the reciprocity gain.
* ``floor``       -- expected secret bits per probing slot that Bob gains
  over Eve from Alice's random probes; positive whenever Eve's receive noise
  is nonzero, and where n_e < n_a also when it is zero.  Its per-draw form
  depends on the regime (n_e < n_a or not; see secrecy_floor_sample).
* ``lower_bob`` / ``lower_alice`` -- the two secret-key-rate lower bounds
  per coherence period (the Alice-side bound is the Bob-side bound of the
  role-swapped scenario, exact when v_b = 0); ``lower`` is the larger of
  the two, which is always the Bob-side bound when v_b = 0.
* ``gap`` / ``upper`` -- the upper bound exceeds the Bob-side lower bound
  by a gap that is exactly zero when v_b = 0 (one-way probing).

Each expectation has one per-sample form here, the one the engine runs;
skcprobe.verify holds an algebraically equivalent form of each, computed
through a different factorization, and certifies their agreement on the
engine's draws; the two-way forms are sums of the log-dets that the floor of
each probing direction and its controls factor.  Every per-sample integrand
also accepts a block of draws (see ChannelRealization) and then evaluates
all of its trials at once with stacked Gram products and factorizations.
``evaluate_many`` is the single Monte Carlo path that every estimate here
goes through: points whose draws are identical share one pass, and each
block's Gram products, log-dets and traces are computed once for all of
them, kept in one memo keyed by the product, the probing direction and the
arguments, and built in the block's work matrices (see Grams; ``evaluate``
is its one-point call).  One plan per call (_plan) decides before any draw
what is exact: the floor where Eve hears Alice noiselessly or at Bob's
SNR, and where Eve's and Bob's SNRs are three times or more apart
(_floor_plan); elsewhere it estimates the floor, and the bounds built on
it, with control variates whose exact means
``wishart_logdet_mean``, ``wishart_trace_mean`` and the floor's closed form
evaluate: t2 and t3, the log-dets of what Eve and Bob see of Alice's
probes, t5, what both see together at Bob's SNR, where n_e < n_a t4, what
Bob sees through the dimensions Eve cannot observe, t1, what Eve sees at
Bob's SNR, u3 and u1, the first-order interactions of Eve's and Bob's
Grams, fl and fh, the floor itself on the same draws at Eve's SNRs a third
and three times Bob's (the closed form's domain edges), and p2 and p3, the
power Eve and Bob receive (see _controls), all of them from CV_MIN_TRIALS
trials on, in one regression per point, and reports the regression
intercept's HC3 stderr.  Every closed form a call needs is evaluated once,
in stacks, one per shape, Bob's SNR and branch (_floor_forms).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .channel import ChannelRealization, ProbingConfig, derive_gammas
from .errors import (GridTooSmall, IntegrandFailure, InvalidNoise, OrderingViolation,
                     SkcError, ValidationError)
from .montecarlo import BLOCK, Estimate, McSettings, collect, summarize
from .numerics import conj_t, hermitize, logdet_hermitian_pd

_LN2 = math.log(2.0)


def reciprocity_gain(config: ProbingConfig) -> float:
    """Per-antenna-pair MI factor of the pilot windows.

    Equals 1 iff rho = 0 and grows without bound as |rho| -> 1 with strong
    pilots; always >= 1 since |rho|^2 <= 1 only shrinks the denominator's
    cross term.

    The ratio (sa+1)(sb+1) / ((1-|rho|^2) sa sb + sa + sb + 1) of the pilot
    SNR products sa, sb is evaluated divided through by (sa+1)(sb+1): with
    u = 1/(s+1) and t = 1-u per side it is 1 + |rho|^2 ta tb / ((1-|rho|^2)
    ta tb + ua + ta ub), built from terms in [0, 1] that cannot overflow at
    any power, and exactly 1 at rho = 0 or zero power.  The denominator
    vanishes only when both products overflow and |rho| = 1, where the gain
    is infinite; that raises ValidationError.
    """
    g = derive_gammas(config)
    ua = 1.0 / (g.gamma_ba * config.psi_a + 1.0)
    ub = 1.0 / (g.gamma_ab * config.psi_b + 1.0)
    ta, tb = 1.0 - ua, 1.0 - ub
    r2 = abs(config.rho) ** 2
    den = (1.0 - r2) * ta * tb + ua + ta * ub
    if den == 0.0:
        raise ValidationError("pilot MI is infinite: both pilot SNR products "
                              "overflow and |rho| = 1")
    return 1.0 + r2 * ta * tb / den


def pilot_mi(config: ProbingConfig) -> float:
    """Exact MI between the two pilot observations, bits per coherence period."""
    return config.n_a * config.n_b * math.log2(reciprocity_gain(config))


# wishart_logdet_mean's domain: cols in [1, WISHART_MAX_DIM], rows in [1,
# 2 WISHART_MAX_DIM] (the stacked [g_a; h_ba] of t5) and gamma in
# WISHART_GAMMAS, where the rule below matches an exact mpmath evaluation
# to 1e-10 relative (tests/test_control_variates.py)
WISHART_MAX_DIM = 16
WISHART_GAMMAS = (1e-6, 1e10)
# the rule must integrate the eigenvalue density to its mass m this closely
WISHART_MASS_RTOL = 1e-12
# exp-sinh rule: lambda = exp(pi/2 sinh t) on a uniform t grid of this step,
# from lambda = 1e-14 to about 250 (365 nodes)
_EXP_SINH_STEP = 1.0 / 64
_EXP_SINH_SPAN = (1e-14, 250.0)


@functools.lru_cache(maxsize=None)
def _exp_sinh_rule(dtype: type = np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Nodes lambda_i and weights w_i, sum_i w_i f(lambda_i) ~ the integral
    of f over (0, inf), evaluated in `dtype` (np.longdouble for the floor's
    closed form), built on first use."""
    lo, hi = (math.asinh(math.log(x) / (math.pi / 2)) for x in _EXP_SINH_SPAN)
    step = dtype(_EXP_SINH_STEP)
    t = lo + step * np.arange(math.ceil((hi - lo) / _EXP_SINH_STEP) + 1, dtype=dtype)
    half_pi = dtype(math.pi) / 2
    nodes = np.exp(half_pi * np.sinh(t))
    return nodes, step * half_pi * np.cosh(t) * nodes


@functools.lru_cache(maxsize=None)
def _eigenvalue_weights(m: int, d: int) -> np.ndarray | None:
    """The rule's weights times the density of the m eigenvalues of a
    complex Wishart matrix with m + d degrees of freedom summed over the
    eigenvalues, sum_{k<m} k!/(k+d)! L_k^d(x)^2 x^d e^-x, whose integral is
    m; None when the weights miss that mass by more than WISHART_MASS_RTOL.
    The Laguerre polynomials L_k^d come from their three-term recurrence."""
    nodes, weights = _exp_sinh_rule()
    prev, cur = np.zeros_like(nodes), np.ones_like(nodes)
    density = np.zeros_like(nodes)
    for k in range(m):
        density += math.exp(math.lgamma(k + 1) - math.lgamma(k + d + 1)) * cur * cur
        prev, cur = cur, ((2 * k + 1 + d - nodes) * cur - (k + d) * prev) / (k + 1)
    out = weights * density * np.exp(d * np.log(nodes) - nodes)
    if not abs(math.fsum(out) - m) <= WISHART_MASS_RTOL * m:
        return None
    out.flags.writeable = False
    return out


def _wishart_rule(name: str, rows: int, cols: int, gamma: float
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """(nodes, weights, gamma) of the rule for a rows x cols Wishart mean
    (see _eigenvalue_weights); ValueError, naming `name`, outside the
    domain."""
    if not (1 <= rows <= 2 * WISHART_MAX_DIM and 1 <= cols <= WISHART_MAX_DIM):
        raise ValueError(f"{name}: shape {rows}x{cols} outside "
                         f"[1, {2 * WISHART_MAX_DIM}] x [1, {WISHART_MAX_DIM}]")
    g = float(gamma)
    lo, hi = WISHART_GAMMAS
    if not lo <= g <= hi:
        raise ValueError(f"{name}: gamma {gamma} outside [{lo:g}, {hi:g}]")
    weights = _eigenvalue_weights(min(rows, cols), abs(rows - cols))
    if weights is None:
        raise ValueError(f"{name}: the rule misses the eigenvalue "
                         f"density's mass at shape {rows}x{cols}")
    return _exp_sinh_rule()[0], weights, g


def wishart_logdet_mean(rows: int, cols: int, gamma: float) -> float:
    """E log2det(I + gamma h^H h) over rows x cols matrices h of iid CN(0, 1)
    entries (Telatar, "Capacity of multi-antenna Gaussian channels", Eur.
    Trans. Telecom. 10(6), 1999, Thm 2): the integral of ln(1 + gamma x)
    against the eigenvalue density (see _eigenvalue_weights) with m =
    min(rows, cols), d = |rows - cols|, over ln 2, on a fixed exp-sinh rule.
    numpy core only.

    ValueError outside the domain: rows in [1, 2 WISHART_MAX_DIM], cols in
    [1, WISHART_MAX_DIM], gamma in WISHART_GAMMAS, and a rule that
    integrates the density to its mass (WISHART_MASS_RTOL).
    """
    nodes, weights, g = _wishart_rule("wishart_logdet_mean", rows, cols, gamma)
    return float(np.log1p(g * nodes) @ weights) / _LN2


def wishart_trace_mean(rows: int, cols: int, gamma: float) -> float:
    """E tr(gamma W (I + gamma W)^-1), W = h^H h over rows x cols matrices h
    of iid CN(0, 1) entries: the integral of gamma x / (1 + gamma x) against
    the eigenvalue density, gamma ln 2 d/dgamma of wishart_logdet_mean, on
    the same rule, with the same domain and ValueError."""
    nodes, weights, g = _wishart_rule("wishart_trace_mean", rows, cols, gamma)
    x = g * nodes
    return float((x / (1.0 + x)) @ weights)


# The floor's closed form (_floor_form) holds where gamma_ea and gamma_ba
# are between FLOOR_FORM_RATIO and FLOOR_FORM_MAX_RATIO apart, one over the
# other, both in WISHART_GAMMAS, at the shapes _floor_form_shape admits, and
# where np.longdouble carries at least 64 significand bits (its eps below
# FLOOR_FORM_LONG_EPS), except below a decade apart where n_e >= n_a and
# Eve's SNR is the larger with gamma_ea above FLOOR_FORM_SCHUR_GAMMA: there
# the Schur complement's entries run out of digits (1.0-1.7e-10 at (8, 4,
# 10), gamma_ea from 1e3).  In that domain it matches an exact mpmath
# evaluation to 1e-10 relative, 5.8e-11 at worst (see the closed-floor
# tests).  FLOOR_FORM_RATIO sits below 10^0.5, which in floats is just
# above fig1's 0.316 point.  As the two gammas merge, its two clusters
# of rows become one and it loses digits: at fig1's (8, 4, 10) it is 5.1e-9
# off at 10^0.25; at 3e4 apart it missed the gate (1.7e-10 at (8, 4, 6)).
FLOOR_FORM_RATIO = 3.0
FLOOR_FORM_MAX_RATIO = 1e3
FLOOR_FORM_SCHUR_GAMMA = 1e2
FLOOR_FORM_LONG_EPS = 1e-18


def _floor_form_shape(n_a: int, n_b: int, n_e: int) -> bool:
    """The shapes where the closed form passed its gate at every tested pair
    of gammas in its domain (see FLOOR_FORM_RATIO): n_a <= 8, n_e <= 10 and
    n_a - 4 <= n_b <= 4.  Outside, the float64 factorization that its
    solves refine stops converging at some gammas where Bob's SNR is the
    larger (1e-4 relative at (8, 2, 6); 1e-6 at (1, 6, 1), both at 1e-3 and
    1e-6) or the longdouble entries run out of digits where Eve's is
    (1.0e-10 at (8, 4, 12), 1e10 and 1e9)."""
    return n_a <= 8 and n_e <= 10 and n_a - 4 <= n_b <= 4


def _floor_form_domain(n_a: int, n_b: int, n_e: int, gamma_ea: float, gamma_ba: float
                       ) -> bool:
    """Whether the closed form holds at this shape and these gammas (see
    FLOOR_FORM_RATIO); every test is a comparison of numbers."""
    lo, hi = WISHART_GAMMAS
    if not (lo <= gamma_ea <= hi and lo <= gamma_ba <= hi):
        return False
    ratio = max(gamma_ea / gamma_ba, gamma_ba / gamma_ea)
    return (FLOOR_FORM_RATIO <= ratio <= FLOOR_FORM_MAX_RATIO
            and not (ratio < 10 and n_e >= n_a
                     and gamma_ea > max(gamma_ba, FLOOR_FORM_SCHUR_GAMMA))
            and _floor_form_shape(n_a, n_b, n_e)
            and np.finfo(np.longdouble).eps < FLOOR_FORM_LONG_EPS)


def _floor_edges(gamma_ba: float) -> tuple[float, float]:
    """gamma_ba / FLOOR_FORM_RATIO and gamma_ba FLOOR_FORM_RATIO, the gammas
    of Eve at which the floor's edge controls fl and fh are taken (see
    _controls), each moved outwards by the fewest ulps that make the ratio
    _floor_form_domain reads at least FLOOR_FORM_RATIO: 3 gamma_ba itself
    reads 2.9999999999999996 apart for about 7% of gamma_ba."""
    low, high = gamma_ba / FLOOR_FORM_RATIO, gamma_ba * FLOOR_FORM_RATIO
    if gamma_ba > 0:
        while low > 0 and gamma_ba / low < FLOOR_FORM_RATIO:
            low = math.nextafter(low, 0.0)
        while high / gamma_ba < FLOOR_FORM_RATIO:
            high = math.nextafter(high, math.inf)
    return low, high


@functools.lru_cache(maxsize=1)
def _long_rule() -> tuple[np.ndarray, np.ndarray]:
    """The exp-sinh rule in np.longdouble: its nodes u_i, and its weights
    w_i times e^-u_i, the weight of every moment the closed form takes."""
    nodes, weights = _exp_sinh_rule(np.longdouble)
    return nodes, weights * np.exp(-nodes)


@functools.lru_cache(maxsize=None)
def _cluster_pattern(count: int, s: int, c: int, m: int):
    """The parts of a cluster's rows (see _cluster_rows) that depend on the
    shape only: the exponent p = k + s + j of each integral column, the
    integers (k+s+j)!/(k+s)! and 1/(k+s)!, and (-1)^k C(r, k) and r + 1 of
    each polynomial column, in np.longdouble."""
    k = np.arange(count)[:, None]
    p = k + s + np.arange(c)
    factorial = np.array([math.factorial(i) for i in range(count + s + c)], dtype=np.longdouble)
    inverse = 1 / factorial[k + s]
    r = np.arange(m - c)[::-1]
    signed = np.array([[(-1) ** i * math.comb(int(j), i) for j in r] for i in range(count)],
                      dtype=np.longdouble)
    return p, factorial[p] * inverse, inverse, signed, (r + 1).astype(np.longdouble)


@functools.lru_cache(maxsize=32)
def _cluster_rows(gamma: float, count: int, s: int, c: int, m: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The rows (k < count) of A and N (see _floor_form) of the cluster at
    gamma = 1/tau, in np.longdouble, each times tau^(k+s+1)/(k+s)! (x = u /
    tau): A = (k+s+j)!/(k+s)! gamma^j and N = gamma^j/(k+s)! times the
    integral of u^(k+s+j) e^-u ln(1 + gamma u) on the longdouble rule in
    the integral columns j < c, A = (-1)^k C(r, k) tau^(r+1) and N = 0 in
    the polynomial ones (s = 0 there).  A fig1 sweep shares Bob's cluster."""
    p, ratio, inverse, signed, exponent = _cluster_pattern(count, s, c, m)
    g = np.longdouble(gamma)
    nodes, weights = _long_rule()
    # the moments int u^q e^-u ln(1 + gamma u) du, q = 0 .. max p, on a
    # table of w_i e^-u_i u_i^q (100 KB at the largest shape) formed per
    # call and freed before the rows are allocated: kept, or freed after
    # them, it raised fig1's peak RSS by 0.17-0.25 MB
    table = np.empty((p.max() + 1, nodes.size), dtype=np.longdouble)
    table[0] = weights
    table[1:] = nodes
    np.multiply.accumulate(table, axis=0, out=table)
    moments = table @ np.log1p(g * nodes)
    del table
    powers = g ** np.arange(c, dtype=np.longdouble)
    polynomial = signed * g ** -exponent
    a = np.concatenate([ratio * powers, polynomial], axis=1)
    n = np.concatenate([moments[p] * inverse * powers, np.zeros_like(polynomial)], axis=1)
    a.flags.writeable = n.flags.writeable = False
    return a, n


def _refined_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for longdouble a and b: a float64 solve and two steps of
    iterative refinement whose residual b - a x is formed in longdouble."""
    a64 = a.astype(float)
    x = np.linalg.solve(a64, b.astype(float)).astype(np.longdouble)
    for _ in range(2):
        x += np.linalg.solve(a64, (b - a @ x).astype(float))
    return x


def _floor_form(n_a: int, n_b: int, n_e: int, gammas_ea: Sequence[float], gamma_ba: float
                ) -> np.ndarray:
    """The floor's mean J - E t2, J = E log2det(I + gamma_ea G + gamma_ba H),
    at each gamma_ea of a stack on one branch (below), all of them in one
    pass that forms Bob's rows once and solves every system in one batched
    call.  The columns of Y = [sqrt(gamma_ea) g_a; sqrt(gamma_ba) h_ba] are
    iid CN(0, diag(gamma_ea I_{n_e}, gamma_ba I_{n_b})), so Y Y^H is a
    complex Wishart matrix with n_a degrees of freedom and two clusters of
    covariance eigenvalues; over the ratio of determinants that is its
    eigenvalue density the Andreief identity gives J = tr(A^-1 N) / ln 2
    (Chiani, Win, Zanella, IEEE Trans. IT 49(10), 2003).  A and N are m x m,
    m = n_e + n_b, with a row (cluster, k) for each k below the cluster's
    multiplicity (the confluent limit of its equal eigenvalues), tau =
    1/gamma per cluster, s = max(n_a - m, 0), c = min(n_a, m):
    * integral columns j < c: A = (k+s+j)! / tau^(k+s+j+1), the integral
      of x^(k+s+j) e^(-tau x) over (0, inf), and N the same integral with
      ln(1 + x) in it;
    * polynomial columns l = c .. m-1, r = m-1-l: A = (-1)^k r!/(r-k)!
      tau^(r-k) (0 for k > r), N = 0.
    Rows and columns are scaled (_cluster_rows; each column to a largest
    entry of 1), which leaves tr(A^-1 N) as it is.  Eve's cluster comes
    first.  The branch: where n_e >= n_a and gamma_ea > gamma_ba (at every
    gamma_ea of the stack) the floor is small beside J and E t2, so it is
    formed without their difference: Eve's rows in the integral columns and
    the last n_e - n_a polynomial ones (K) are the same form of E t2 =
    tr(A_EK^-1 N_EK) / ln 2, and eliminating them leaves floor ln 2 = tr(S^-1
    (A_BK X - N_BK) Y), X = A_EK^-1 N_EK, Y = A_EK^-1 A_EP, S = A_BP - A_BK
    Y, with P the other polynomial columns and B Bob's rows.  Otherwise E t2
    is wishart_logdet_mean's."""
    m = n_e + n_b
    s, c = max(n_a - m, 0), min(n_a, m)
    bob, bob_n = _cluster_rows(gamma_ba, n_b, s, c, m)
    eve = [_cluster_rows(gamma, n_e, s, c, m) for gamma in gammas_ea]
    a = np.stack([np.concatenate([rows, bob]) for rows, _ in eve])
    n = np.stack([np.concatenate([rows, bob_n]) for _, rows in eve])
    scale = 1 / np.max(np.abs(a), axis=-2, keepdims=True)
    a *= scale
    n *= scale
    ln2 = np.log(np.longdouble(2))
    if n_e >= n_a and gammas_ea[0] > gamma_ba:
        # columns reordered to K, then P: here c = n_a, and K has n_e columns
        split = m - (n_e - n_a)
        a = np.concatenate([a[..., :c], a[..., split:], a[..., c:split]], axis=-1)
        n = np.concatenate([n[..., :c], n[..., split:]], axis=-1)
        solved = _refined_solve(a[:, :n_e, :n_e], np.concatenate(
            [n[:, :n_e], a[:, :n_e, n_e:]], axis=-1))
        x, y = solved[..., :n_e], solved[..., n_e:]
        schur = a[:, n_e:, n_e:] - a[:, n_e:, :n_e] @ y
        z = _refined_solve(schur, (a[:, n_e:, :n_e] @ x - n[:, n_e:]) @ y)
        return (np.trace(z, axis1=-2, axis2=-1) / ln2).astype(float)
    joint = np.trace(_refined_solve(a, n)[:, :c, :c], axis1=-2, axis2=-1) / ln2
    return joint.astype(float) - [wishart_logdet_mean(n_e, n_a, g) for g in gammas_ea]


def _floor_forms(points: Iterable[tuple]) -> dict[tuple, float]:
    """point -> _floor_form at each distinct (n_a, n_b, n_e, gamma_ea,
    gamma_ba) point, every one inside _floor_form_domain, evaluated in one
    stack per shape, gamma_ba and branch.  A single point is a stack of
    one; evaluate_many asks for every point its configs need at once."""
    stacks: dict[tuple, list[float]] = {}
    for n_a, n_b, n_e, gamma_ea, gamma_ba in dict.fromkeys(points):
        branch = n_e >= n_a and gamma_ea > gamma_ba
        stacks.setdefault((n_a, n_b, n_e, gamma_ba, branch), []).append(gamma_ea)
    forms = {}
    for (n_a, n_b, n_e, gamma_ba, _), gammas in stacks.items():
        values = _floor_form(n_a, n_b, n_e, gammas, gamma_ba)
        forms.update(((n_a, n_b, n_e, gamma, gamma_ba), float(value))
                     for gamma, value in zip(gammas, values))
    return forms


@functools.lru_cache(maxsize=None)
def _h_ba_first(n_e: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices that reorder an n-square matrix over [g_a;
    h_ba]'s rows, g_a's n_e first, to [h_ba; g_a]; built once per shape and
    read-only."""
    order = np.r_[np.arange(n_e, n), np.arange(n_e)]
    order.flags.writeable = False
    return order[:, None], order


@functools.lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The read-only n-square identity, built once (np.eye is a per-draw cost)."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _gram(m: np.ndarray) -> np.ndarray:
    return hermitize(conj_t(m) @ m)


def _outer(m: np.ndarray) -> np.ndarray:
    return hermitize(m @ conj_t(m))


def _squared_norm(m: np.ndarray) -> np.ndarray:
    """||m||_F^2 per matrix of a stack whose rows are contiguous, from the
    real and imaginary parts side by side."""
    parts = m.view(np.float64)
    return np.einsum("...ij,...ij->...", parts, parts)


def _per_block(method):
    """A Grams method whose value is computed on its first call and then
    kept, its arrays read-only, in the memo that both roles of a block
    share, keyed by the method's name, the role and the positional
    arguments."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self, *args):
        key = (name, self._swapped, args)
        memo = self._memo
        if key not in memo:
            value = method(self, *args)
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            memo[key] = value
        return memo[key]

    return cached


class Grams:
    """Gram matrices of the channels of a draw or a block of draws, the
    log-dets factored from them, and the block's work matrices.  A caller
    that evaluates several configs on the same draws passes one store to
    every integrand; swap_roles() reads the role-swapped draws (see
    ChannelRealization.swap_roles) from the same store.

    The Grams are m^H m of each channel m and, for the floor where n_e <
    n_a, K = [g_a; h_ba][g_a; h_ba]^H, (n_e + n_b)-square (see
    floor_logdets).  Every method marked _per_block computes its value on
    first use and keeps it, read-only, for every integrand and point that
    asks again with the same arguments in the same role.

    work(shape) is a (trials, rows, cols) complex stack, allocated on first
    use and then overwritten by every integrand that asks for that shape:
    each builds the matrices it factors there (gamma G + I and the like) in
    place.  A 200-trial stack of 8 x 8 matrices is 200 KB, above the
    allocator's mmap threshold, so fresh temporaries at every point of a
    sweep would be returned to the OS and faulted back in page by page.  A
    work matrix holds only what its last writer left there; no integrand
    returns one or a view of one.
    """

    def __init__(self, realization: ChannelRealization,
                 shared: tuple[dict, dict] | None = None, swapped: bool = False):
        self._realization = realization
        # the draws as this role names them
        self._draws = realization.swap_roles() if swapped else realization
        self._memo, self._work = ({}, {}) if shared is None else shared
        self._swapped = swapped

    @_per_block
    def _gram(self, channel: str, outer: bool) -> np.ndarray:
        """m^H m of channel m, m m^H if `outer`."""
        m = getattr(self._draws, channel)
        return _outer(m) if outer else _gram(m)

    def __getitem__(self, channel: str) -> np.ndarray:
        return self._gram(channel, False)

    @_per_block
    def identity_logdet(self, channel: str, gamma: float):
        """log2det(I + gamma m^H m) of channel m, per trial, factored in the
        work matrix on the smaller side of Sylvester's identity, as log2det(I
        + gamma m m^H) where m has fewer rows than columns."""
        rows, cols = getattr(self._draws, channel).shape[-2:]
        gram = self._gram(channel, rows < cols)
        work = self.work(gram.shape[-2:])
        np.multiply(gram, gamma, out=work)
        work += _eye(gram.shape[-1])
        return logdet_hermitian_pd(work)

    @_per_block
    def power(self, channel: str):
        """tr(m^H m) = ||m||_F^2 of channel m per trial, the sum of squares
        of the raw draw's real and imaginary parts."""
        return _squared_norm(np.ascontiguousarray(getattr(self._draws, channel)))

    def _n_e(self) -> int:
        return self._draws.g_a.shape[-2]

    @_per_block
    def _stacked(self) -> np.ndarray:
        """K = [g_a; h_ba][g_a; h_ba]^H, the stacked channel built in a work
        matrix."""
        g, h = self._draws.g_a, self._draws.h_ba
        n_e = self._n_e()
        stacked = self.work((n_e + h.shape[-2], g.shape[-1]))
        stacked[..., :n_e, :] = g
        stacked[..., n_e:, :] = h
        return _outer(stacked)

    def _scaled_stacked(self, lead: float, cross: float, trail: float) -> np.ndarray:
        """K in the work matrix, its leading n_e-square block times `lead`,
        the off-diagonal blocks times `cross` and the trailing block times
        `trail`; exactly Hermitian, as K is."""
        k = self._stacked()
        n_e = self._n_e()
        scale = np.full(k.shape[-2:], cross)
        scale[:n_e, :n_e] = lead
        scale[n_e:, n_e:] = trail
        return np.multiply(k, scale, out=self.work(k.shape[-2:]))

    @_per_block
    def floor_logdets(self, gamma_ea: float, gamma_ba: float):
        """(t2, floor) per trial where n_e < n_a, from one Cholesky
        factorization of B = I + S S^H, S = [sqrt(gamma_ea) g_a;
        sqrt(gamma_ba) h_ba]: the factor's leading n_e diagonal entries give
        t2 = log2det(I + gamma_ea g_a g_a^H) = log2det(I + gamma_ea G)
        (Sylvester), and its trailing n_b entries the log-det of the Schur
        complement I + gamma_ba h_ba (I + gamma_ea G)^-1 h_ba^H, which is
        the floor."""
        work = self._scaled_stacked(
            gamma_ea, math.sqrt(gamma_ea) * math.sqrt(gamma_ba), gamma_ba)
        work += _eye(work.shape[-1])
        return logdet_hermitian_pd(work, split=self._n_e())

    @_per_block
    def null_logdet(self, gamma_ba: float):
        """t4 = log2det(I + gamma_ba h_ba P h_ba^H) per trial, P the projector
        onto null(g_a), where n_e < n_a: the trailing log-det of B's
        noiseless limit, K with its trailing block times gamma_ba, the
        off-diagonal ones times sqrt(gamma_ba) and I added to the trailing
        block only, whose Schur complement is I + gamma_ba h_ba (I - g_a^H
        (g_a g_a^H)^-1 g_a) h_ba^H."""
        n_e = self._n_e()
        work = self._scaled_stacked(1.0, math.sqrt(gamma_ba), gamma_ba)
        trailing = work[..., n_e:, n_e:]
        trailing += _eye(trailing.shape[-1])
        return logdet_hermitian_pd(work, split=n_e)[1]

    @_per_block
    def eve_joint_logdets(self, gamma_ba: float):
        """(t1, u1) per trial where n_e < n_a, from one Cholesky
        factorization of I + gamma_ba K in K's own [g_a; h_ba] order, built
        in the work matrix: its leading n_e diagonal entries give t1 =
        log2det(I + gamma_ba g_a g_a^H) = log2det(I + gamma_ba G)
        (Sylvester), and the factor's off-diagonal block L21, with |L21|^2 =
        gamma_ba^2 tr(h_ba g_a^H (I + gamma_ba g_a g_a^H)^-1 g_a h_ba^H),
        gives u1 = tr(gamma_ba G (I + gamma_ba G)^-1 H) = |L21|^2 /
        gamma_ba (push-through).  Exactly Hermitian, as K is."""
        n_e = self._n_e()
        k = self._stacked()
        work = np.multiply(k, gamma_ba, out=self.work(k.shape[-2:]))
        work += _eye(k.shape[-1])
        eve, _, chol = logdet_hermitian_pd(work, split=n_e, factor=True)
        return eve, _squared_norm(chol[..., n_e:, :n_e]) / gamma_ba

    @_per_block
    def _times(self) -> np.ndarray:
        """Y = h_ba G, formed once per block."""
        return self._draws.h_ba @ self["g_a"]

    @_per_block
    def interaction_trace(self, gamma_ba: float):
        """u1 = tr(gamma_ba G (I + gamma_ba G)^-1 H) per trial where n_e >=
        n_a, from the n_a x n_a Grams of g_a and h_ba: G commutes with its
        resolvent and H = h_ba^H h_ba, so u1 is gamma_ba tr(Y (I + gamma_ba
        G)^-1 h_ba^H), Y = h_ba G (see _times): one batched solve of I +
        gamma_ba G, built in the work matrix, against h_ba^H's n_b
        columns."""
        h = self._draws.h_ba
        n_a = h.shape[-1]
        work = np.multiply(self["g_a"], gamma_ba, out=self.work((n_a, n_a)))
        work += _eye(n_a)
        solved = np.linalg.solve(work, conj_t(h))
        return gamma_ba * np.einsum("...ij,...ji->...", self._times(), solved).real

    @_per_block
    def bob_interaction_trace(self, gamma_ba: float):
        """u3 = tr(gamma_ba H (I + gamma_ba H)^-1 G) per trial where n_e >=
        n_a, from one batched solve, built in the work matrix: where n_b <
        n_a on the n_b-square outer Gram that t3 factors (see
        identity_logdet), (I + gamma_ba h_ba h_ba^H)^-1 Y = Z, Y = h_ba G (see
        _times), and u3 = gamma_ba tr(Z h_ba^H) (push-through: (I + gamma_ba
        H)^-1, H of rank n_b < n_a, would carry the round-off of its null
        space, gamma_ba times over, into u3); otherwise gamma_ba tr(H (I +
        gamma_ba H)^-1 G), n_a-square."""
        h = self._draws.h_ba
        n_b, n_a = h.shape[-2:]
        if n_b < n_a:
            gram, rhs = self._gram("h_ba", True), self._times()
        else:
            gram, rhs = self["h_ba"], self["g_a"]
        n = gram.shape[-1]
        work = np.multiply(gram, gamma_ba, out=self.work((n, n)))
        work += _eye(n)
        resolved = np.linalg.solve(work, rhs)
        if n_b < n_a:
            u3 = np.trace(resolved @ conj_t(h), axis1=-2, axis2=-1).real
        else:
            u3 = np.einsum("...ij,...ji->...", gram, resolved).real
        return gamma_ba * u3

    @_per_block
    def folded_logdet(self, gamma_ea: float, ratio: float):
        """log2det(I + gamma_ea (G + ratio H)) per trial, from the n_a x n_a
        Grams of g_a and h_ba: the floor's joint log-det where n_e >= n_a
        (ratio = noise_ea/noise_b) and t5 (gamma_ba and ratio 1.0), which
        are one factorization at noise_ea = noise_b."""
        gram = self["g_a"]
        work = np.multiply(self["h_ba"], ratio, out=self.work(gram.shape[-2:]))
        work += gram
        work *= gamma_ea
        work += _eye(work.shape[-1])
        return logdet_hermitian_pd(work)

    def floor(self, gamma_ea: float, gamma_ba: float, ratio: float) -> np.ndarray:
        """The floor per trial, clamped at 0 (see secrecy_floor_sample): where
        n_e < n_a floor_logdets' trailing log-det, or null_logdet's t4 at
        gamma_ea = inf (noise_ea = 0); otherwise folded_logdet at `ratio` =
        noise_ea/noise_b = gamma_ba/gamma_ea less identity_logdet of g_a."""
        if self._n_e() >= self._draws.g_a.shape[-1]:
            val = self.folded_logdet(gamma_ea, ratio) - self.identity_logdet("g_a", gamma_ea)
        elif math.isinf(gamma_ea):
            val = self.null_logdet(gamma_ba)
        else:
            val = self.floor_logdets(gamma_ea, gamma_ba)[1]
        # mathematically >= 0 (each trailing factor entry, or det of M + PSD
        # over det of M, is >= 1); clamp round-off
        return np.maximum(val, 0.0)

    @_per_block
    def bob_joint_logdets(self, gamma_ba: float):
        """(t3, t5, u3) per trial where n_e < n_a, from one Cholesky
        factorization of I + gamma_ba K with K's blocks reordered to [h_ba;
        g_a], built in the work matrix: its leading n_b diagonal entries give
        t3 = log2det(I + gamma_ba h_ba h_ba^H) = log2det(I + gamma_ba H)
        (Sylvester), all of them t5 = log2det(I + gamma_ba K) =
        log2det(I + gamma_ba (G + H)), and the factor's off-diagonal block
        L21 gives u3 = tr(gamma_ba H (I + gamma_ba H)^-1 G) = |L21|^2 /
        gamma_ba (as in eve_joint_logdets).  Exactly Hermitian, as K is."""
        n_e = self._n_e()
        k = self._stacked()
        n_b = k.shape[-1] - n_e
        rows, cols = _h_ba_first(n_e, k.shape[-1])
        work = np.multiply(k[..., rows, cols], gamma_ba, out=self.work(k.shape[-2:]))
        work += _eye(k.shape[-1])
        bob, rest, chol = logdet_hermitian_pd(work, split=n_b, factor=True)
        return bob, bob + rest, _squared_norm(chol[..., n_b:, :n_b]) / gamma_ba

    def work(self, shape: tuple[int, int]) -> np.ndarray:
        """The work stack of matrix shape `shape`."""
        if shape not in self._work:
            self._work[shape] = np.empty(self._realization.trials_shape + shape,
                                         dtype=complex)
        return self._work[shape]

    def swap_roles(self) -> "Grams":
        return Grams(self._realization, (self._memo, self._work), not self._swapped)


def secrecy_floor_sample(realization: ChannelRealization, config: ProbingConfig,
                         grams: Grams | None = None):
    """Per-realization integrand of the secrecy floor (bits per probe slot),
    log2det(I + gamma_ea G + gamma_ba H) - log2det(I + gamma_ea G) with G, H
    the Grams of g_a, h_ba.  At noise_ea = 0 it is its limit there: t4 where
    n_e < n_a (Grams.null_logdet), otherwise exactly 0.  `grams` is the
    realization's Gram store when the caller shares it (see Grams), which
    factors each log-det once.  One form per regime:

    * n_e < n_a: the trailing log-det of one (n_e + n_b)-square Cholesky
      factorization (Grams.floor_logdets), no difference of log-dets.  It
      stays accurate as noise_ea -> 0, where it tends to t4, Bob's channel
      seen through the n_a - n_e dimensions that Eve cannot observe
      (Grams.null_logdet).
    * n_e >= n_a: the difference of two n_a x n_a log-determinants, the
      joint one with Bob's channel folded into Eve's Gram at weight
      noise_ea/noise_b (Grams.folded_logdet) and log2det(I + gamma_ea G)
      (Grams.identity_logdet).

    In both, log2det(I + gamma_ea G) is the control variate t2 that
    evaluate_many reads from the same factorization.
    """
    if config.noise_ea == 0 and config.n_e >= config.n_a:
        return realization.per_trial(0.0)
    gam = derive_gammas(config)
    grams = Grams(realization) if grams is None else grams
    return realization.per_trial(
        grams.floor(gam.gamma_ea, gam.gamma_ba, config.noise_ea / config.noise_b))


# config.swap_roles(), built once per config for the per-draw calls
_swapped_config = functools.lru_cache(maxsize=1024)(ProbingConfig.swap_roles)


def bound_gap_sample(realization: ChannelRealization, config: ProbingConfig,
                     grams: Grams | None = None):
    """Per-realization gap between the upper and Bob-side lower bound,
    v_b (S' - t3') with ' the role-swapped scenario: S' = log2det(I +
    gamma_eb G_b + gamma_ab H_ab), G_b and H_ab the Grams of g_b and h_ab,
    is its floor's joint log-det, the unclamped t2' + floor' of
    Grams.floor_logdets where n_e < n_b and Grams.folded_logdet otherwise,
    and t3' its control t3.  Exactly zero when v_b = 0.
    """
    if config.v_b == 0:
        return realization.per_trial(0.0)
    if config.noise_eb == 0:
        raise InvalidNoise("the bound gap diverges at noise_eb = 0 with v_b > 0")
    swapped = _swapped_config(config)
    gam = derive_gammas(swapped)
    grams = (Grams(realization) if grams is None else grams).swap_roles()
    if swapped.n_e < swapped.n_a:
        t2, floor = grams.floor_logdets(gam.gamma_ea, gam.gamma_ba)
        joint = t2 + floor
    else:
        joint = grams.folded_logdet(gam.gamma_ea, swapped.noise_ea / swapped.noise_b)
    val = config.v_b * (joint - _controls(swapped)["t3"].read(grams))
    return realization.per_trial(np.maximum(val, 0.0))


def lower_bound_bob_sample(realization: ChannelRealization, config: ProbingConfig,
                           grams: Grams | None = None):
    """Per-realization integrand of the Bob-side lower bound, pilot_mi + v_a
    floor + v_b (t3' - t2') with t3', t2' the controls of the role-swapped
    scenario; pilot_mi + v_a * floor bit for bit when v_b = 0.  The floor
    and the controls are read from `grams` when the caller shares it.
    """
    val = pilot_mi(config)
    grams = Grams(realization) if grams is None else grams
    if config.v_a:
        val += config.v_a * secrecy_floor_sample(realization, config, grams)
    if config.v_b:
        if config.noise_eb == 0:
            raise InvalidNoise("lower bound diverges at noise_eb = 0 with v_b > 0")
        controls, swapped = _controls(_swapped_config(config)), grams.swap_roles()
        val += config.v_b * (controls["t3"].read(swapped) - controls["t2"].read(swapped))
    return realization.per_trial(val)


# every quantity `evaluate` estimates; 'lower' is the larger side bound
QUANTITIES = ("pilot_mi", "floor", "gap", "lower_bob", "lower_alice", "upper", "lower")
# the Monte Carlo integrands, in the order a point evaluates them (the
# bounds and the gap read the log-dets that the floors factor)
SAMPLED = ("floor", "lower_bob", "gap", "lower_alice")
# the floor's control variates (see _controls), G and H the Grams of g_a
# and h_ba: t2 = log2det(I + gamma_ea G), t3 = log2det(I + gamma_ba H), t5 =
# log2det(I + gamma_ba (G + H)), where n_e < n_a t4 = log2det(I + gamma_ba
# h_ba P h_ba^H), P the projector onto null(g_a), t1 = log2det(I + gamma_ba
# G), the interaction traces u3 = tr(gamma_ba H (I + gamma_ba H)^-1 G) and
# u1 = tr(gamma_ba G (I + gamma_ba G)^-1 H), the floor's edges fl and fh,
# the floor itself at gamma_ea = gamma_ba / FLOOR_FORM_RATIO and gamma_ba
# FLOOR_FORM_RATIO (see _floor_edges), and the received powers p2 = tr G and
# p3 = tr H; their means are wishart_logdet_mean's, for u3 and u1 n_e and
# n_b times wishart_trace_mean's, for fl and fh _floor_form's, and for p2
# and p3 n_e n_a and n_b n_a.  From CV_MIN_TRIALS trials on (the regression
# needs more than k + 1) a point whose floor is sampled (see _floor_plan)
# regresses on all of them
CONTROLS = ("t2", "t3", "t5", "t4", "t1", "u3", "u1", "fl", "fh", "p2", "p3")
# where a control is not one of a config's (see _controls)
_CONTROL_RULES = {"t2": "noise_ea > 0", "t4": "n_e < n_a",
                  "fl": "gamma_ba / FLOOR_FORM_RATIO inside _floor_form_domain",
                  "fh": "gamma_ba * FLOOR_FORM_RATIO inside _floor_form_domain"}
CV_MIN_TRIALS = 52
# a regression system is singular where its form scaled to a unit diagonal
# has a squared Cholesky pivot, the share of a control's spread that the
# controls before it leave, at or below this, or no factor.  The smallest
# (scripts/control_study.py): at least 5.2e-8 at every bundled sampled
# point from CV_MIN_TRIALS on; at most 2e-12 where t1 ~ t2 (noise_ea within
# 1e-5 of noise_b), 7.5e-11 where t2 ~ gamma_ea p2 / ln 2 (oneway at
# noise_ea = 1e6) and 1.3e-13 at (8, 4, 10), power_a = 1.5e-3
CV_SINGULAR_PIVOT = 1e-9
# the controls that a point whose regression is singular is fitted again
# without (see _control_corrections): at a small gamma a log-det is nearly
# linear in its Gram's trace (t2 ~ gamma_ea p2 / ln 2 where noise_ea is
# large, t3 ~ gamma_ba p3 / ln 2 and t1 ~ gamma_ba p2 / ln 2 at low power,
# where also u1 and u3 are both ~ gamma_ba tr(G H) and the edges are nearly
# linear in the t's), and near noise_ea = noise_b t1 and t2 are nearly
# collinear
CV_DROP_ORDER = ("p2", "p3", "t1", "u1", "fl", "fh")


def _alice_bound_diverges(config: ProbingConfig) -> bool:
    """Eve observes Alice's probes noiselessly: the Alice-side bound is -inf."""
    return config.noise_ea == 0 and config.v_a > 0


def _draws_key(config: ProbingConfig) -> tuple:
    """The parameters sample_channels reads: configs equal on them get the
    same draws."""
    return (config.n_a, config.n_b, config.n_e, config.rho)


class _Mean(NamedTuple):
    """A control's exact mean: `times` the mean of its `kind` of term at
    `args`.  With W = w^H w, w rows x cols with iid CN(0, 1) entries,
    "logdet" is log2det(I + gamma W) at (rows, cols, gamma)
    (wishart_logdet_mean), "trace" tr(gamma W (I + gamma W)^-1) at (rows,
    cols, gamma) (wishart_trace_mean) and "power" tr W at (rows, cols), whose
    mean is rows cols; "floor" is the floor at (n_a, n_b, n_e, gamma_ea,
    gamma_ba), whose mean is _floor_form's."""

    kind: str
    args: tuple
    times: int = 1


class _Control(NamedTuple):
    """One of the floor's controls at a config: its exact mean, and
    read(grams), its per-trial values from a block's Gram store."""

    mean: _Mean
    read: Callable


@functools.lru_cache(maxsize=1024)
def _controls(config: ProbingConfig) -> dict[str, _Control]:
    """Name -> _Control of each of the floor's CONTROLS at `config`, in the
    order a point takes them: (t2, t3, t5), then t4 where n_e < n_a, (t1,
    u3, u1), the edges (fl, fh) and (p2, p3) last; t2 only where noise_ea >
    0 (at noise_ea = 0 its gamma is inf), and each edge only where its
    gammas are inside _floor_form_domain.  Where the floor is exact (see
    _floor_plan) no point regresses on them.  This table is the one
    statement of which controls a point has: verify checks each entry's
    mean and values against its own oracles.
    Each t is a log2det(I + gamma w^H w) with w rows x cols of iid CN(0, 1)
    entries, whose mean is wishart_logdet_mean(rows, cols, gamma); t5's w
    is [g_a; h_ba], (n_e + n_b) x n_a.  u3 = tr(P_H G), P_H = gamma_ba H (I
    + gamma_ba H)^-1, has mean n_e wishart_trace_mean(n_b, n_a, gamma_ba), G
    being independent of H with mean n_e I, and u1 = tr(P_G H) likewise n_b
    wishart_trace_mean(n_e, n_a, gamma_ba): to first order in gamma_ea the
    floor is t3 - gamma_ea u3 / ln 2.  The edges fl and fh are the floor
    itself (Grams.floor) on the same draws at Eve's gammas gamma_ba /
    FLOOR_FORM_RATIO and gamma_ba FLOOR_FORM_RATIO (_floor_edges), where its
    mean has the closed form: with t5 - t1, the floor at gamma_ea =
    gamma_ba, they pin its dependence on gamma_ea from both sides.  p2 = tr
    G and p3 = tr H, sums of n_e n_a and n_b n_a squared unit-variance
    entries, have means n_e n_a and n_b n_a; they are read once per block
    from the raw draws (Grams.power), and the others from the Grams and
    factorizations that the floor forms anyway.  Where n_e < n_a, t2 is the
    leading part of the floor's own factorization, t3, t5 and u3 come from
    one factorization of the reordered stacked Gram
    (Grams.bob_joint_logdets), t1 and u1 from one of the stacked Gram in its
    own order (Grams.eve_joint_logdets), and t4 (h_ba in an orthonormal
    basis of null(g_a) is n_b x (n_a - n_e), iid and independent of g_a)
    from its noiseless limit; otherwise t2, t3 and t1 are identity log-dets
    (t3 on Bob's smaller side), t5 is Grams.folded_logdet at ratio 1.0, u3
    is Grams.bob_interaction_trace and u1 Grams.interaction_trace.  All but
    t2 depend on gamma_ba only (p2 and p3 on no gamma), so the points of a
    noise_ea sweep share them per block.  The two-way integrands read the
    role-swapped config's t3 and t2 on every draw, so the dict is built once
    per config, shared and read only."""
    gam = derive_gammas(config)
    g_ea, g_ba = gam.gamma_ea, gam.gamma_ba
    n_a, n_b, n_e = config.n_a, config.n_b, config.n_e

    def logdet(rows, cols, gamma, read):
        return _Control(_Mean("logdet", (rows, cols, gamma)), read)

    def trace(times, rows, read):
        return _Control(_Mean("trace", (rows, n_a, g_ba), times), read)

    if n_e >= n_a:
        controls = {
            "t2": logdet(n_e, n_a, g_ea, lambda grams: grams.identity_logdet("g_a", g_ea)),
            "t3": logdet(n_b, n_a, g_ba, lambda grams: grams.identity_logdet("h_ba", g_ba)),
            "t5": logdet(n_e + n_b, n_a, g_ba, lambda grams: grams.folded_logdet(g_ba, 1.0)),
            "t1": logdet(n_e, n_a, g_ba, lambda grams: grams.identity_logdet("g_a", g_ba)),
            "u3": trace(n_e, n_b, lambda grams: grams.bob_interaction_trace(g_ba)),
            "u1": trace(n_b, n_e, lambda grams: grams.interaction_trace(g_ba))}
    else:
        controls = {
            "t2": logdet(n_e, n_a, g_ea, lambda grams: grams.floor_logdets(g_ea, g_ba)[0]),
            "t3": logdet(n_b, n_a, g_ba, lambda grams: grams.bob_joint_logdets(g_ba)[0]),
            "t5": logdet(n_e + n_b, n_a, g_ba, lambda grams: grams.bob_joint_logdets(g_ba)[1]),
            "t4": logdet(n_b, n_a - n_e, g_ba, lambda grams: grams.null_logdet(g_ba)),
            "t1": logdet(n_e, n_a, g_ba, lambda grams: grams.eve_joint_logdets(g_ba)[0]),
            "u3": trace(n_e, n_b, lambda grams: grams.bob_joint_logdets(g_ba)[2]),
            "u1": trace(n_b, n_e, lambda grams: grams.eve_joint_logdets(g_ba)[1])}
    for name, edge in zip(("fl", "fh"), _floor_edges(g_ba)):
        if _floor_form_domain(n_a, n_b, n_e, edge, g_ba):
            controls[name] = _Control(
                _Mean("floor", (n_a, n_b, n_e, edge, g_ba)),
                lambda grams, edge=edge: grams.floor(edge, g_ba, g_ba / edge))
    controls["p2"] = _Control(_Mean("power", (n_e, n_a)), lambda grams: grams.power("g_a"))
    controls["p3"] = _Control(_Mean("power", (n_b, n_a)), lambda grams: grams.power("h_ba"))
    if config.noise_ea == 0:
        del controls["t2"]
    return controls


@functools.lru_cache(maxsize=1024)
def _control_mean(mean: _Mean) -> float:
    """The exact mean of a control other than an edge (whose mean is the
    floor's closed form, _floor_forms), evaluated once per term: the points
    of a sweep share most of their controls' means."""
    if mean.kind == "power":
        return float(mean.times * math.prod(mean.args))
    form = wishart_trace_mean if mean.kind == "trace" else wishart_logdet_mean
    return mean.times * form(*mean.args)


def _control_means(config: ProbingConfig, names: Iterable[str]) -> dict[str, float] | None:
    """The exact means of the named controls of `config` (no edge), or None
    where one is outside its domain (power_a = 0 is outside it)."""
    try:
        return {name: _control_mean(_controls(config)[name].mean) for name in names}
    except ValueError:
        return None


def _edge_points(config: ProbingConfig) -> dict[str, tuple]:
    """Name -> (n_a, n_b, n_e, gamma_ea, gamma_ba) of each edge control of
    `config` (see _controls), the point whose closed form is its mean."""
    return {name: control.mean.args for name, control in _controls(config).items()
            if control.mean.kind == "floor"}


def _floor_plan(config: ProbingConfig) -> tuple[str | None, float | tuple | None]:
    """The form of the floor's exact mean at `config` and the mean, or for
    the closed form its point; (None, None) where the floor is sampled.  Per
    draw the floor is, at noise_ea = 0, 0 where n_e >= n_a and t4 where n_e
    < n_a, and at noise_ea = noise_b t5 - t2: its mean is "0", "E t4" or "E
    t5 - E t2", unless a mean is outside its domain.  Otherwise it is the
    "closed form" where _floor_form_domain admits the config's point
    (gamma_ea and gamma_ba FLOOR_FORM_RATIO or more apart), its one test."""
    if config.noise_ea == 0 and config.n_e >= config.n_a:
        return "0", 0.0
    if config.noise_ea in (0.0, config.noise_b):
        means = _control_means(config, ("t4",) if config.noise_ea == 0 else ("t5", "t2"))
        if means is None:
            return None, None
        return ("E t4", means["t4"]) if config.noise_ea == 0 else (
            "E t5 - E t2", means["t5"] - means["t2"])
    gam = derive_gammas(config)
    point = (config.n_a, config.n_b, config.n_e, gam.gamma_ea, gam.gamma_ba)
    return ("closed form", point) if _floor_form_domain(*point) else (None, None)


def _smallest_pivot(system: np.ndarray) -> float:
    """The smallest squared pivot of the Cholesky factor of a regression
    system scaled to a unit diagonal, 0 where a control does not vary or
    there is no factor: the system is singular where it is at or below
    CV_SINGULAR_PIVOT."""
    diagonal = np.diagonal(system)
    if not np.all(diagonal > 0):
        return 0.0
    scale = 1.0 / np.sqrt(diagonal)
    try:
        factor = np.linalg.cholesky(system * np.multiply.outer(scale, scale))
    except np.linalg.LinAlgError:
        return 0.0
    return float(np.min(np.diagonal(factor)) ** 2)


def _control_corrections(rows: np.ndarray, means: np.ndarray, droppable: Sequence[int] = ()
                         ) -> tuple[np.ndarray, float] | None:
    """One point's fit, with rows = (t_1 .. t_k, floor) over its n trials
    and means the exact means of the k controls: beta . (t - mean) per
    trial, beta the least-squares coefficients of the floor on the controls
    (intercept included), and the factor that takes the adjusted samples'
    stderr to the intercept's HC3 stderr (MacKinnon and White, J.
    Econometrics 29(3), 1985), sqrt(sum_i w_i^2 r_i^2 / (1 - h_i)^2): with
    D_i trial i's centred controls, S their sums of products and d their
    means less the exact ones, w_i = 1/n - d^T S^-1 D_i is the trial's
    weight in the intercept, h_i = 1/n + D_i^T S^-1 D_i its leverage and r_i
    its adjusted sample less their mean.  Where S is singular
    (_smallest_pivot) the fit is on the controls left with the fewest of
    those at the indices `droppable` dropped, earlier ones first among as
    many, each set tested on its principal submatrix of S before the one
    solve that gives beta, S^-1 d and S^-1; None where every set is
    singular.  Beside rows the fit holds three buffers of n trials: the
    per-trial products with S^-1 and beta are formed over slices of at most
    BLOCK trials, whose columns are those of the whole products, and every
    sum over trials is one pairwise reduction over all n.  rows is
    overwritten."""
    n, k = rows.shape[1], len(means)
    centre = np.add.reduce(rows[:k], axis=-1) / n
    rows[:k] -= centre[:, None]
    # the centred controls' sums of products with each other and with the
    # floor (which needs no centring: the controls sum to 0)
    sums = rows[:k] @ rows.T
    for dropped in itertools.chain.from_iterable(
            itertools.combinations(droppable, count) for count in range(len(droppable) + 1)):
        kept = [i for i in range(k) if i not in dropped]
        if _smallest_pivot(sums[np.ix_(kept, kept)]) > CV_SINGULAR_PIVOT:
            break
    else:
        return None
    if dropped:
        # the kept rows and the floor's moved up in place, with sums of
        # products of their own (a product's round-off depends on its shape:
        # the fit is bit for bit the one on those controls alone)
        for row, source in enumerate(kept + [k]):
            rows[row] = rows[source]
        centre, means, k = centre[kept], means[kept], len(kept)
        rows = rows[:k + 1]
        sums = rows[:k] @ rows.T
    centred, floor = rows[:k], rows[k:]
    system, cross = sums[:, :k], sums[:, k:]
    offset = (centre - means)[:, None]
    solved = np.linalg.solve(system, np.concatenate([cross, offset, np.eye(k)], axis=-1))
    beta, s_inv = solved[:, :1], solved[:, 2:]
    # one step of iterative refinement: the controls explain most of the
    # floor's spread, so the residuals are a small difference, which would
    # lose to beta's round-off (about cond(S) eps) the digits HC3 weighs
    residuals = beta.T @ centred
    np.subtract(floor, residuals, out=residuals)
    residuals -= np.add.reduce(residuals, axis=-1)[:, None] / n
    beta = beta + s_inv @ (centred @ residuals.T)
    # per trial beta . D_i, w_i and 1 - h_i, formed a slice of trials at a
    # time so that no (k, trials) product is held whole; the slices start
    # at multiples of BLOCK, like the blocks.  The refined residuals' buffer
    # takes the weights, and the floor's row, read no more once the
    # corrections are formed, the adjusted samples' residuals
    lead = np.concatenate([beta, solved[:, 1:2]], axis=-1).T
    shift = np.add.reduce(beta[:, 0] * offset[:, 0])
    weights = residuals[0]
    corrections, denominators = np.empty_like(weights), np.empty_like(weights)
    for start in range(0, n, BLOCK):
        trials = slice(start, start + BLOCK)
        part = centred[:, trials]
        leverages = 1.0 / n + np.add.reduce((s_inv @ part) * part, axis=0)
        np.subtract(1.0, leverages, out=denominators[trials])
        fitted, offset_spans = lead @ part
        np.add(fitted, shift, out=corrections[trials])
        np.subtract(1.0 / n, offset_spans, out=weights[trials])
    residuals = np.subtract(floor[0], corrections, out=floor[0])
    residuals -= np.add.reduce(residuals) / n
    weights *= residuals
    weights /= denominators
    hc3 = np.add.reduce(np.square(weights, out=weights))
    spread = np.add.reduce(np.multiply(residuals, residuals, out=denominators))
    return corrections, float(np.sqrt(hc3 * (n * (n - 1)) / spread))


def _fit_controls(values: dict[str, np.ndarray], means: dict[str, float]
                  ) -> tuple[np.ndarray, float] | None:
    """_control_corrections of one point on `means`, on one copy of its
    samples, dropping some of CV_DROP_ORDER where that system is singular.
    Pops the controls' values from `values`."""
    names = list(means)
    rows = np.array([values.pop(q) for q in names] + [values["floor"]])
    return _control_corrections(rows, np.array(list(means.values())),
                                [names.index(q) for q in CV_DROP_ORDER if q in means])


class _Key(NamedTuple):
    """One point's quantity in a batched pass, printed in error messages as
    the point's label and the quantity.  A control variate of the floor is
    the floor's key with the control's name as `part`, so it prints as the
    floor."""

    point: int
    quantity: str
    label: str
    part: str = ""

    def __str__(self) -> str:
        return f"{self.label}: {self.quantity}" if self.label else self.quantity


def _group_integrand(plan: Sequence[tuple[_Key, ProbingConfig]]):
    """Block integrand of every (key, config) in `plan`, all on the same
    draws and sharing one Gram store per block, so that only the scaled
    log-dets are per point.  A lower_alice key carries the role-swapped
    config."""

    controls = {key: _controls(config)[key.part].read for key, config in plan if key.part}

    def block_values(block: ChannelRealization) -> dict[_Key, np.ndarray]:
        grams = Grams(block)
        swapped, swapped_grams = block.swap_roles(), grams.swap_roles()
        out = {}
        for key, config in plan:
            try:
                if key.part:
                    out[key] = controls[key](grams)
                elif key.quantity == "floor":
                    out[key] = secrecy_floor_sample(block, config, grams)
                elif key.quantity == "lower_bob":
                    out[key] = lower_bound_bob_sample(block, config, grams=grams)
                elif key.quantity == "gap":
                    out[key] = bound_gap_sample(block, config, grams=grams)
                else:
                    out[key] = lower_bound_bob_sample(swapped, config, grams=swapped_grams)
            except SkcError as exc:
                raise IntegrandFailure(f"{key}: {exc}") from exc
        return out

    return block_values


def trial_values_many(points: Sequence[tuple[ProbingConfig, Iterable[str]]],
                      mc: McSettings, labels: Sequence[str] | None = None
                      ) -> list[dict[str, np.ndarray]]:
    """Per-trial integrands of the SAMPLED quantities each (config, names)
    point asks for, on the engine's shared draws: the floor, the gap, the
    Bob-side bound built on the same floor values, and that bound of the
    role-swapped scenario on the swapped draws; and the floor's CONTROLS
    that it names (only those _controls declares at its config, otherwise a
    ValueError naming the rule), which a failure reports as the floor.

    Points whose configs agree on what sample_channels reads get identical
    draws, so each such group takes one collect pass.  A failure names the
    point by its label (none by default) and the quantity.
    """
    labels = [""] * len(points) if labels is None else list(labels)
    groups: dict[tuple, list[tuple[_Key, ProbingConfig]]] = {}
    for i, (config, names) in enumerate(points):
        names = frozenset(names)
        for name in sorted(names & _CONTROL_RULES.keys()):
            if name not in _controls(config):
                raise ValueError(f"the control {name} needs {_CONTROL_RULES[name]}")
        for q in SAMPLED + CONTROLS:
            if q in names:
                key = _Key(i, "floor", labels[i], q) if q in CONTROLS \
                    else _Key(i, q, labels[i])
                groups.setdefault(_draws_key(config), []).append(
                    (key, config.swap_roles() if q == "lower_alice" else config))
    values: list[dict[str, np.ndarray]] = [{} for _ in points]
    for plan in groups.values():
        sampling = points[plan[0][0].point][0]
        for key, v in collect(_group_integrand(plan), sampling, mc).items():
            values[key.point][key.part or key.quantity] = v
    return values


class _Plan(NamedTuple):
    """One point of an evaluate_many call (see _plan): its quantities'
    exact values, the form of the floor's (_floor_plan; None where it is
    sampled or not asked for), the names its pass draws and the exact means
    of the controls its floor is fitted on (None where it is not)."""

    exact: dict[str, float]
    form: str | None
    names: frozenset[str]
    means: dict[str, float] | None


def _plan(configs: Sequence[ProbingConfig], quantities: Iterable[str], trials: int
          ) -> list[_Plan]:
    """Each config's _Plan for `quantities` at `trials` trials, made before
    any draw.  Each exact value reads only the means it uses, and every
    closed form, the exact floors' and the fitted floors' edges, is
    evaluated once, in _floor_forms' stacks.  pilot_mi is exact; so is the
    floor, where asked for or read by lower_bob (which lower and upper
    read), in _floor_plan's forms; at v_b = 0 the gap (0) and, with an exact
    floor, lower_bob (pilot_mi + v_a floor), while at v_b > 0 an exact floor
    is drawn beside lower_bob to replace the floor's samples in lower_bob's;
    and lower_alice where Eve hears Alice noiselessly (-inf) and otherwise
    at v_b = 0, the role-swapped pilot_mi plus v_a (E t3 - E t2) (per
    sample, v_a (t3 - t2)), unless noise_ea = 0 or a mean is outside its
    domain.  A sampled floor is fitted on all of its controls from
    CV_MIN_TRIALS trials on where their means are inside their domains."""
    wanted = set(quantities)
    if "lower" in wanted:
        wanted.add("lower_bob")
    if "upper" in wanted:
        wanted |= {"lower_bob", "gap"}
    decided = []
    for config in configs:
        form, floor = _floor_plan(config) if wanted & {"floor", "lower_bob"} else (None, None)
        fitted = form is None and trials >= CV_MIN_TRIALS and (
            "floor" in wanted or "lower_bob" in wanted and config.v_a)
        means = _control_means(config, [name for name, control in _controls(config).items()
                                        if control.mean.kind != "floor"]) if fitted else None
        decided.append((config, form, floor, means))
    forms = _floor_forms([floor for _, form, floor, _ in decided if form == "closed form"]
                         + [point for config, *_, means in decided if means is not None
                            for point in _edge_points(config).values()])
    plans = []
    for config, form, floor, means in decided:
        exact = {"pilot_mi": pilot_mi(config)} if "pilot_mi" in wanted else {}
        if form is not None:
            exact["floor"] = floor = forms[floor] if form == "closed form" else floor
        if config.v_b == 0:
            exact["gap"] = 0.0
            if form is not None:
                exact["lower_bob"] = pilot_mi(config) + config.v_a * floor
        if _alice_bound_diverges(config):
            exact["lower_alice"] = -math.inf
        elif config.v_b == 0 and "lower_alice" in wanted and config.noise_ea > 0:
            alice = _control_means(config, ("t3", "t2"))
            if alice is not None:
                exact["lower_alice"] = pilot_mi(config.swap_roles()) + config.v_a * (
                    alice["t3"] - alice["t2"])
        names = wanted | {"lower_alice"} if "lower" in wanted and config.v_b else wanted
        names = names.difference(exact)
        if means is not None:
            means = {name: forms[control.mean.args] if control.mean.kind == "floor"
                     else means[name] for name, control in _controls(config).items()}
            names |= {"floor"} | set(means)
        elif form is not None and config.v_a and "lower_bob" in names:
            names |= {"floor"}
        plans.append(_Plan(exact, form, frozenset(names), means))
    return plans


def evaluate_many(configs: Sequence[ProbingConfig], mc: McSettings,
                  quantities: Sequence[str],
                  labels: Sequence[str] | None = None) -> list[dict[str, Estimate]]:
    """Estimates of the requested QUANTITIES at every config, in order.

    What is exact, and what each point draws, is decided before any draw
    (_plan).  Each point's Monte Carlo quantities come from shared draws, so
    upper == lower_bob + gap per sample and, at v_a = 0, lower_alice ==
    upper per sample; configs with identical draws share one pass (see
    trial_values_many, which also says how `labels` name a failing point).

    A fitted floor's samples are regressed on all of the point's controls
    (see _controls, and _control_corrections, which drops some of
    CV_DROP_ORDER where the system is singular), and the correction beta .
    (t - mean) is subtracted from them and v_a times it from lower_bob's, so
    upper == lower_bob + gap still holds per sample.  A sampled floor that
    is not fitted, or whose every system is singular, gets the raw samples.
    An estimate built from adjusted samples takes their stderr times
    _control_corrections' factor: the floor's HC3 stderr, v_a times it for
    lower_bob at v_b = 0, an approximation at v_b > 0.

    'lower' is the larger side bound, Bob's side winning ties.  At v_b = 0
    it is lower_bob (then also upper), and lower_alice is evaluated only
    when named: per sample lower_bob - lower_alice = (pilot_mi - the
    role-swapped pilot_mi) + v_a [log2det(I + gamma_ea G + gamma_ba H) -
    log2det(I + gamma_ba H)] >= 0, G and H the Grams of g_a and h_ba (at v_a
    = v_b = 0 it is the round-off between the two pilot_mi values, the one
    case where comparing the means could pick the Alice side).
    """
    unknown = set(quantities) - set(QUANTITIES)
    if unknown:
        raise ValueError(f"unknown quantities {sorted(unknown)}; supported: {QUANTITIES}")
    plans = _plan(configs, quantities, mc.trials)
    points = trial_values_many([(config, plan.names) for config, plan in zip(configs, plans)],
                               mc, labels)
    results = []
    for config, plan, values in zip(configs, plans, points):
        if plan.means is not None:
            fit = _fit_controls(values, plan.means)
        elif plan.form is not None and "floor" in plan.names:
            # an exact floor replaces the floor's samples in lower_bob's
            fit = (values.pop("floor") - plan.exact["floor"], 1.0)
        else:
            fit = None
        factor = {}
        if fit is not None:
            correction, stderr_factor = fit
            if "floor" in values:
                values["floor"] = values["floor"] - correction
                factor["floor"] = stderr_factor
            if config.v_a and "lower_bob" in values:
                values["lower_bob"] = values["lower_bob"] - config.v_a * correction
                factor["lower_bob"] = factor["upper"] = stderr_factor
        est = {name: Estimate.exact(value) for name, value in plan.exact.items()}
        # a floor sampled only for lower_bob's correction is not reported
        est.update((name, summarize(v)) for name, v in values.items()
                   if name != "floor" or "floor" in quantities)
        if "upper" in quantities:
            est["upper"] = summarize(values["lower_bob"] + values["gap"]) \
                if "gap" in values else est["lower_bob"]
        for name in factor.keys() & est.keys():
            est[name] = replace(est[name], stderr=est[name].stderr * factor[name])
        if "lower" in quantities:
            bob = est["lower_bob"]
            alice = est["lower_alice"] if config.v_b else bob
            est["lower"] = alice if alice.mean > bob.mean else bob
        results.append({q: est[q] for q in quantities})
    return results


def evaluate(config: ProbingConfig, mc: McSettings,
             quantities: Sequence[str]) -> dict[str, Estimate]:
    """evaluate_many at one config: at most one Monte Carlo pass."""
    return evaluate_many([config], mc, quantities)[0]


def lower_bound_alice(config: ProbingConfig, mc: McSettings) -> Estimate:
    """The Alice-side lower bound alone (see evaluate)."""
    return evaluate(config, mc, ("lower_alice",))["lower_alice"]


def positive_part(x: int) -> int:
    return x if x > 0 else 0


def dof_formula(config: ProbingConfig, auto_swap: bool = False) -> int:
    """High-power pre-log of the secret-key capacity.

    Stated for n_a >= n_b: v_a*min(n_b, (n_a-n_e)^+) + v_b*(n_b-n_e)^+ plus
    n_a*n_b when the channel is perfectly reciprocal.  For n_a < n_b the
    formula applies to the role-swapped scenario; pass auto_swap=True to do
    that implicitly.
    """
    if config.n_a < config.n_b:
        if not auto_swap:
            raise OrderingViolation(
                f"n_a < n_b ({config.n_a} < {config.n_b}); pass auto_swap=True")
        config = config.swap_roles()
    delta = 1 if config.reciprocal else 0
    return (config.v_a * min(config.n_b, positive_part(config.n_a - config.n_e))
            + config.v_b * positive_part(config.n_b - config.n_e)
            + delta * config.n_a * config.n_b)


def dof_window_split(config: ProbingConfig, budget: int) -> tuple[int, int, int, list[tuple[int, int, int]]]:
    """Evaluate dof_formula over every (v_a, v_b) split of a slot budget.

    Returns (best_v_a, best_v_b, best_dof, table); ties prefer larger v_a.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    table = []
    for v_a in range(budget + 1):
        v_b = budget - v_a
        table.append((v_a, v_b, dof_formula(replace(config, v_a=v_a, v_b=v_b),
                                            auto_swap=True)))
    best = max(table, key=lambda row: (row[2], row[0]))
    return best[0], best[1], best[2], table


def config_at_power(config: ProbingConfig, p: float) -> ProbingConfig:
    """Scale both transmit powers by the common factor p (the base config's
    powers act as the split fractions)."""
    if p <= 0:
        raise ValueError(f"power scale must be > 0, got {p}")
    return replace(config, power_a=config.power_a * p, power_b=config.power_b * p)


@dataclass(frozen=True)
class DofResult:
    """Fitted high-power slope of a capacity quantity.

    formula_value is None when n_a < n_b and no swap was requested; slope is
    the least-squares slope over the top half of the grid against log2 p.
    """

    formula_value: int | None
    slope: float
    fit_residual: float
    p_grid: tuple[float, ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]


MIN_GRID_POINTS = 4
MIN_GRID_DECADES = 3.0


def checked_power_grid(p_grid: Sequence[float]) -> tuple[float, ...]:
    """The grid as floats, if it has at least MIN_GRID_POINTS strictly
    increasing, finite, positive values spanning MIN_GRID_DECADES decades;
    otherwise GridTooSmall names the broken rule."""
    grid = tuple(float(p) for p in p_grid)
    if len(grid) < MIN_GRID_POINTS:
        raise GridTooSmall(f"need >= {MIN_GRID_POINTS} grid points, got {len(grid)}")
    if not all(math.isfinite(p) for p in grid):
        raise GridTooSmall("grid values must be finite")
    for lo, hi in zip(grid, grid[1:]):
        if hi <= lo:
            raise GridTooSmall("grid must be strictly increasing")
    if grid[0] <= 0:
        raise GridTooSmall("grid values must be positive")
    decades = math.log10(grid[-1] / grid[0])
    if decades < MIN_GRID_DECADES * (1.0 - 1e-9):
        raise GridTooSmall(f"grid spans {decades:.2f} decades, need >= {MIN_GRID_DECADES}")
    return grid


def dof_slope(quantity: Callable[[Sequence[ProbingConfig]], Sequence[Estimate]],
              config: ProbingConfig, p_grid: Sequence[float]) -> DofResult:
    """Fit the slope of a quantity's estimate at config_at_power(config, p)
    against log2 p.  `quantity` estimates it at every grid point in one call
    (for example through evaluate_many), in grid order.

    The fit uses only the top half of the grid to approximate the infinite-
    power limit while keeping runtime bounded.  The grid must pass
    checked_power_grid, and every estimate must be finite (a ValueError
    names the first power where it is not): no slope fits an infinite mean.
    """
    grid = checked_power_grid(p_grid)
    ests = quantity([config_at_power(config, p) for p in grid])
    means = np.array([e.mean for e in ests])
    for p, mean in zip(grid, means):
        if not math.isfinite(mean):
            raise ValueError(f"the estimate at power {p:g} is {mean}: no slope to fit")
    top = slice(len(grid) // 2, None)
    x = np.log2(np.array(grid[top]))
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, means[top], rcond=None)
    resid = means[top] - design @ coef
    try:
        formula = dof_formula(config)
    except OrderingViolation:
        formula = None
    return DofResult(
        formula_value=formula,
        slope=float(coef[0]),
        fit_residual=float(np.sqrt(np.mean(resid ** 2))),
        p_grid=grid,
        means=tuple(float(m) for m in means),
        stderrs=tuple(float(e.stderr) for e in ests),
    )
