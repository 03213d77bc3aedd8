"""Bounded nonlinear least squares by the trust-region reflective method.

A numpy-only port of the one path through scipy's
``least_squares(fun, x0, bounds=(lower, np.inf), method="trf")`` that
:func:`scramsey.expsim.fit_damped_sinusoid` takes: linear loss, unit
variable scaling, the ``exact`` (SVD) trust-region subproblem and a
2-point forward-difference Jacobian, with every upper bound at +inf.
The algorithm is Branch, Coleman and Li (1999), "A Subspace, Interior,
and Conjugate Gradient Method for Large-Scale Bound-Constrained
Minimization Problems", SIAM J. Sci. Comput. 21(1); the subproblem is
solved as in Moré (1978), "The Levenberg-Marquardt algorithm:
implementation and theory".

It returns scipy's ``x``, ``fun`` and ``status`` bit for bit: the
arithmetic, operand order and array layouts follow scipy's code, and
the tests compare the two on a corpus of fits.  Where scipy calls a
Python wrapper of numpy's (``norm``, ``np.all``, ``np.diag``, ``np.tile``,
``ones_like``, ``np.linalg.svd``, ...), this port calls what that wrapper
calls.  The SVD is ``numpy.linalg._umath_linalg.svd_s``, the gufunc behind
``np.linalg.svd(a, full_matrices=False)``, under the error state that
function sets.  The module is private numpy API: numpy 2.0, the package's
floor, is the first with this gufunc (1.x splits it by shape into
``svd_n_s`` and ``svd_m_s``), and CI's numpy pin holds it.
The Jacobian's n step sizes and the bound tests of a trial step run on
Python floats, whose arithmetic is numpy's elementwise arithmetic; a trial
residual is tested for finiteness through its cost, and each value only
when the cost is not finite; and scipy's masked writes that move a value
off a bound run only when a value sits on one.  The scalars stay numpy's,
so that a division by zero gives numpy's inf or NaN, not Python's
ZeroDivisionError.  A Jacobian is still built after the step that ends a
fit, since scipy's gradient test at that point can turn status 3 into 1.
Left out are the multiplications by the unit scale, which are exact,
the branches an infinite upper bound never takes, and three checks no
input of the fit can trip: a ``max_nfev`` below 1 (the fit's count rule
rejects it first), a zero initial trust radius (a start within the bounds
has a positive amplitude and decay time, so ``x0 / v**0.5`` is not zero)
and the rank test's branch for fewer residuals than variables (the fit
needs 6 samples for 5 parameters).  Every check an input can reach is
kept: the start's bounds and finiteness, the SVD's ``LinAlgError`` and
the guards of :func:`_intersect_trust_region`.  Two layouts matter:
the Jacobian is F-ordered, as scipy's finite differences build it, and the
SVD factors are made F-ordered, as ``scipy.linalg.svd`` returns them,
so every matrix-vector product takes the same BLAS path.

The one departure from scipy's call sequence is the Jacobian: scipy
calls ``fun`` once per stepped parameter vector, and this port calls it
once with all n of them stacked as the rows of an (n, n) array.  Each
row is the vector scipy would pass, ``fun`` gives each the same
elementwise operations as alone, and each row is then differenced and
divided as scipy does it, so the bits are scipy's.
"""

from __future__ import annotations

from math import copysign, inf, isfinite

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import svd_s

EPS = np.finfo(float).eps

#: Relative forward-difference step of the Jacobian.
_DIFF_STEP = float(EPS**0.5)


def norm(x):
    """``numpy.linalg.norm(x)`` of a contiguous 1-D float array: its own ``sqrt(x.dot(x))``, without its argument handling."""
    return np.sqrt(x.dot(x))


def least_squares(fun, x0, lower, ftol: float, xtol: float, gtol: float, max_nfev: int | None = None):
    """Minimize ``0.5 * |fun(x)|**2`` subject to ``x >= lower``; returns (x, fun(x), status).

    ``fun`` maps a float array of shape (n,) to one of shape (m,), and a
    (k, n) stack of such vectors to the (k, m) stack of their results,
    bit for bit as k separate calls would give them.
    ``max_nfev`` counts evaluations of ``fun`` outside the Jacobian (None:
    100 per variable, else at least 1).  status is 0 when that budget ran
    out, 1 for the gradient test, 2 for the cost test, 3 for the step test
    and 4 for both of the last two.
    """
    x0 = np.atleast_1d(x0).astype(float)
    lb = np.asarray(lower, dtype=float)
    if not (x0 >= lb).all():
        raise ValueError("Initial guess is outside of provided bounds")
    x0 = _strictly_feasible(x0, lb, 1e-10)
    f0 = fun(x0)
    if not np.isfinite(f0).all():
        raise ValueError("Residuals are not finite in the initial point.")
    x, f, status, _, _ = _trf_bounds(fun, x0, f0, _jacobian(fun, x0, f0, lb), lb, ftol, xtol, gtol, max_nfev)
    return x, f, status


def _jacobian(fun, x0, f0, lb):
    """Forward differences of ``fun`` at ``x0``, F-ordered; a step that would cross a lower bound goes backward."""
    # the n steps in Python floats: scipy's elementwise arithmetic, one value at a time
    stepped, dx = [], []
    for value, bound in zip(x0.tolist(), lb.tolist()):
        h = _DIFF_STEP * (1.0 if value >= 0 else -1.0) * max(1.0, abs(value))
        # with no finite upper bound the step always fits on one side of x0
        if value + h < bound:
            h = -h
        stepped.append(value + h)
        dx.append((value + h) - value)
    # row i is x0 with its i-th value stepped; one call evaluates every row
    x1 = x0[None].repeat(x0.size, 0)
    x1.reshape(-1)[:: x0.size + 1] = stepped
    J_transposed = (fun(x1) - f0) / np.array(dx)[:, None]
    return J_transposed.T


def _trf_bounds(fun, x0, f0, J0, lb, ftol, xtol, gtol, max_nfev):
    """The solver's loop from a strictly feasible start; returns (x, fun(x), status, nfev, njev).

    nfev counts the evaluations of ``fun`` outside the Jacobian (the start
    point and each trial step) and njev the Jacobians, J0 included: scipy's
    ``nfev`` and ``njev`` of the same fit.
    """
    x = x0.copy()
    f = f0
    nfev = njev = 1
    J = J0
    m, n = J.shape
    cost = 0.5 * f.dot(f)
    g = J.T.dot(f)

    finite_lb = np.isfinite(lb)
    v, dv = _scaling_vector(x, g, lb, finite_lb)
    Delta = norm(x0 / v**0.5)

    f_augmented = np.zeros(m + n)
    J_augmented = np.zeros((m + n, n))
    J_h = J_augmented[:m]
    diag_augmented = J_augmented[m:].reshape(-1)[:: n + 1]  # the lower n rows are diagonal
    if max_nfev is None:
        max_nfev = x0.size * 100
    alpha = 0.0  # Levenberg-Marquardt parameter
    termination_status = None

    while True:
        g_norm = abs(g * v).max()  # numpy.linalg.norm's arithmetic for ord=inf
        if g_norm < gtol:
            termination_status = 1
        if termination_status is not None or nfev == max_nfev:
            break

        # the problem in "hat" variables x = d * x_h, where the trust region is a ball
        d = v**0.5
        diag_h = g * dv
        g_h = d * g

        f_augmented[:m] = f
        np.multiply(J, d, out=J_h)
        np.sqrt(diag_h, out=diag_augmented)
        U, s, V = _svd(J_augmented)
        V = V.T
        uf = U.T.dot(f_augmented)

        # theta controls the step back from the bounds
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(m, uf, s, V, Delta, alpha)
            p = d * p_h  # trust-region solution in the original space
            step, step_h, predicted_reduction = _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, theta)

            x_new = _strictly_feasible(x + step, lb, 0)
            f_new = fun(x_new)
            nfev += 1

            step_h_norm = norm(step_h)
            cost_new = 0.5 * f_new.dot(f_new)
            # a finite cost needs every residual finite, so only a cost that is not looks at each
            if not (isfinite(cost_new) or np.isfinite(f_new).all()):
                Delta = 0.25 * step_h_norm
                continue

            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction, step_h_norm, step_h_norm > 0.95 * Delta
            )
            step_norm = norm(step)
            termination_status = _check_termination(actual_reduction, cost, step_norm, norm(x), ratio, ftol, xtol)
            if termination_status is not None:
                break

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = _jacobian(fun, x, f, lb)
            njev += 1
            g = J.T.dot(f)
            v, dv = _scaling_vector(x, g, lb, finite_lb)

    if termination_status is None:
        termination_status = 0
    return x, f, termination_status, nfev, njev


def _svd_did_not_converge(err, flag):
    """``np.linalg.svd``'s error-state callback: LAPACK flagged an invalid value, so the SVD did not converge."""
    raise LinAlgError("SVD did not converge")


@np.errstate(call=_svd_did_not_converge, invalid="call", over="ignore", divide="ignore", under="ignore")
def _svd(a):
    """Thin SVD ``(U, s, Vt)`` of ``a``, with the checks and the F-ordered factors of ``scipy.linalg.svd``.

    It calls the gufunc behind ``np.linalg.svd(a, full_matrices=False)``
    under the floating-point error state that function sets, without its
    argument handling.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    U, s, Vt = svd_s(a, signature="d->ddd")
    return np.asfortranarray(U), s, np.asfortranarray(Vt)


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, theta):
    """The best of the trust-region step, its reflection off the first bound hit, and the Cauchy step."""
    # scipy's (x + p >= lb).all() in Python floats, one value at a time
    for value, change, bound in zip(x.tolist(), p.tolist(), lb.tolist()):
        if not value + change >= bound:
            break
    else:
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb)

    # the reflected direction
    r_h = p_h.copy()
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    # restrict the trust-region step so that it hits the bound
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # the reflected direction crosses first either the feasible region or the trust region boundary
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb)

    # bounds on the step size along the reflected direction, keeping the iterate strictly feasible
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # make p_h strictly interior
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h

    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr

    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


def _phi_and_derivative(alpha, suf, suf2, s2, Delta):
    """The norm of the alpha-regularized least-squares step minus Delta, and its derivative in alpha.

    ``suf2`` and ``s2`` are the squares ``suf**2`` and ``s**2``.
    """
    denom = s2 + alpha
    p_norm = norm(suf / denom)
    phi = p_norm - Delta
    phi_prime = -np.add.reduce(suf2 / denom**3) / p_norm
    return phi, phi_prime


def _solve_lsq_trust_region(m, uf, s, V, Delta, initial_alpha, rtol=0.01, max_iter=10):
    """Step of the trust-region subproblem from one SVD of the Jacobian (Moré 1978); returns (p, alpha).

    ``m`` counts the residuals, at least the number of variables.
    """
    suf = s * uf
    s2, suf2 = s**2, suf**2

    # the Gauss-Newton step, if J has full rank and the step fits
    full_rank = s[-1] > EPS * m * s[0]

    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0

    alpha_upper = norm(suf) / Delta

    if full_rank:
        phi, phi_prime = _phi_and_derivative(0.0, suf, suf2, s2, Delta)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0

    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    else:
        alpha = initial_alpha

    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)

        phi, phi_prime = _phi_and_derivative(alpha, suf, suf2, s2, Delta)

        if phi < 0:
            alpha_upper = alpha

        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta

        if abs(phi) < rtol * Delta:
            break

    p = -V.dot(suf / (s2 + alpha))

    # put p on the trust-region boundary; it moves only slightly
    p *= Delta / norm(p)

    return p, alpha


def _intersect_trust_region(x, s, Delta):
    """The roots t of ``|x + s*t| = Delta``, smaller first."""
    a = s.dot(s)
    if a == 0:
        raise ValueError("`s` is zero.")

    b = x.dot(s)

    c = x.dot(x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")

    d = np.sqrt(b * b - a * c)  # root of one fourth of the discriminant

    # avoids the loss of significance of the textbook formula
    q = -(b + copysign(d, b))
    t1 = q / a
    t2 = c / q

    if t1 < t2:
        return t1, t2
    else:
        return t2, t1


def _update_tr_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    """The next trust-region radius, and the ratio of actual to predicted cost reduction."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0

    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0

    return Delta, ratio


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients (a, b[, c]) of ``0.5*|J(s0 + s*t)|**2 + 0.5*(s0 + s*t)diag(s0 + s*t) + g(s0 + s*t)`` in t."""
    v = J.dot(s)
    a = v.dot(v)
    a += (s * diag).dot(s)
    a *= 0.5

    b = g.dot(s)

    if s0 is not None:
        u = J.dot(s0)
        b += u.dot(v)
        c = 0.5 * u.dot(u) + g.dot(s0)
        b += (s0 * diag).dot(s)
        c += 0.5 * (s0 * diag).dot(s0)
        return a, b, c
    else:
        return a, b


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """The minimum (t, value) of ``a*t**2 + b*t + c`` on the finite interval [lb, ub]."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = y.argmin()
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    """``0.5 * s.(J.T J + diag) s + g.s`` for one step s."""
    Js = J.dot(s)
    q = Js.dot(Js)
    q += (s * diag).dot(s)
    l = s.dot(g)
    return 0.5 * q + l


def _step_size_to_bound(x, s, lb):
    """The smallest t >= 0 that puts ``x + s*t`` on a bound, and which bounds it hits (-1 lower, 1 upper)."""
    non_zero = s.nonzero()
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero, (np.inf - x)[non_zero] / s_non_zero)
    min_step = steps.min()
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _strictly_feasible(x, lb, rstep):
    """``x`` moved inside its bounds: ``rstep`` relative to the bound, or one float away when it is 0.

    With ``rstep`` 0 it returns ``x`` itself, not a copy, when no value sits on a bound.
    """
    if rstep == 0:
        # in Python floats, as scipy's masked writes below change nothing when no value sits on a bound
        for value, bound in zip(x.tolist(), lb.tolist()):
            if not bound < value < inf:
                break
        else:
            return x
        x_new = x.copy()
        lower, upper = x <= lb, x >= np.inf
        x_new[lower] = np.nextafter(lb[lower], np.inf)
        x_new[upper] = np.nextafter(np.inf, lb[upper])
    else:
        x_new = x.copy()
        lower = np.isfinite(lb) & (x - lb <= np.minimum(np.inf - x, rstep * np.maximum(1, np.abs(lb))))
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
    return x_new


def _scaling_vector(x, g, lb, finite_lb):
    """The Coleman-Li scaling vector v and its derivative dv: the distance to the lower bound the gradient points
    away from, else 1.  ``finite_lb`` is ``np.isfinite(lb)``."""
    mask = (g > 0) & finite_lb
    return np.where(mask, x - lb, 1.0), mask.astype(float)


def _check_termination(dF, F, dx_norm, x_norm, ratio, ftol, xtol):
    """The status of a converged step (2 cost, 3 step, 4 both), else None."""
    ftol_satisfied = dF < ftol * F and ratio > 0.25
    xtol_satisfied = dx_norm < xtol * (xtol + x_norm)

    if ftol_satisfied and xtol_satisfied:
        return 4
    elif ftol_satisfied:
        return 2
    elif xtol_satisfied:
        return 3
    else:
        return None
