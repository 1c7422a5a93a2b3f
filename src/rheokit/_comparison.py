"""The paper's comparison of the rigorous composed potential with closed forms: the closed-form
and empirical effective viscosity family, the two equivalent three-element models and the map
between them, closed-form stresses of serial diffusion/dislocation creep for n in {1, 2, 3}, and
the data of ``compare`` and ``equivalence``, and the standalone overstress, Papanastasiou and
Casson laws.  Only those commands and library callers load this module; ``rheology``,
``potentials`` and ``cli`` serve its names at their first use (PEP 562).
"""

from __future__ import annotations

import enum
import math
import sys
from functools import reduce
from typing import Sequence

from ._numpy import np
from ._record import Record
from .errors import InvalidInputError, UnsupportedModeError
from .potentials import Dashpot, PerfectPlastic, PowerLaw, _number, _rates
from .rheology import Leaf, Parallel, RheoExpr, Serial, stress_curve


# ---------------------------------------------------------------------------
# Three-element models
# ---------------------------------------------------------------------------


class ThreeElementParams(Record):
    """Yield stress plus two viscosities of the bi-viscous plastic models."""

    sigma_a: float
    D2: float
    D3: float

    def __post_init__(self):
        self.__dict__.update({f: _number(self.__dict__[f], f) for f in self._fields})


def three_element_stress(p: ThreeElementParams, eps):
    """Stress of the bi-viscous plastic model, piecewise closed form.

    ``(D2 + D3) * eps`` below the switch rate ``sigma_a / D2``, and
    ``sigma_a + D3 * eps`` above it; continuous at the switch.
    """
    eps, scalar_in = _rates(eps, "eps")
    with np.errstate(over="ignore"):  # a stress past the float range is inf
        out = np.where(eps <= p.sigma_a / p.D2, (p.D2 + p.D3) * eps, p.sigma_a + p.D3 * eps)
    return float(out) if scalar_in else out


def map_serial_parallel_params(sigma_a: float, D2: float, D3: float) -> ThreeElementParams:
    """Parameters of the serial-parallel variant equivalent to (sigma_a, D2, D3).

    sigma_a~ = sigma_a (1 + D3/D2),  D2~ = D2 + D3,  D3~ = D3 (1 + D3/D2).
    A mapped parameter past the float range is an :class:`InvalidInputError` that names it.
    """
    base = ThreeElementParams(sigma_a, D2, D3)
    ratio = 1.0 + base.D3 / base.D2
    tilde = {"sigma_a~ = sigma_a (1 + D3/D2)": base.sigma_a * ratio,
             "D2~ = D2 + D3": base.D2 + base.D3, "D3~ = D3 (1 + D3/D2)": base.D3 * ratio}
    for name, x in tilde.items():
        if x == math.inf:
            raise InvalidInputError(f"the serial-parallel {name} is past the float range")
    return ThreeElementParams(*tilde.values())


def three_element_parallel_serial(p: ThreeElementParams) -> RheoExpr:
    """Tree of the parallel-serial variant: (plastic [] dashpot) + dashpot."""
    return Parallel([Serial([Leaf(PerfectPlastic(p.sigma_a)), Leaf(Dashpot(p.D2))]),
                     Leaf(Dashpot(p.D3))])


def three_element_serial_parallel(p: ThreeElementParams) -> RheoExpr:
    """Tree of the serial-parallel variant: (plastic + dashpot) [] dashpot."""
    return Serial([Parallel([Leaf(PerfectPlastic(p.sigma_a)), Leaf(Dashpot(p.D3))]),
                   Leaf(Dashpot(p.D2))])


# ---------------------------------------------------------------------------
# Closed-form / empirical effective viscosities
# ---------------------------------------------------------------------------


class Formula(enum.Enum):
    """Closed-form and empirical effective-viscosity laws."""

    VP_MIN = "vp_min"
    BINGHAM_SUM = "bingham_sum"
    THREE_ELEMENT = "three_element"
    MULTI_ELEMENT = "multi_element"
    EMP_VAR1 = "emp_var1"
    EMP_VAR2 = "emp_var2"
    HB_MIN = "hb_min"
    EMP_DIF_DSL = "emp_dif_dsl"
    EMP_HARMONIC_GENERAL = "emp_harmonic_general"


_FORMULA_ARITY = {
    Formula.VP_MIN: 2,
    Formula.BINGHAM_SUM: 2,
    Formula.THREE_ELEMENT: 3,
    Formula.MULTI_ELEMENT: 3,
    Formula.EMP_VAR1: 3,
    Formula.EMP_VAR2: 3,
    Formula.HB_MIN: 3,
    Formula.EMP_DIF_DSL: 3,
    Formula.EMP_HARMONIC_GENERAL: 1,
}


def mu_eff_formula(formula, params: Sequence, eps):
    """Evaluate one of the closed-form / empirical viscosity laws.

    Parameters
    ----------
    formula : Formula or str
    params : tuple matching the formula arity
        VP_MIN(sigma_a, D):            min(D, sigma_a/|eps|)
        BINGHAM_SUM(sigma_a, D):       D + sigma_a/|eps|
        THREE_ELEMENT(sigma_a, D2, D3): min(sigma_a/|eps|, D2) + D3
        MULTI_ELEMENT(sigma_a_i, D2_i, D3): sum_i min(...) + D3
        EMP_VAR1(sigma_a, D2, D3):     (|eps|/sigma_a + 1/D2)^-1 + D3
        EMP_VAR2(sa~, D2~, D3~):       (1/(sa~/|eps| + D3~) + 1/D2~)^-1
        HB_MIN(sigma_a, D, n):         min(sigma_a/|eps|, D/|eps|^(1-1/n))
        EMP_DIF_DSL(D_dif, D_dsl, n):  1/(1/D_dif + |eps|^(1-1/n)/D_dsl)
        EMP_HARMONIC_GENERAL(mus):     (sum_i mu_i(|eps|)^-1)^-1
    eps : positive scalar or array
    """
    if isinstance(formula, str):
        try:
            formula = Formula(formula.lower())
        except ValueError:
            raise InvalidInputError(f"unknown formula id {formula!r}") from None
    if formula not in _FORMULA_ARITY:
        raise InvalidInputError(f"unknown formula id {formula!r}")
    params = list(params)
    if len(params) != _FORMULA_ARITY[formula]:
        raise InvalidInputError(
            f"{formula.name} takes {_FORMULA_ARITY[formula]} parameters, got {len(params)}"
        )
    if formula is not Formula.EMP_HARMONIC_GENERAL:
        # each modulus a positive number, the MULTI_ELEMENT lists arrays of them; n may be inf
        n_at = 2 if formula in (Formula.HB_MIN, Formula.EMP_DIF_DSL) else None
        for i, x in enumerate(params):
            name = f"{formula.name} parameter {i}"
            if formula is Formula.MULTI_ELEMENT and i < 2:
                params[i] = _rates(x, name, positive=True)[0]
            elif not (i == n_at and isinstance(x, float) and x == math.inf):
                params[i] = _number(x, name)
    eps, scalar_in = _rates(eps, "eps", positive=True)

    def scale(mu_1, mu_2):  # of the means m / (m / mu_1 + m / mu_2) below: one m at every rate
        return _scale(np.min(np.minimum(mu_1, mu_2), initial=math.inf))

    if formula is Formula.EMP_HARMONIC_GENERAL:
        (mus,) = params
        if not mus:
            raise InvalidInputError("EMP_HARMONIC_GENERAL needs at least one viscosity")
        mus = [np.asarray(mu(eps), dtype=float) for mu in mus]
        for i, mu in enumerate(mus):
            if not np.all(mu >= 0):  # a NaN fails too
                raise InvalidInputError(f"EMP_HARMONIC_GENERAL viscosity {i} gave a NaN or a "
                                        "value < 0")
    # a term past the float range is inf, and a viscosity d / 0; their min or sum is right
    with np.errstate(over="ignore", divide="ignore"):
        if formula is Formula.EMP_HARMONIC_GENERAL:
            # m / sum(m / mu_i), m the largest power of two up to the least mu_i at each rate, as
            # harmonic_mean_linear: no term overflows, and where every 1/mu_i is normal, same bits
            m = np.ldexp(0.5, np.frexp(reduce(np.minimum, mus))[1])
            out = m / sum((m / mu for mu in mus), np.zeros_like(eps))
        elif formula is Formula.VP_MIN:
            sigma_a, d = params
            out = np.minimum(d, sigma_a / eps)
        elif formula is Formula.BINGHAM_SUM:
            sigma_a, d = params
            out = d + sigma_a / eps
        elif formula is Formula.THREE_ELEMENT:
            sigma_a, d2, d3 = params
            out = np.minimum(sigma_a / eps, d2) + d3
        elif formula is Formula.MULTI_ELEMENT:
            sig_list, d2_list, d3 = params
            if sig_list.ndim != 1 or sig_list.size == 0 or sig_list.shape != d2_list.shape:
                raise InvalidInputError(
                    "MULTI_ELEMENT needs matching nonempty sigma_a and D2 lists")
            out = np.minimum(sig_list[:, None] / eps[None, ...].reshape(1, -1), d2_list[:, None])
            out = out.sum(axis=0).reshape(eps.shape) + d3
        elif formula is Formula.EMP_VAR1:
            sigma_a, d2, d3 = params
            m = scale(sigma_a / eps, d2)
            out = m / (m * eps / sigma_a + m / d2) + d3
        elif formula is Formula.EMP_VAR2:
            sigma_a, d2, d3 = params
            mu = sigma_a / eps + d3
            m = scale(mu, d2)
            out = m / (m / mu + m / d2)
        elif formula is Formula.HB_MIN:
            sigma_a, d, n = params
            out = np.minimum(sigma_a / eps, d / eps ** (1.0 - 1.0 / n))
        elif formula is Formula.EMP_DIF_DSL:
            d_dif, d_dsl, n = params
            w = eps ** (1.0 - 1.0 / n)
            mu = d_dsl / w  # where it is 0 (w is +inf or it underflows), the mean is 0 at any m
            m = scale(d_dif, mu[mu > 0])
            out = m / (m / d_dif + m * w / d_dsl)
    return float(out) if scalar_in else out


# ---------------------------------------------------------------------------
# Serial diffusion + dislocation creep
# ---------------------------------------------------------------------------


def serial_dif_dsl_stress(
    D_dif: float, D_dsl: float, n: float, eps, mode: str = "closed"
):
    """Stress of a dashpot in series with a power-law element.

    Solves ``(sigma/D_dsl)**n + sigma/D_dif = eps`` for ``sigma >= 0``.
    Closed mode covers n in {1, 2, 3} (linear harmonic mean, quadratic
    formula, depressed-cubic real root); numeric mode runs the monotone
    root finder of the tree solves for any n > 0.  The two agree to 1e-12
    relative wherever the stress is a normal float.
    """
    D_dif, D_dsl, n = _number(D_dif, "D_dif"), _number(D_dsl, "D_dsl"), _number(n, "n")
    eps, scalar_in = _rates(eps, "eps")

    if mode == "closed":
        if n == 1:
            with np.errstate(over="ignore"):  # a stress past the float range is inf, as below
                out = _dif_dsl_closed(D_dif, D_dsl, 1)(eps)
        elif n in (2, 3):
            # Dimensionless: sigma = S y with S = D_dsl / q and
            # q = (D_dif / D_dsl)**(1/(n-1)) turns the equation into
            # y**n + y = e, e = eps (D_dif / D_dsl) q.  z = (n-1) ln e picks
            # where one term is below 1e-17 of the other: the stress is then
            # that of the other element alone, and in between q and e are
            # representable.  S is kept as mantissa and exponent.
            cut = math.log(1e-17)
            with np.errstate(all="ignore"):
                z = (n - 1.0) * np.log(eps) + n * (math.log(D_dif) - math.log(D_dsl))
                rho = np.float64(D_dif) / D_dsl
                q = rho ** (1.0 / (n - 1.0))
                e = eps * rho * q
                if n == 2:
                    # y = sqrt(e + 1/4) - 1/2, rationalized to avoid cancellation
                    y = e / (np.sqrt(0.25 + e) + 0.5)
                else:
                    # Depressed cubic y^3 + y = e; real root by the two signed
                    # cube roots, evaluated as e/(A^2 - A B + B^2) so the
                    # near-cancelling sum A + B never forms.
                    u1 = e / 2.0 + np.sqrt(e**2 / 4.0 + 1.0 / 27.0)
                    a_, b_ = u1 ** (1.0 / 3.0), -((1.0 / 27.0 / u1) ** (1.0 / 3.0))  # u1 > 0
                    y = e / (a_**2 - a_ * b_ + b_**2)
                (m1, k1), (m2, k2) = np.frexp(D_dsl), np.frexp(q)
                out = np.where(z < cut, D_dif * eps, np.where(
                    z > -n * cut, D_dsl * eps ** (1.0 / n), np.ldexp(m1 / m2 * y, k1 - k2)))
        else:
            raise UnsupportedModeError(
                f"closed mode covers n in {{1, 2, 3}}, got n = {n}"
            )
    elif mode == "numeric":
        out = stress_curve(Serial([Leaf(Dashpot(D_dif)), Leaf(PowerLaw(D_dsl, n))]), eps)
    else:
        raise InvalidInputError(f"mode must be 'closed' or 'numeric', got {mode!r}")
    return float(out) if scalar_in else out


def _dif_dsl_closed(D_dif, D_dsl, n):
    """The closed mode of :func:`serial_dif_dsl_stress` for n in {1, 2, 3} as a kernel on one
    Python float rate > 0: the same arithmetic on floats, never importing numpy, and
    ``math.sqrt`` and products where numpy takes them for ``** 0.5`` and ``** 2``."""
    if n == 1:  # eps / (1/D_dif + 1/D_dsl), each term scaled by m; on arrays too
        m = _scale(min(D_dif, D_dsl))
        c = m / D_dif + m / D_dsl
        return lambda eps: eps * m / c
    cut, lz = math.log(1e-17), n * (math.log(D_dif) - math.log(D_dsl))
    rho = D_dif / D_dsl
    q = rho ** (1.0 / (n - 1.0))
    (m1, k1), (m2, k2) = math.frexp(D_dsl), math.frexp(q)

    def kernel(eps):
        z = (n - 1.0) * math.log(eps) + lz
        if z < cut:  # the dashpot alone
            return D_dif * eps
        if z > -n * cut:  # the power law alone
            return D_dsl * (math.sqrt(eps) if n == 2 else eps ** (1.0 / 3.0))
        e = eps * rho * q
        if n == 2:
            y = e / (math.sqrt(0.25 + e) + 0.5)
        else:
            u1 = e / 2.0 + math.sqrt(e * e / 4.0 + 1.0 / 27.0)
            a, b = u1 ** (1.0 / 3.0), -((1.0 / 27.0 / u1) ** (1.0 / 3.0))
            y = e / (a * a - a * b + b * b)
        try:
            return math.ldexp(m1 / m2 * y, k1 - k2)
        except OverflowError:  # past the float range, as np.ldexp
            return math.inf

    return kernel


def _scale(mu):
    """The scale ``m`` of a harmonic mean ``m / sum(m / mu_i)`` whose terms may take a rate as a
    factor, ``mu`` the least ``mu_i`` at one rate or many: 1, the unscaled bits, down to ``mu =
    2**-1001``, below it the power of two that brings ``m / mu`` to ``2**1001``.  So ``m`` is a
    normal float at most 1, no term overflows, a subnormal modulus is kept and normal terms
    keep their bits."""
    return math.ldexp(1.0, min(math.frexp(mu)[1] + 1000, 0))


def harmonic_mean_linear(D_list: Sequence[float]) -> float:
    """Modulus of serially arranged linear dashpots: ``1 / sum(1/D_i)``, as ``m / sum(m/D_i)``
    with ``m`` the largest power of two up to the least ``D_i``, so no term overflows and a
    subnormal modulus is kept; where the terms are normal floats the bits are the same."""
    ds = [_number(d, f"D_list[{i}]") for i, d in enumerate(D_list)]
    if not ds:
        raise InvalidInputError("harmonic_mean_linear needs a nonempty list")
    m = math.ldexp(0.5, math.frexp(min(ds))[1])
    return m / sum(m / d for d in ds)


def _power(e, p):  # e**p, +inf past the float range, as numpy's power gives
    try:
        return e**p
    except OverflowError:
        return math.inf


def compare_columns(d_dif, d_dsl, n_list, eps):
    """Rigorous and harmonic-mean curves of the serial creep pair on a list of Python float
    rates, without numpy.  ``VP_MIN`` and ``EMP_DIF_DSL`` are the formulas' arithmetic
    (``math.sqrt`` where numpy takes ``** 0.5``), n in {1, 2, 3} the float kernel of
    ``serial_dif_dsl_stress``'s closed form, other n the tree's walk."""
    mus_rig, mus_emp, sig_rig, sig_emp = [], [], [], []
    for n in n_list:
        if math.isinf(n):
            sig = [e * min(d_dif, d_dsl / e) for e in eps]
        elif n in (1, 2, 3):
            sig = list(map(_dif_dsl_closed(d_dif, d_dsl, n), eps))
        else:
            tree = Serial([Leaf(Dashpot(d_dif)), Leaf(PowerLaw(d_dsl, n))])
            sig = [hi for _, hi, _ in tree._walk(eps)]
        p = 1.0 - 1.0 / n
        w = [math.sqrt(e) if p == 0.5 else _power(e, p) for e in eps]
        # scaled once for the column by its least viscosity, d_dif or d_dsl / e**p, that is not
        # 0: where e**p is +inf or d_dsl / e**p underflows, the row's mean is 0 at any scale
        m = _scale(min(d_dif, min(filter(None, (d_dsl / x for x in w if x)), default=math.inf)))
        a = m / d_dif
        mu_emp = [m / (a + m * x / d_dsl) for x in w]
        mus_rig.append([s / e for s, e in zip(sig, eps)])
        mus_emp.append(mu_emp)
        sig_rig.append(sig)
        sig_emp.append([m * e for m, e in zip(mu_emp, eps)])
    return mus_rig, mus_emp, sig_rig, sig_emp


def equivalence_report(sigma_a, d2, d3, n_grid=1000):
    """Rigorous three-element equivalence data and the empirical gap: the two trees' stresses
    on ``n_grid`` rates up to ``5 sigma_a / D2``, their largest gap and its tolerance, 1e-10
    of the largest stress compared."""
    base = ThreeElementParams(sigma_a, d2, d3)
    tilde = map_serial_parallel_params(sigma_a, d2, d3)
    tree_a = three_element_parallel_serial(base)
    tree_b = three_element_serial_parallel(tilde)
    eps_max = 5.0 * base.sigma_a / base.D2
    if not (0.0 < eps_max / n_grid and eps_max < math.inf):
        raise InvalidInputError("the rates compared, up to 5 sigma_a / D2, leave the float range")
    eps = np.linspace(eps_max / n_grid, eps_max, n_grid)
    sig_a, sig_b = stress_curve(tree_a, eps), stress_curve(tree_b, eps)
    tol = 1e-10 * max(sig_a.max(), sig_b.max())
    if tol == math.inf:
        raise InvalidInputError("the stresses compared, up to sigma_a (1 + 5 D3/D2), leave the "
                                "float range")
    dev = np.max(np.abs(sig_a - sig_b))
    emp = {}
    for e in (0.5, 1.0, 2.0):
        v1 = mu_eff_formula(Formula.EMP_VAR1, (base.sigma_a, base.D2, base.D3), e)
        v2 = mu_eff_formula(Formula.EMP_VAR2, (tilde.sigma_a, tilde.D2, tilde.D3), e)
        emp[e] = abs(v1 - v2)
    return tilde, float(dev), tol, emp


def overstress_flow(D: float, n_exp: float, sigma_a: float, sigma: float) -> float:
    """Strain rate of the overstress flow rule, in 1/s.

    Zero at or below the yield stress, ``(sigma - sigma_a)**n / D``
    above it: the conjugate derivative of the rate-dependent-plasticity
    potential written as a flow function of the overstress.
    """
    D, n_exp = _number(D, "D"), _number(n_exp, "n_exp")
    sigma_a = _number(sigma_a, "sigma_a", "nonnegative")
    sigma = _number(sigma, "sigma", "nonnegative")
    if sigma <= sigma_a:
        return 0.0
    x = sigma - sigma_a
    try:
        w = x**n_exp
    except OverflowError:
        w = math.inf
    try:  # the power past the float range or under its normals, the rate maybe not: divide first
        return w / D if sys.float_info.min <= w < math.inf else (x / D ** (1.0 / n_exp)) ** n_exp
    except OverflowError:
        return math.inf


def papanastasiou_stress(sigma_a: float, c: float, n_exp: float, eps: float) -> float:
    """Regularized yield-stress law ``sigma_a * (1 + c * eps**n)**(1/n)``.

    Single-valued by design; at ``eps = 0`` the continuous limit
    ``sigma_a`` is returned.
    """
    sigma_a, n_exp = _number(sigma_a, "sigma_a"), _number(n_exp, "n_exp")
    c, eps = _number(c, "c", "nonnegative"), _number(eps, "eps", "nonnegative")
    if eps == 0.0 or c == 0.0:
        return sigma_a
    try:
        out = sigma_a * (1.0 + c * eps**n_exp) ** (1.0 / n_exp)
        if out < math.inf:
            return out
    except OverflowError:
        pass
    # a power or product past the float range, the stress maybe not: in logs, to about 1e-13
    # relative, log(1 + t) = max(l, 0) + log1p(exp(-|l|)) from l = log t = log c + n log eps
    lt = math.log(c) + n_exp * math.log(eps)
    try:
        return math.exp(math.log(sigma_a) + (max(lt, 0.0) + math.log1p(math.exp(-abs(lt)))) / n_exp)
    except OverflowError:
        return math.inf


def casson_stress(sigma_a: float, c: float, eps: float) -> float:
    """Casson law ``sigma_a * (1 + c * eps)**(1/2)``; ``sigma_a`` at rest."""
    sigma_a = _number(sigma_a, "sigma_a")
    c, eps = _number(c, "c", "nonnegative"), _number(eps, "eps", "nonnegative")
    if eps == 0.0:
        return sigma_a
    t = c * eps  # +inf past the float range, where the stress may not be
    return sigma_a * (math.sqrt(1.0 + t) if t < math.inf else math.sqrt(c) * math.sqrt(eps))
