"""Correctness oracles for the benchmark, written without rheokit.

Every check takes the generated input and the program's output and
returns ``(ok, reason, info)``.  ``info`` carries what the check learned
about the input, such as the share of rows at a yield cap.  Tolerances
are relative to each problem's own scale, so a geoscale input
(D ~ 1e21 Pa s, rates ~ 1e-15 /s) is held to the same standard as a
unit-order one.
"""

from __future__ import annotations

import json
import math

import numpy as np

RTOL = 1e-8          # stress / value agreement, as in the acceptance suite
STEP_RTOL = 1e-9     # Maxwell step: distance to the backward-Euler root,
                     # relative to the step's own input size
CAP_RTOL = 1e-9      # a row counts as "at the cap" this close to it


class OracleError(Exception):
    """The oracle itself could not produce a reference value."""


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def read_csv(text: str):
    """Header and float columns of a CSV the CLI wrote."""
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        raise ValueError("output does not end with a newline")
    header = lines[0].split(",")
    body = ",".join(lines[1:-1])
    vals = np.array(body.split(","), dtype=float) if body else np.empty(0)
    if vals.size % len(header):
        raise ValueError("ragged CSV")
    return header, vals.reshape(-1, len(header)).T


def _rel_err(got, ref, scale):
    return np.abs(got - ref) / np.maximum(np.abs(ref), scale)


# ---------------------------------------------------------------------------
# Scalar tree-recursive bisection for model documents
# ---------------------------------------------------------------------------


def _root(fn, target):
    """Smallest x >= 0 with fn(x) >= target, for nondecreasing fn."""
    hi = 1.0
    for _ in range(2200):
        if fn(hi) >= target:
            break
        hi *= 2.0
    else:
        raise OracleError(f"no bracket for target {target!r}")
    while hi > 1e-300 and fn(0.5 * hi) >= target:
        hi *= 0.5
    lo = 0.5 * hi if fn(0.5 * hi) < target else 0.0
    for _ in range(200):
        if hi - lo <= 1e-16 * hi:
            break
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _leaf_stress(p, eps):
    """Upper stress of one element at strain rate eps >= 0."""
    kind = p["kind"]
    if kind == "dashpot":
        return p["D"] * eps
    if kind == "powerlaw":
        return p["D"] * eps ** (1.0 / p["n"])
    if kind == "plastic":
        return p["sigma_a"]
    return min(p["D"] * eps, p["sigma_a"])


def _leaf_flow(p, sig):
    """Upper strain rate of one element at stress sig >= 0."""
    kind = p["kind"]
    if kind == "dashpot":
        return sig / p["D"]
    if kind == "powerlaw":
        return (sig / p["D"]) ** p["n"]
    if kind == "plastic":
        return 0.0 if sig < p["sigma_a"] else math.inf
    return sig / p["D"] if sig < p["sigma_a"] else math.inf


def stress_sup(doc) -> float:
    """Supremum of the stress a model document can carry."""
    if doc["node"] == "leaf":
        p = doc["potential"]
        return p["sigma_a"] if p["kind"] in ("plastic", "huber") else math.inf
    sups = [stress_sup(c) for c in doc["children"]]
    return sum(sups) if doc["node"] == "parallel" else min(sups)


def tree_stress(doc, eps: float) -> float:
    """Stress at strain rate eps: stresses add across parallel nodes."""
    if doc["node"] == "leaf":
        return _leaf_stress(doc["potential"], eps)
    if doc["node"] == "parallel":
        return sum(tree_stress(c, eps) for c in doc["children"])
    if eps == 0.0:
        return 0.0
    return _root(lambda s: tree_flow(doc, s), eps)


def tree_flow(doc, sig: float) -> float:
    """Strain rate at stress sig: rates add across serial nodes."""
    if doc["node"] == "leaf":
        return _leaf_flow(doc["potential"], sig)
    if doc["node"] == "serial":
        return sum(tree_flow(c, sig) for c in doc["children"])
    if sig <= tree_stress(doc, 0.0):
        return 0.0
    if sig > stress_sup(doc):
        return math.inf
    return _root(lambda e: tree_stress(doc, e), sig)


def solve_depth(doc, want: str = "stress") -> int:
    """Nesting depth of the iterative solves the library runs for a document.

    A serial node solves for its stress; a parallel node that is not the
    all-leaf plastic + dashpot shortcut solves for its strain rate.
    """
    node = doc["node"]
    if node == "leaf":
        return 0
    kids = doc["children"]
    if want == "stress":
        if node == "parallel":
            return max(solve_depth(c, "stress") for c in kids)
        return 1 + max(solve_depth(c, "flow") for c in kids)
    if node == "serial":
        return max(solve_depth(c, "flow") for c in kids)
    shortcut = all(
        c["node"] == "leaf" and c["potential"]["kind"] in ("plastic", "dashpot")
        for c in kids
    )
    if shortcut:
        return 0
    return 1 + max(solve_depth(c, "stress") for c in kids)


def check_curve(doc, eps_min, eps_max, samples, text, n_check):
    """``rheokit curve`` output against the scalar tree bisection."""
    header, cols = read_csv(text)
    if header != ["eps", "mu_eff", "sigma"]:
        return False, f"header {header}", {}
    eps, mu, sig = cols
    if eps.size != samples:
        return False, f"{eps.size} rows, expected {samples}", {}
    if not np.allclose(eps, np.linspace(eps_min, eps_max, samples), rtol=1e-14, atol=0):
        return False, "eps column is not the requested grid", {}
    if not np.all(np.isfinite(sig)):
        return False, "non-finite stress", {}
    if np.max(_rel_err(mu, sig / eps, 1e-300)) > 1e-12:
        return False, "mu_eff != sigma / eps", {}
    scale = float(np.max(np.abs(sig)))
    if np.any(np.diff(sig) < -RTOL * scale):
        return False, "stress decreases with strain rate", {}
    rows = np.unique(np.linspace(0, samples - 1, min(n_check, samples)).astype(int))
    ref = np.array([tree_stress(doc, float(eps[i])) for i in rows])
    err = _rel_err(sig[rows], ref, 1e-12 * scale)
    worst = int(np.argmax(err))
    if err[worst] > RTOL:
        i = int(rows[worst])
        return False, (f"row {i}: sigma {sig[i]!r} vs oracle {ref[worst]!r} "
                       f"(rel {err[worst]:.2e})"), {}
    sup = stress_sup(doc)
    capped = float(np.mean(sig >= sup * (1.0 - CAP_RTOL))) if math.isfinite(sup) else 0.0
    return True, "", {"rows": int(samples), "capped_share": capped,
                      "oracle_rows": int(rows.size)}


# ---------------------------------------------------------------------------
# Serial diffusion + dislocation creep (``rheokit compare``)
# ---------------------------------------------------------------------------


def dif_dsl_stress(d_dif, d_dsl, n, eps):
    """Vectorized bisection of (s/D_dsl)**n + s/D_dif = eps, eps > 0."""
    if math.isinf(n):
        return np.minimum(d_dif * eps, d_dsl)
    # Each term alone bounds the root from above; for n >= 1 half the
    # smaller bound is below it.
    hi = np.minimum(d_dif * eps, d_dsl * eps ** (1.0 / n))
    lo = 0.5 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = (mid / d_dsl) ** n + mid / d_dif < eps
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _suffix(n):
    return "inf" if math.isinf(n) else f"n{int(n)}"


def check_compare(d_dif, d_dsl, n_list, eps_min, eps_max, samples, text):
    header, cols = read_csv(text)
    want = ["eps"]
    for pre in ("mu_rig", "mu_emp", "sig_rig", "sig_emp"):
        want += [f"{pre}_{_suffix(n)}" for n in n_list]
    if header != want:
        return False, f"header {header}", {}
    col = dict(zip(header, cols))
    eps = col["eps"]
    if eps.size != samples:
        return False, f"{eps.size} rows, expected {samples}", {}
    if not np.allclose(eps, np.linspace(eps_min, eps_max, samples), rtol=1e-14, atol=0):
        return False, "eps column is not the requested grid", {}
    capped = 0.0
    for n in n_list:
        s = _suffix(n)
        sig = dif_dsl_stress(d_dif, d_dsl, n, eps)
        expo = 1.0 if math.isinf(n) else 1.0 - 1.0 / n
        mu_emp = 1.0 / (1.0 / d_dif + eps ** expo / d_dsl)
        refs = {f"sig_rig_{s}": sig, f"mu_rig_{s}": sig / eps,
                f"mu_emp_{s}": mu_emp, f"sig_emp_{s}": mu_emp * eps}
        for name, ref in refs.items():
            err = _rel_err(col[name], ref, 1e-300)
            if not np.all(np.isfinite(col[name])) or np.max(err) > RTOL:
                i = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
                return False, (f"{name} row {i}: {col[name][i]!r} vs oracle "
                               f"{ref[i]!r}"), {}
        if math.isinf(n):
            capped = float(np.mean(d_dif * eps >= d_dsl))
    return True, "", {"rows": int(samples), "capped_share": capped}


# ---------------------------------------------------------------------------
# 0D Maxwell (``rheokit simulate``)
# ---------------------------------------------------------------------------


def step_schedule(dt, t_end):
    """Step lengths of a run from 0 to t_end; a short last step lands on t_end."""
    n_full = int(math.floor(t_end / dt + 1e-12))
    steps = np.full(n_full, dt)
    rem = t_end - n_full * dt
    if rem > 1e-12 * dt:
        steps = np.append(steps, rem)
    return steps


def _unconstrained_flow(elements, sig):
    """Summed element flow at signed stress sig, plastic caps removed."""
    mag = np.abs(sig)
    total = np.zeros_like(sig)
    for p in elements:
        kind = p["kind"]
        if kind in ("dashpot", "huber"):
            total = total + mag / p["D"]
        elif kind == "powerlaw":
            total = total + (mag / p["D"]) ** p["n"]
    return np.sign(sig) * total


def check_simulate(doc, dt, t_end, text):
    """Every backward-Euler step recomputed from the element closed forms."""
    header, cols = read_csv(text)
    if header != ["t", "eps", "e_el", "sigma"]:
        return False, f"header {header}", {}
    t, eps, x, sig = cols
    h = step_schedule(dt, t_end)
    if t.size != h.size + 1:
        return False, f"{t.size} rows, expected {h.size + 1}", {}
    if t[0] != 0.0 or np.max(np.abs(t[1:] - np.cumsum(h))) > 1e-12 * t_end:
        return False, "time column is not the step schedule", {}
    ends = np.array([seg["t_end"] for seg in doc["drive"]])
    rates = np.append([seg["eps"] for seg in doc["drive"]], 0.0)
    if not np.array_equal(eps, rates[np.searchsorted(ends, t, side="left")]):
        return False, "eps column is not the drive program", {}
    E = doc["E"]
    if x[0] != doc.get("e_el0", 0.0):
        return False, "first row is not the initial elastic strain", {}
    if np.max(_rel_err(sig, E * x, 1e-300)) > 1e-14:
        return False, "sigma != E * e_el", {}
    caps = [p["sigma_a"] for p in doc["elements"] if p["kind"] in ("plastic", "huber")]
    cap = min(caps) if caps else math.inf
    xn, xp, r = x[1:], x[:-1], eps[1:]
    # Each step's own input size: the root lies between 0 and the trial
    # strain xp + h r, so this scale bounds it, and it stays away from 0
    # where the strain crosses zero.
    delta = STEP_RTOL * np.maximum(np.abs(xp) + h * np.abs(r), 1e-300)

    def resid(y):
        return y - xp - h * (r - _unconstrained_flow(doc["elements"], E * y))

    if np.any(np.abs(sig) > cap * (1.0 + 1e-12)):
        return False, "stress exceeds the yield cap", {}
    at_cap = np.abs(sig[1:]) >= cap * (1.0 - CAP_RTOL)
    # Free rows: the residual is strictly increasing, so a sign change
    # across [x - delta, x + delta] puts the root within delta of x.
    ok_free = (resid(xn - delta) <= 0.0) & (resid(xn + delta) >= 0.0)
    # Capped rows: the return map is right when the unconstrained root
    # lies at or beyond the cap on the same side.
    bound = np.sign(xn) * cap / E
    ok_cap = np.sign(xn) * resid(bound - np.sign(xn) * delta) <= 0.0
    bad = np.nonzero(np.where(at_cap, ok_cap, ok_free) == 0)[0]
    if bad.size:
        k = int(bad[0]) + 1
        return False, (f"step {k}: e_el {x[k]!r} is not within {delta[k - 1]:.2e} "
                       f"of the backward-Euler root"), {}
    return True, "", {"rows": int(t.size), "capped_share": float(np.mean(at_cap))}


# ---------------------------------------------------------------------------
# convex_core: sampled conjugates, infimal convolution, Moreau envelope
# ---------------------------------------------------------------------------


def _finite_agree(a, b, what, scale=None):
    fa, fb = np.isfinite(a), np.isfinite(b)
    if not np.array_equal(fa, fb):
        return f"{what}: finite supports differ"
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(a[fa])))) if fa.any() else 1.0
    err = float(np.max(np.abs(a[fa] - b[fa]))) if fa.any() else 0.0
    if err > RTOL * scale:
        return f"{what}: max deviation {err:.3e} over scale {scale:.3e}"
    return ""


def conjugate_brute(grid, values, dual):
    """max over finite samples of s v - f(v), in chunks."""
    m = int(np.argmax(np.isinf(values))) if np.isinf(values).any() else values.size
    v, fv = grid[:m], values[:m]
    out = np.empty(dual.size)
    step = max(1, (1 << 20) // v.size)
    for k in range(0, dual.size, step):
        s = dual[k:k + step]
        out[k:k + step] = np.max(s[:, None] * v[None, :] - fv[None, :], axis=1)
    return out


def moreau_brute(grid, values, eps):
    """min over samples w of f(w) + (v - w)**2 / (2 eps), in chunks."""
    out = np.empty(grid.size)
    step = max(1, (1 << 20) // grid.size)
    for k in range(0, grid.size, step):
        v = grid[k:k + step]
        out[k:k + step] = np.min(values[None, :] + (v[:, None] - grid[None, :]) ** 2
                                 / (2.0 * eps), axis=1)
    return out


def check_convex(inputs, out):
    """Route agreement, biconjugation and brute-force references."""
    for tag in ("f", "g"):
        grid, vals = inputs[f"{tag}_grid"], inputs[f"{tag}_vals"]
        dual = out[f"{tag}_dual"]
        sweep, scan = out[f"{tag}_sweep"], out[f"{tag}_scan"]
        for msg in (
            _finite_agree(sweep, scan, f"{tag}: sweep vs scan"),
            _finite_agree(sweep[np.isfinite(sweep)],
                          conjugate_brute(grid, vals, dual[np.isfinite(sweep)]),
                          f"{tag}: transform vs brute-force max"),
        ):
            if msg:
                return False, msg, {}
        m = int(min(np.sum(np.isfinite(vals)), np.sum(np.isfinite(out[f"{tag}_bi"]))))
        scale = max(1.0, float(np.max(np.abs(vals[:m]))))
        dev = float(np.max(np.abs(out[f"{tag}_bi"][: m - 1] - vals[: m - 1])))
        if dev > RTOL * scale:
            return False, f"{tag}: biconjugate deviates by {dev:.3e}", {}
    msg = _finite_agree(out["direct"], out["via_conjugate"], "direct vs via conjugate")
    if msg:
        return False, msg, {}
    ref = moreau_brute(inputs["f_grid"], inputs["f_vals"], float(inputs["yosida_eps"]))
    msg = _finite_agree(out["yosida"], ref, "yosida vs brute-force envelope")
    if msg:
        return False, msg, {}
    return True, "", {"grid_points": int(inputs["f_grid"].size)}


def check_dump(doc, text):
    """``--dump-model`` must echo the document it was given."""
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return False, f"dump is not JSON: {exc}", {}
    if got != doc:
        return False, "dump differs from the input document", {}
    return True, "", {}
