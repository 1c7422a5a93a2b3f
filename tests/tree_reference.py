"""A reference for the tree solves, written without rheokit: model documents (``dump_model``'s
dicts of dashpot, power-law, plastic and Huber leaves) solved by recursion on the tree.

Stresses add across a parallel node, rates across a serial one.  The other law inverts that sum:
``_least`` finds the least point where its upper end reaches the target, by bisection in the
ordered bits of the floats (so the scale of the problem does not matter) with an Illinois
false-position step once the bracket lies within one binade, to adjacent floats.  Every law
returns the ends ``(lo, hi)`` of its set-valued response.  An inverse is its least root, 0 up to
the law at rest and ``(inf, inf)`` past the node's supremum; at a parallel node's finite
supremum it is the cone ``(x, inf)``, where the library's solved inverses give ``(x, x)``.
"""

import math
import struct

_INF = math.inf


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _pow(x, n):
    try:
        return x**n
    except OverflowError:  # a float ``**`` raises past the float range
        return _INF


def _least(fn, target, cap):
    """The least ``x`` in ``[0, cap]`` with ``fn(x) >= target``, for a nondecreasing ``fn`` with
    ``fn(0) < target``; ``cap`` if there is none."""
    lo, hi, r_lo, r_hi, kept, probe = 0.0, cap, -target, _INF, 0, False
    while math.nextafter(lo, _INF) < hi:
        probe = r_hi == 0.0 and not probe  # an exact root: try the float below it, once
        if probe:
            x = math.nextafter(hi, 0.0)
        elif 0.0 < lo and hi <= 2.0 * lo and 0.0 < r_hi - r_lo < _INF:  # false position, Illinois
            x = lo + (hi - lo) * (r_lo / (r_lo - r_hi))
        else:
            x = -1.0
        if not lo < x < hi:  # bisect the ordered bits
            x = struct.unpack("<d", struct.pack("<q", (_bits(lo) + _bits(hi)) // 2))[0]
        r = fn(x) - target
        if r < 0:
            lo, r_lo, r_hi, kept = x, r, r_hi * 0.5 if kept == -1 else r_hi, -1
        else:
            hi, r_hi, r_lo, kept = x, r, r_lo * 0.5 if kept == 1 else r_lo, 1
    return hi


def _leaf(p, x, stress):
    kind = p["kind"]
    if kind == "dashpot":
        y = p["D"] * x if stress else x / p["D"]
        return y, y
    if kind == "powerlaw":
        y = p["D"] * _pow(x, 1.0 / p["n"]) if stress else _pow(x / p["D"], p["n"])
        return y, y
    cap = p["sigma_a"]
    if stress:  # at rest a plastic element takes any stress up to its cap
        y = cap if kind == "plastic" else min(p["D"] * x, cap)
        return (0.0, cap) if kind == "plastic" and x == 0.0 else (y, y)
    below = 0.0 if kind == "plastic" else x / p["D"]
    return (below, below) if x < cap else (below, _INF) if x == cap else (_INF, _INF)


def sup(doc):
    """The supremum of the stresses a document carries."""
    if doc["node"] == "leaf":
        return doc["potential"].get("sigma_a", _INF)
    sups = [sup(c) for c in doc["children"]]
    return min(sups) if doc["node"] == "serial" else sum(sups)


def _law(doc, x, stress):
    if doc["node"] == "leaf":
        return _leaf(doc["potential"], x, stress)
    adds = (doc["node"] == "parallel") == stress  # stresses add in parallel, rates in series
    if adds:
        ends = [_law(c, x, stress) for c in doc["children"]]
        return sum(lo for lo, _ in ends), sum(hi for _, hi in ends)
    if not stress and x > sup(doc):
        return _INF, _INF
    total = lambda y: sum(_law(c, y, not stress)[1] for c in doc["children"])  # noqa: E731
    y = 0.0 if x <= total(0.0) else _least(total, x, sup(doc) if stress else _INF)
    return y, _INF if not stress and x == sup(doc) else y  # a parallel node's cap: a cone


def stress(doc, eps):
    """``(lo, hi)`` of the stress at strain rate ``eps >= 0``."""
    return _law(doc, eps, True)


def flow(doc, sigma):
    """``(lo, hi)`` of the strain rate at stress ``sigma >= 0``."""
    return _law(doc, sigma, False)
