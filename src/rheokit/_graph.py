"""Exact polyline graphs on the half-line, and the subdifferential interval.

A function with a piecewise-linear derivative is carried exactly as that
derivative's graph (:class:`_Graph`).  A sum adds graphs at a common
argument; conjugation transposes, so an infimal convolution adds transposes.
The element kinds and the tree solves import this module, not
:mod:`rheokit.convex_core`, so no CLI command compiles the sampled transforms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property, reduce

from ._numpy import np
from ._record import Record
from .errors import InvalidInputError


class SubdiffInterval(Record):
    """Closed interval ``[lo, hi]`` of a set-valued scalar subdifferential.

    ``lo == hi`` at differentiable points; ``hi = inf`` marks a normal cone at a support
    boundary (or saturation in composite solves).  ``midpoint`` is ``lo`` there, else half
    of each end added, so it stays finite up to the largest float.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise InvalidInputError(
                f"subdifferential interval needs lo <= hi, got [{self.lo}, {self.hi}]"
            )

    @property
    def midpoint(self) -> float:
        return self.lo if self.lo == self.hi else 0.5 * self.lo + 0.5 * self.hi


# Features of a derivative graph: single-valued (no vertical piece), no flat,
# domain all of [0, inf), unbounded range.  Conjugation swaps sv<->nf, dom<->ub.
_Feat = namedtuple("_Feat", "sv nf dom ub")
_INF = float("inf")


class _Graph(Record):
    """A complete nondecreasing polyline on the half-line, from the origin.

    ``pieces`` are ``(x, y, dx, dy)``, a start vertex and a direction; each
    runs to the next one's start and the last is a ray.  ``dx = 0`` is a
    jump of y (as the last piece, the end of the domain), ``dy = 0`` a flat.
    At an array ``x`` a graph returns ``(lo, hi, slope)``: its y-interval and
    the slope of the upper end, +inf at a jump and past the domain.  On a piece
    ``y + (x - x0) * dy / dx``, capped at the level of a flat it runs into, so a
    rounded vertex never lifts a value past it.
    """

    pieces: tuple

    @cached_property
    def T(self) -> "_Graph":
        """The transpose, x and y swapped: the graph of the conjugate."""
        return _Graph(tuple((y, x, dy, dx) for x, y, dx, dy in self.pieces))

    @cached_property
    def _rows(self):
        """Rows ``(x0, y0, dx, dy, slope, cap or None, lo at x0)``, one per
        non-vertical piece but a flat that the piece before runs into, and
        +inf from a vertical end ray on; and the starts of the rows past the first."""
        rows, ps = [], self.pieces
        for k, (x, y, dx, dy) in enumerate(ps):
            lo = ps[k - 1][1] if k and not ps[k - 1][2] else y
            if not dx and k == len(ps) - 1:
                rows.append((x, _INF, 1.0, 0.0, _INF, None, lo))
            elif dx and (dy or not (k and ps[k - 1][2] and ps[k - 1][3])):
                flat = dy and k + 1 < len(ps) and not ps[k + 1][3]
                rows.append((x, y, dx, dy, dy / dx, ps[k + 1][1] if flat else None, lo))
        return rows, [r[0] for r in rows[1:]]

    @cached_property
    def _columns(self):  # the rows, nan for no cap and -0.0 for a y0 of 0, as x + -0.0 is x
        return np.array([(x0, y0 or -0.0, dx, dy, s, np.nan if cap is None else cap, l0)
                         for x0, y0, dx, dy, s, cap, l0 in self._rows[0]]).T.copy()

    def __call__(self, x, rest=False):
        """``(lo, hi, slope)`` at an array ``x >= 0``, each point's row found by
        ``np.searchsorted``; ``rest`` reads only ``lo`` at ``x = 0``.  A kind runs any other
        number through its float kernel, which runs the rows as source (``potentials._GRAPH``)."""
        cols = self._columns
        x0, y0, dx, dy, s, cap, l0 = np.take(cols, np.searchsorted(cols[0, 1:], x, "right"), axis=1)
        y = np.where(dy != 0.0, (x - x0) * dy / dx, 0.0) + y0  # a flat keeps its level
        y, d = np.where(cap <= y, cap, y), np.where(cap <= y, 0.0, s)  # never where cap is nan
        at = (x == x0) & (l0 < y0)  # a jump
        lo, d = np.where(at, l0, y), np.where(at, _INF, d)
        return lo, np.where(at & (x == 0.0), l0, y) if rest else y, d

    @property
    def feat(self) -> _Feat:
        """Read from the pieces: vertical ones, flat ones and the final ray."""
        ps = self.pieces
        return _Feat(all(p[2] for p in ps), all(p[3] for p in ps), ps[-1][2] > 0, ps[-1][3] > 0)

    @property
    def sup(self) -> float:
        """Supremum of y: the level of a flat final ray, else +inf."""
        return self.pieces[-1][1] if self.pieces[-1][3] == 0.0 else _INF

    def _state(self, v, xs) -> tuple:
        """The y-interval at ``v`` (stored at a vertex), the direction past it; ``xs``: starts."""
        x, y, dx, dy = self.pieces[bisect_right(xs, v) - 1]
        if v != x:
            y += (v - x) * dy / dx
            return y, y, dx, dy
        return self.pieces[bisect_left(xs, v)][1], y if dx else _INF, dx, dy


def _dir_sum(a, b) -> tuple:
    """Direction of the sum of two non-vertical pieces; the other's where one is flat."""
    (ax, ay), (bx, by) = a, b
    if not (ay and by):
        return b if not ay else a
    return (ax, ay + by) if ax == bx else (1.0, ay / ax + by / bx)


def _graph_sum(graphs) -> _Graph:
    """The graph of ``y_1(x) + y_2(x) + ...``, exact at every input vertex,
    where it sums their stored vertices; the domain ends with the first to end.
    ``_graph_sum([g.T for g in gs]).T`` sums the inverses."""
    end = min(g.pieces[-1][0] if g.pieces[-1][2] == 0.0 else _INF for g in graphs)
    pieces, starts = [], [[p[0] for p in g.pieces] for g in graphs]  # made once per graph
    for v in sorted({x for xs in starts for x in xs if x <= end}):
        st = [g._state(v, xs) for g, xs in zip(graphs, starts)]
        lo, hi = sum(s[0] for s in st), sum(s[1] for s in st)
        if hi > lo:
            pieces.append((v, lo, 0.0, 1.0))
        if hi == _INF:
            break
        pieces.append((v, hi) + reduce(_dir_sum, (s[2:] for s in st)))
    return _Graph(tuple(pieces))
