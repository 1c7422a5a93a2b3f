import numpy as np
import pytest
from hypothesis import settings

from rheokit.convex_core import SampledFunction
from rheokit.rheology import Leaf, Serial

# ``pytest --hypothesis-profile=ci``: a property that fails prints the blob that
# replays it (``@reproduce_failure``), and no example is cut short by a deadline.
settings.register_profile("ci", print_blob=True, deadline=None)


@pytest.fixture
def grid401():
    # h = 0.01, so 0.5, 1.0, 2.0 land exactly on grid points
    return np.linspace(0.0, 4.0, 401)


def convex_from_slopes(grid, slopes, value0=0.0):
    """Build a convex sampled function from nondecreasing segment slopes."""
    slopes = np.sort(np.asarray(slopes, dtype=float))
    vals = np.concatenate(([value0], value0 + np.cumsum(slopes * np.diff(grid))))
    return SampledFunction.from_samples(grid, vals)


def solve_depth(e, stress=True) -> int:
    """How deeply the generated solves of a tree's walk ``_walk`` (its float flow
    ``_float_flow`` if not ``stress``) nest: the depth by which tests classify trees."""
    if isinstance(e, Leaf):
        return 0
    # a Serial node solves for its stress, a Parallel one for its rate, unless merged to one part
    own = len(e._parts) > 1 and stress == isinstance(e, Serial)
    return own + max(solve_depth(c, stress != own) for c in e._parts)
