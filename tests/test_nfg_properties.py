"""Property tests of the stage solvers: a stack of games gives each game,
bit for bit, the points and order of its one-game call; every enumerated
point is a Nash equilibrium; every pure Nash equilibrium is enumerated;
correlated welfare is never below Nash welfare."""
import itertools
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import nscsg.nfg as nfg  # noqa: E402
from nscsg.nfg import BimatrixGame, enumerate_ne, enumerate_ne_stack, swce, swne  # noqa: E402

#: Few distinct values, so draws have ties, duplicate vertices and -0.0.
TIED = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, 0.5])
PAYOFF = st.one_of(TIED, st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def stacks(draw):
    """(p1, p2) of shape (G, m, n), shapes 1xk and kx1 included; some games
    are constant (the flat branch of the normalisation) and some repeat."""
    g, m, n = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = draw(st.sampled_from([TIED, PAYOFF]))
    p1, p2 = (draw(arrays(float, (g, m, n), elements=entries)) for _ in range(2))
    for k in range(g):
        kind = draw(st.sampled_from(["drawn", "flat p1", "flat both", "repeat"]))
        if kind == "repeat" and k:
            p1[k], p2[k] = p1[k - 1], p2[k - 1]
        if kind.startswith("flat"):
            p1[k] = p1[k, 0, 0]
        if kind == "flat both":
            p2[k] = p2[k, 0, 0]
    return p1, p2


def point_bytes(points):
    return [(p.mu1.tobytes(), p.mu2.tobytes(), p.payoffs.tobytes()) for p in points]


@settings(max_examples=150, deadline=None)
@given(stacks(), st.sampled_from([nfg._STACK_BASES, 1, 50]))
def test_stack_equals_one_game_calls(stack, chunk_bases):
    # small chunk limits split the stack, down to one game per chunk
    p1, p2 = stack
    with mock.patch.object(nfg, "_STACK_BASES", chunk_bases):
        stacked = enumerate_ne_stack(p1, p2)
    assert len(stacked) == len(p1)
    for points, a, b in zip(stacked, p1, p2):
        assert point_bytes(points) == point_bytes(enumerate_ne(BimatrixGame(a, b)))


def spans(p):
    return p.max(axis=(-2, -1)) - p.min(axis=(-2, -1))


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_every_enumerated_point_is_an_equilibrium(stack):
    # the enumeration checks pure deviations on the normalised game, so on
    # the game as given no deviation gains more than EQ_TOL times the
    # deviating agent's payoff span (plus rounding of the products)
    p1, p2 = stack
    for points, a, b, span1, span2 in zip(enumerate_ne_stack(p1, p2), p1, p2, spans(p1), spans(p2)):
        assert points
        for pt in points:
            r1, r2 = a @ pt.mu2, pt.mu1 @ b
            slop1 = 1e-12 * max(1.0, np.abs(a).max())
            slop2 = 1e-12 * max(1.0, np.abs(b).max())
            assert r1.max() - pt.mu1 @ r1 <= nfg.EQ_TOL * span1 + slop1
            assert r2.max() - r2 @ pt.mu2 <= nfg.EQ_TOL * span2 + slop2
            assert pt.mu1.min() >= 0.0 and pt.mu2.min() >= 0.0


INTEGER = arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                 elements=st.integers(-5, 5).map(float))


@settings(max_examples=150, deadline=None)
@given(INTEGER, st.data())
def test_correlated_welfare_is_at_least_nash_welfare(p1, data):
    # every Nash equilibrium is a correlated equilibrium, so the welfare
    # optimum over the larger set is no lower; integer payoffs in [-5, 5]
    p2 = data.draw(arrays(float, p1.shape, elements=st.integers(-5, 5).map(float)))
    game = BimatrixGame(p1, p2)
    span = max(spans(p1), spans(p2), 1.0)
    assert swce(game).social_welfare >= swne(game).social_welfare - 1e-9 * span


GAUSSIAN = st.floats(-3.0, 3.0, allow_nan=False)
SMALL_INTEGER = st.integers(-2, 2).map(float)


@st.composite
def small_games(draw):
    """(p1, p2) of one shape up to 3x3, Gaussian-like or integer payoffs in
    [-2, 2]; the integer draws include degenerate games."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        return tuple(np.random.default_rng(seed).normal(size=(2,) + shape))
    return tuple(draw(arrays(float, shape, elements=SMALL_INTEGER)) for _ in range(2))


@settings(max_examples=400, deadline=None)
@given(small_games())
def test_every_pure_equilibrium_is_enumerated(game):
    # FSI's uniqueness certificate reads one enumerated point as one Nash
    # equilibrium, so the enumeration must miss none; brute force finds the
    # pure ones
    p1, p2 = game
    points = enumerate_ne(BimatrixGame(p1, p2))
    for i, j in itertools.product(range(p1.shape[0]), range(p1.shape[1])):
        if p1[i, j] >= p1[:, j].max() and p2[i, j] >= p2[i].max():
            assert any(pt.mu1[i] >= 1.0 - 1e-9 and pt.mu2[j] >= 1.0 - 1e-9 for pt in points), (i, j)
