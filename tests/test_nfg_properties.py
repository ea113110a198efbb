"""Property tests of the stacked support enumeration: a stack of games gives
each game, bit for bit, the points and order of its one-game call."""
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import nscsg.nfg as nfg  # noqa: E402
from nscsg.nfg import BimatrixGame, enumerate_ne, enumerate_ne_stack  # noqa: E402

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
