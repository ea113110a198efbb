"""Property tests of the stacked simplex: a stack of LPs of one layout gives
each LP, bit for bit, what its one-LP call gives, whatever the chunking and
whenever Bland's rule takes over."""
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from test_lp import ce_rows, one_lp, outcome  # noqa: E402

import nscsg.lp as lp  # noqa: E402
from nscsg.nfg import _ce_rows  # noqa: E402

#: Few distinct values, so draws have ties, constant games and -0.0.
TIED = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, 0.5])
VALUE = st.one_of(TIED, st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def ce_stack(draw, g):
    """CE LPs of ``g`` games of one shape, 1x1 to 4x4, some repeated, with
    the welfare, zero or a drawn objective."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p = draw(arrays(float, (g, 2, m, n), elements=draw(st.sampled_from([TIED, VALUE]))))
    c = []
    for k in range(g):
        if k and draw(st.booleans()):
            p[k] = p[k - 1]
        pick = draw(st.sampled_from(["welfare", "zero", "drawn"]))
        c.append({"welfare": (p[k, 0] + p[k, 1]).ravel(), "zero": np.zeros(m * n),
                  "drawn": draw(arrays(float, m * n, elements=VALUE))}[pick])
    rows = np.array([ce_rows(a, b) for a, b in p])
    ub = (rows, np.zeros(rows.shape[:2])) if rows.shape[1] else (None, None)
    return np.array(c), *ub, np.ones((g, 1, m * n)), np.ones((g, 1))


@st.composite
def block_stack(draw, g):
    """Block-shaped LPs: ``A x <= 0`` and ``sum x = 1``."""
    k, r = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    a = draw(arrays(float, (g, r, k), elements=VALUE))
    c = draw(arrays(float, (g, k), elements=VALUE))
    return c, a, np.zeros((g, r)), np.ones((g, 1, k)), np.ones((g, 1))


@st.composite
def general_stack(draw, g):
    """LPs with one sign pattern of negative and nonnegative right-hand
    sides (zero among them), equality rows and at times a multiple of the
    first equality row, so an artificial can stay basic at zero."""
    n, m_ub, m_eq = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 2))
    negative = np.array(draw(st.lists(st.booleans(), min_size=m_ub + m_eq, max_size=m_ub + m_eq)),
                        dtype=bool)
    size = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 5.0))
    b = draw(arrays(float, (g, m_ub + m_eq), elements=size)) + 0.0  # no -0.0: it is not negative
    b[:, negative] = -b[:, negative] - 0.5
    a = draw(arrays(float, (g, m_ub + m_eq, n), elements=VALUE))
    c = draw(arrays(float, (g, n), elements=VALUE))
    a_ub, b_ub, a_eq, b_eq = a[:, :m_ub], b[:, :m_ub], a[:, m_ub:], b[:, m_ub:]
    if m_eq and draw(st.booleans()):
        a_eq, b_eq = np.concatenate((a_eq, 2 * a_eq[:, :1]), axis=1), np.concatenate((b_eq, 2 * b_eq[:, :1]), axis=1)
    return (c, *((a_ub, b_ub) if m_ub else (None, None)), *((a_eq, b_eq) if m_eq else (None, None)))


@st.composite
def lp_stacks(draw):
    g = draw(st.integers(1, 8))
    return draw(draw(st.sampled_from([ce_stack, block_stack, general_stack]))(g))


@settings(max_examples=300, deadline=None)
@given(lp_stacks(), st.sampled_from([lp.DEGENERATE_LIMIT, 0, 1]),
       st.sampled_from([lp._STACK_ENTRIES, 1]))
def test_stack_equals_one_lp_calls(stack, degenerate_limit, entries):
    # a limit of 0 or 1 hands the pivots to Bland's rule at once or after
    # one stall; a chunk limit of 1 solves one LP per chunk
    with mock.patch.object(lp, "DEGENERATE_LIMIT", degenerate_limit), \
            mock.patch.object(lp, "_STACK_ENTRIES", entries):
        res = lp.lp_solve_stack(*stack)
        for k in range(len(stack[0])):
            assert outcome(lambda: res.result(k)) == outcome(lambda: lp.lp_solve(one_lp(stack, k)))


#: HiGHS reads a constraint coefficient of at most this magnitude as zero
#: (its ``small_matrix_value``), so it solves another LP than the one given.
HIGHS_SMALL_MATRIX_VALUE = 1e-9


def highs_reads(one):
    """Whether HiGHS keeps every nonzero constraint coefficient of ``one``."""
    return not any(np.any((m != 0) & (np.abs(m) <= HIGHS_SMALL_MATRIX_VALUE))
                   for m in (one.a_ub, one.a_eq) if m is not None)


@settings(max_examples=200, deadline=None)
@given(lp_stacks())
def test_optimal_objectives_agree_with_linprog(stack):
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = lp.lp_solve_stack(*stack)
    for k, status in enumerate(res.status):
        one = one_lp(stack, k)
        if status != "optimal" or not highs_reads(one):
            continue
        ref = linprog(-one.c, A_ub=one.a_ub, b_ub=one.b_ub, A_eq=one.a_eq, b_eq=one.b_eq,
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        assert res.objective[k] == pytest.approx(-ref.fun, abs=1e-7)


def test_coefficient_highs_drops_is_kept():
    # max x s.t. 1e-9 x <= 0, x >= 0 has the optimum x = 0; HiGHS drops the
    # coefficient, reads 0 <= 0 and reports the LP unbounded
    res = lp.lp_solve_stack(np.array([[1.0]]), np.array([[[1e-9]]]), np.zeros((1, 1)))
    assert outcome(lambda: res.result(0)) == ("optimal", np.zeros(1).tobytes().hex(), "0.0")


@given(st.integers(1, 4).flatmap(lambda m: st.integers(1, 4).flatmap(
    lambda n: arrays(float, (3, 2, m, n), elements=VALUE))))
def test_ce_rows_are_the_row_by_row_rows(games):
    rows = _ce_rows(games[:, 0], games[:, 1])
    for got, (p1, p2) in zip(rows, games):
        assert got.tobytes() == ce_rows(p1, p2).tobytes()
