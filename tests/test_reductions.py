import functools
import itertools
import random

import pytest

from arthur_packets.characters import quasisplit_ok
from arthur_packets.core import (
    AdmissibleOrder,
    JordanBlock,
    Parameter,
    RhoLabel,
    SignedData,
    natural_order,
)
from arthur_packets.engine import Engine, basic_ok, rewrite
from arthur_packets.halfint import HalfInt, hi
from arthur_packets.packets import candidates
from arthur_packets.reductions import (
    ReductionStep,
    change_sign,
    expand_amount,
    measure,
)

RHO = RhoLabel("r", "orthogonal", 1)


def blk(A, B, zeta, rho=RHO):
    return JordanBlock(rho, hi(A), hi(B), zeta)


def rec(A, B, zeta, l=0, eta=1):
    """A fiber record with doubled coordinates."""
    return (hi(A).twice, hi(B).twice, zeta, l, eta)


def _trace(blocks, l, eta):
    psi = Parameter(tuple(blocks))
    order = AdmissibleOrder((tuple(range(len(blocks))),))
    return Engine().decide(psi, order, SignedData(l, eta), collect_trace=True).trace


def _random_fiber(rng):
    """One fiber as acceptance criterion 5 draws it: 2-4 blocks, all on the
    integral or all on the half-integral lattice."""
    half = rng.choice((0, 1))
    blocks = []
    for _ in range(rng.randint(2, 4)):
        tB = 2 * rng.randint(0, 3) + half
        tA = tB + 2 * rng.randint(0, 4)
        blocks.append(JordanBlock(RHO, HalfInt(tA), HalfInt(tB), rng.choice((1, -1))))
    return Parameter(tuple(blocks))


@functools.lru_cache(maxsize=None)
def _random_fiber_steps():
    """Every step the engine records on every quasisplit candidate of 60
    random single fibers."""
    rng = random.Random(5)
    steps = []
    for _ in range(60):
        psi = _random_fiber(rng)
        order = natural_order(psi)
        for data in candidates(psi):
            if quasisplit_ok(psi, data):
                steps.extend(Engine().decide(psi, order, data, collect_trace=True).trace)
    return tuple(steps)


# ---------------------------------------------------------------------------
# Pull (inside the engine)
# ---------------------------------------------------------------------------

def test_pull_unequal_subproblems():
    trace = _trace((blk(6, 1, 1), blk(4, 2, 1)), (1, 1), (1, 1))
    assert [step.kind for step in trace] == ["PullUnequal"]
    (step,) = trace
    container, contained = rec(6, 1, 1, 1, 1), rec(4, 2, 1, 1, 1)
    assert step.before == (contained, container)
    rest, with_contained, with_container = step.after
    assert rest == ()
    assert with_contained == (contained,)
    # The container, transported by S+ to the order with the contained block above.
    ((tA, tB, zeta, _l, _eta),) = with_container
    assert (tA, tB, zeta) == container[:3]


def test_pull_equal_subproblems():
    trace = _trace((blk(3, 1, 1), blk(3, 1, 1), blk(2, 0, -1)), (0, 0, 1), (1, 1, 1))
    assert trace[0].kind == "PullEqual"
    assert len(trace[0].after) == 2
    rest, with_partner = trace[0].after
    assert rest == (rec(2, 0, -1, 1, 1),)
    assert len(with_partner) == 2 and with_partner[1][:3] == rec(3, 1, 1)[:3]


def test_pull_equal_refuses_smaller_interval_below():
    # A strictly smaller same-zeta interval below the equal pair is pulled
    # first, so Pull-equal is never applied with one present.
    blocks = (blk(3, 1, 1), blk(3, 1, 1), blk(2, 1, 1))
    psi = Parameter(blocks)
    seen = 0
    for data in candidates(psi):
        if not quasisplit_ok(psi, data):
            continue
        trace = _trace(blocks, data.l, data.eta)
        if trace:
            assert trace[0].kind == "PullUnequal"
            seen += 1
    assert seen > 0


# ---------------------------------------------------------------------------
# Expand
# ---------------------------------------------------------------------------

def test_expand_bound_and_apply():
    assert expand_amount(rec(5, 3, 1), [rec(1, 1, 1)]) == 2
    assert expand_amount(rec(5, 3, 1), [rec(1, 1, 1), rec(2, 2, 1)]) == 1
    assert expand_amount(rec(5, 3, 1), [rec(1, 1, 1), rec(4, 2, -1)]) == 2
    # The engine replaces (A, B, l) of the top block by (A + t, B - t, l + t).
    seen = 0
    for step in _random_fiber_steps():
        if step.kind != "Expand":
            continue
        *below, (tA, tB, zeta, l, eta) = step.before
        t = expand_amount(step.before[-1], below)
        assert t >= 1
        assert step.after == (tuple(below) + ((tA + 2 * t, tB - 2 * t, zeta, l + t, eta),),)
        seen += 1
    assert seen > 0


def test_expand_fallback_bound_is_floor():
    assert expand_amount(rec(5, 3, 1), [rec(1, 1, -1)]) == 3  # no same-zeta block below
    assert expand_amount(rec("7/2", "5/2", 1), [rec("3/2", "3/2", -1)]) == 2  # floor(5/2)


def test_expand_refuses_contained_interval():
    with pytest.raises(AssertionError):
        expand_amount(rec(5, 1, 1), [rec(3, 2, 1)])


# ---------------------------------------------------------------------------
# Change sign
# ---------------------------------------------------------------------------

def test_change_sign_integral_involution():
    r = rec(3, 0, 1, 1, 1)
    kind, r2 = change_sign(r)
    assert kind == "ChangeSignIntegral"
    assert r2 == rec(3, 0, -1, 1, 1)
    assert change_sign(r2) == ("ChangeSignIntegral", r)


def test_change_sign_integral_requires_b_zero():
    with pytest.raises(AssertionError):
        change_sign(rec(3, 1, 1, 1, 1))


def test_change_sign_half_cases():
    # eta = +1: l grows, eta flips
    assert change_sign(rec("3/2", "1/2", 1, 0, 1)) == ("ChangeSignHalf", rec("5/2", "1/2", -1, 1, -1))
    # eta = -1: l unchanged, eta flips
    assert change_sign(rec("3/2", "1/2", 1, 0, -1)) == ("ChangeSignHalf", rec("5/2", "1/2", -1, 0, 1))
    # maximal l with odd d (d = 3, free at l = 2): eta is first normalized to -1
    assert change_sign(rec("7/2", "1/2", 1, 2, 1)) == ("ChangeSignHalf", rec("9/2", "1/2", -1, 2, 1))


def test_change_sign_requires_bottom_position_and_opposite_zeta():
    # The engine changes the sign of the top block only when B <= 1/2 and
    # every other block has the opposite zeta; the changed block ends least.
    seen = 0
    for step in _random_fiber_steps():
        if not step.kind.startswith("ChangeSign"):
            continue
        *below, top = step.before
        assert top[1] in (0, 1)
        assert all(r[2] != top[2] for r in below)
        ((changed, *others),) = step.after
        assert changed[1:3] == (top[1], -top[2])
        assert [r[:3] for r in others] == [r[:3] for r in below]
        seen += 1
    assert seen > 0


# ---------------------------------------------------------------------------
# Measure and the rewrite contract
# ---------------------------------------------------------------------------

def test_measure_and_reduction_step():
    seq = ((8, 4, 1, 0, 1), (4, 2, -1, 0, 1), (2, 0, 1, 0, 1))
    m = measure(seq)
    assert m == (3, 6, 1)
    step = ReductionStep("Expand", seq, (seq[:2],))
    assert step.decreases()
    bad = ReductionStep("Expand", seq, (seq,))
    assert not bad.decreases()


def test_measure_tie_takes_the_first_top_record():
    # Two records share the largest (2A, 2B) with opposite zeta: the first
    # of them is the top block, whose zeta the third component opposes.
    tied = [(6, 2, 1, 0, 1), (6, 2, -1, 1, -1)]
    low = (2, 0, -1, 0, 1)
    assert measure((low,) + tuple(tied)) == (3, 4, 2)
    assert measure((low,) + tuple(tied[::-1])) == (3, 4, 1)
    assert measure(tuple(tied) + (low,)) == (3, 4, 2)
    assert measure(tuple(tied[::-1]) + (low,)) == (3, 4, 1)


def _verdict(recs):
    return Engine()._fiber_decide(recs, None)


def test_rewrite_contract():
    # Every recorded step: the verdict on its input is the conjunction of the
    # verdicts on its subproblems, each decided by a fresh engine, and for a
    # Pull-equal step also the basic condition of the pulled pair; and the
    # kernel alone, without engine state, reproduces the step from its input,
    # with ``ok`` False only on a Pull-equal step whose basic condition fails.
    psi = Parameter((blk(40, 10, 1), blk(37, 7, -1), blk(8, 4, 1)), group_kind="Sp-even")
    order = AdmissibleOrder(((0, 1, 2),))
    eng = Engine()
    steps = []
    for i, data in enumerate(candidates(psi)):
        if i % 17 == 0 and quasisplit_ok(psi, data):
            steps.extend(eng.decide(psi, order, data, collect_trace=True).trace)
    steps.extend(_random_fiber_steps())
    # Vanishing, with one Pull-equal step whose two subproblems both hold.
    half = "1/2"
    (witness,) = _trace(
        (blk(half, half, 1), blk(half, half, -1), blk(half, half, 1)), (0, 0, 0), (1, 1, 1)
    )
    assert witness.kind == "PullEqual" and all(_verdict(sub) for sub in witness.after)
    assert not _verdict(witness.before)
    steps.append(witness)
    kinds = set()
    for step in steps:
        kinds.add(step.kind)
        ok = step.kind != "PullEqual" or basic_ok(step.after[-1][-1], step.before[-1])
        # On Pull-equal, the pulled partner ends the longer subproblem; the
        # top block does not move.
        holds = ok and all(_verdict(sub) for sub in step.after)
        assert _verdict(step.before) == holds, step
        assert rewrite(step.before) == (step, ok)
    assert kinds == {"PullUnequal", "PullEqual", "Expand", "ChangeSignIntegral", "ChangeSignHalf"}


def test_fibers_of_at_most_one_record_hold_without_a_step():
    # Why the engine never opens a subproblem of 0 or 1 record: the kernel
    # takes no step on it and its verdict is True.  Every canonical record
    # with 2A <= 12 on either lattice, either zeta and every (l, eta).
    assert rewrite(()) == (None, True)
    fibers = 0
    for tA in range(13):
        for tB in range(tA % 2, tA + 1, 2):
            for zeta, l, eta in itertools.product((1, -1), range((tA - tB + 2) // 4 + 1), (1, -1)):
                if eta == -1 and 4 * l == tA - tB + 2:
                    continue  # eta is invisible: the canonical fiber has +1
                assert rewrite(((tA, tB, zeta, l, eta),)) == (None, True)
                fibers += 1
    assert fibers == 378
