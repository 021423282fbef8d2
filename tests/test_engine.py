import importlib.util
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from arthur_packets.core import (
    AdmissibleOrder,
    DataError,
    InvariantError,
    JordanBlock,
    Parameter,
    RhoLabel,
    SignedData,
    all_admissible_orders,
    natural_order,
)
from arthur_packets import engine as engine_module
from arthur_packets import reductions as reductions_module
from arthur_packets.characters import quasisplit_ok
from arthur_packets.crosscheck import compare_three_block, random_three_block_shapes
from arthur_packets.engine import Engine, RecursionLimitError, _good_shape, basic_ok
from arthur_packets.halfint import hi
from arthur_packets.oracle import oracle_two_block
from arthur_packets.packets import candidates, enumerate_packet, packet_size
from arthur_packets.reductions import ReductionStep
from arthur_packets.transforms import fiber_records, sup_condition_ok
from test_acceptance import _fibers  # the records decide builds
from test_acceptance import _random_parameter  # the criterion-5 generator

RHO = RhoLabel("r", "orthogonal", 1)


def blk(A, B, zeta, rho=RHO):
    return JordanBlock(rho, hi(A), hi(B), zeta)


def _golden():
    psi = Parameter(
        (blk(40, 10, 1), blk(37, 7, -1), blk(8, 4, 1)), group_kind="Sp-even"
    )
    return psi, AdmissibleOrder(((0, 1, 2),))


def test_basic_ok():
    lower = (8, 4, 1, 0, 1)  # d = 2
    # matching signs: A2 - 2 l2 >= A1 - 2 l1 and B2 + 2 l2 >= B1 + 2 l1
    assert basic_ok(lower, (12, 6, 1, 1, 1))
    assert not basic_ok(lower, (12, 2, 1, 0, 1))  # B condition fails
    assert not basic_ok((8, 4, 1, 0, 1), (12, 6, 1, 3, 1))  # A condition fails
    # mismatched signs: B2 + 2 l2 > A1 - 2 l1
    assert basic_ok((8, 4, 1, 2, 1), (12, 6, 1, 0, -1))  # 6 > 8 - 4
    assert not basic_ok((8, 4, 1, 0, 1), (12, 2, 1, 0, -1))  # 2 > 8 fails


def _in_good_shape(psi, order):
    """Whether a one-fiber parameter is in good shape."""
    zeros = [0] * len(psi.blocks)
    return _good_shape(fiber_records(psi, reversed(order.per_rho[0]), zeros, zeros))


def test_good_shape_examples():
    assert _good_shape(())
    psi = Parameter((blk(4, 1, 1),))
    assert _in_good_shape(psi, AdmissibleOrder(((0,),)))
    far = Parameter((blk(1000, 995, 1), blk(2, 0, 1)))
    assert _in_good_shape(far, AdmissibleOrder(((0, 1),)))
    nested = Parameter((blk(6, 1, 1), blk(4, 2, 1)))
    assert not _in_good_shape(nested, AdmissibleOrder(((0, 1),)))
    psi, order = _golden()
    assert not _in_good_shape(psi, order)
    opp = Parameter((blk(1000, 995, -1), blk(2, 0, 1)))
    assert _in_good_shape(opp, AdmissibleOrder(((0, 1),)))
    # One comparable same-zeta pair is in good shape however close; beside a
    # third block it is not, although the third block is far away.
    pair = Parameter((blk(5, 2, 1), blk(4, 1, 1)))
    assert _in_good_shape(pair, AdmissibleOrder(((0, 1),)))
    three = Parameter((blk(100, 99, -1), blk(5, 2, 1), blk(4, 1, 1)))
    assert not _in_good_shape(three, AdmissibleOrder(((0, 1, 2),)))


def _good_shape_search():
    path = Path(__file__).resolve().parents[1] / "tools" / "good_shape_search.py"
    spec = importlib.util.spec_from_file_location("good_shape_search", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_good_shape_separation_variants_change_no_verdict():
    # tools/good_shape_search.py on a narrow bound: stopping only on
    # separated blocks, or only on 0 or 1 record, answers otherwise on some
    # skeletons but changes no verdict on their grid points.
    search = _good_shape_search()
    found = {
        name: tuple(search.search(good, (2, 3, 4), 6)) for name, good in search.variants().items()
    }
    assert found == {"separated": (26840, 140, 1456, 0), "rewrites-only": (26840, 404, 3736, 0)}
    # The search sees a changed verdict: stopping on every fiber changes some.
    assert tuple(search.search(lambda recs: True, (2,), 4)) == (168, 68, 540, 150)
    assert search.engine_module._good_shape is _good_shape


def test_pull_gate_is_the_s_plus_condition():
    # Pull retires a nested pair: Q contained in P, same zeta, P just above.
    # S+ swaps the pair and raises exactly when the pair's basic condition
    # fails with P co-shifted to B_Q, so Pull needs no gate of its own.
    cases = 0
    # Even and odd 2B_P: both lattices.
    for tBP, dP in itertools.product(range(4), range(9)):
        tAP = tBP + 2 * dP
        for tBQ in range(tBP, tAP + 1, 2):
            for tAQ in range(tBQ, tAP + 1, 2):
                if (tAQ, tBQ) == (tAP, tBP):
                    continue
                dQ = (tAQ - tBQ) // 2
                for lP, lQ, eP, eQ in itertools.product(
                    range((dP + 1) // 2 + 1), range((dQ + 1) // 2 + 1), (1, -1), (1, -1)
                ):
                    Q = (tAQ, tBQ, 1, lQ, eQ)
                    P_shifted = (tAP + tBQ - tBP, tBQ, 1, lP, eP)
                    assert basic_ok(Q, P_shifted) == sup_condition_ok(
                        dP, dQ, lP, eP, lQ, eQ
                    ), (Q, (tAP, tBP, 1, lP, eP))
                    cases += 1
    assert cases == 23648


def test_decide_good_shape_agrees_with_engine():
    # A far-apart pair is in good shape, so the engine decides it by the basic
    # condition alone; the two-block closed form is an independent check.
    far = Parameter((blk(1000, 995, 1), blk(2, 0, 1)))
    order = AdmissibleOrder(((0, 1),))
    eng = Engine()
    cases = 0
    for l0 in range(far.blocks[0].l_max() + 1):
        for l1 in range(far.blocks[1].l_max() + 1):
            for e0 in (1, -1):
                for e1 in (1, -1):
                    data = SignedData((l0, l1), (e0, e1))
                    if not quasisplit_ok(far, data):
                        continue
                    want = oracle_two_block(2, 0, 1000, 995, l1, e1, l0, e0)
                    assert eng.decide(far, order, data).nonvanishing == want, data
                    cases += 1
    assert cases == 16


def test_decide_validates_input():
    psi, order = _golden()
    eng = Engine()
    with pytest.raises(DataError):
        eng.decide(psi, order, SignedData((20, 0, 0), (1, 1, 1)))  # l out of range
    with pytest.raises(DataError):
        eng.decide(psi, order, SignedData((0, 0, 0), (1, 1, -1)))  # not quasisplit
    bad_order = AdmissibleOrder(((2, 1, 0),))
    with pytest.raises(DataError):
        eng.decide(psi, bad_order, SignedData((0, 0, 0), (1, 1, 1)))


def test_recursion_limit():
    psi, order = _golden()
    eng = Engine(recursion_limit=1)
    with pytest.raises(RecursionLimitError):
        eng.decide(psi, order, SignedData((10, 10, 2), (1, 1, 1)))


def test_fibers_of_one_decision_share_one_step_budget():
    # Golden's fiber takes 8 steps and a fiber of a second rho 5 more, with
    # no subproblem in common.  One call over both counts 13 steps against
    # one budget: a limit of 12 raises although each fiber alone fits in it,
    # 13 does not, and traced and untraced calls agree at every limit.
    sigma = RhoLabel("s", "orthogonal", 1)
    psi = Parameter(
        (blk(40, 10, 1), blk(37, 7, -1), blk(8, 4, 1))
        + (blk(6, 1, 1, sigma), blk(4, 2, 1, sigma), blk(3, 0, -1, sigma))
    )
    fibers = _fibers(psi, natural_order(psi), SignedData((10, 10, 2, 0, 0, 0), (1, 1, 1, 1, 1, -1)))
    assert [len(Engine()._decide_unchecked([f], True).trace) for f in fibers] == [8, 5]

    def outcome(limit, collect_trace):
        try:
            return Engine(recursion_limit=limit)._decide_unchecked(fibers, collect_trace).nonvanishing
        except RecursionLimitError:
            return None

    for limit in range(15):
        assert outcome(limit, False) == outcome(limit, True), limit
    assert (outcome(12, False), outcome(13, False)) == (None, True)


def test_golden_instance_verdicts_deterministic():
    psi, order = _golden()
    eng = Engine()
    data = SignedData((10, 10, 2), (1, 1, 1))
    v1 = eng.decide(psi, order, data, collect_trace=True)
    v2 = Engine().decide(psi, order, data, collect_trace=True)
    assert v1.nonvanishing == v2.nonvanishing
    assert len(v1.trace) >= 1
    for step in v1.trace:
        assert step.decreases()


def test_trace_is_neutral_on_a_warm_engine():
    # A trace reuses the same memo as an untraced decision: on an engine warmed
    # by one untraced pass, both agree under a tight budget on every golden
    # candidate, and a memoized decision's trace is empty.
    psi, order = _golden()
    cands = [d for d in candidates(psi) if quasisplit_ok(psi, d)]
    eng = Engine(recursion_limit=7)

    def outcome(data, collect_trace):
        try:
            return eng._decide_unchecked(_fibers(psi, order, data), collect_trace).nonvanishing
        except RecursionLimitError:
            return None

    for data in cands:
        outcome(data, False)
    assert len(cands) == 3072
    disagreements = [d for d in cands if outcome(d, False) != outcome(d, True)]
    assert disagreements == []
    assert eng.decide(psi, order, SignedData((10, 10, 2), (1, 1, 1)), collect_trace=True).trace == ()


def test_memoization_is_consistent():
    psi, order = _golden()
    eng = Engine()
    data = SignedData((3, 2, 1), (1, 1, 1))
    first = eng.decide(psi, order, data).nonvanishing
    second = eng.decide(psi, order, data).nonvanishing
    assert first == second


class _Recording(Engine):
    """An engine that traces every decision and keeps its fibers and verdict.

    The caller's canonicalization plans are passed through; ``planned``
    counts the decisions that had them."""

    def __init__(self):
        super().__init__()
        self.calls = []
        self.planned = 0

    def _decide_unchecked(self, fibers, collect_trace=False, plans=None):
        verdict = super()._decide_unchecked(fibers, True, plans)
        self.calls.append((fibers, verdict))
        self.planned += plans is not None
        return verdict


def _assert_stored_rules_are_neutral(shared):
    """Replay each of a warm engine's decisions without plans on a fresh
    engine, which never stores a rule: same verdicts; the fresh memos
    together are the warm memo; the fresh traces together hold the warm
    traces' steps.  So stored rules and the packet plan's top-level plans
    change nothing."""
    memo, steps = {}, set()
    for fibers, verdict in shared.calls:
        fresh = Engine()
        replay = fresh._decide_unchecked(fibers, True)
        assert replay.nonvanishing == verdict.nonvanishing, fibers
        assert not fresh._rules
        memo.update(fresh._memo)
        steps.update(replay.trace)
    warm_steps = [step for _, verdict in shared.calls for step in verdict.trace]
    assert len(set(warm_steps)) == len(warm_steps)
    assert set(warm_steps) == steps
    assert shared._memo == memo
    # The warm engine did take subproblem plans from stored rules.
    assert any(plans is not None for _, plans in shared._rules.values())


def test_stored_rules_are_neutral_on_golden():
    shared = _Recording()
    psi, order = _golden()
    assert len(enumerate_packet(psi, order, engine=shared)) == 1651
    assert shared.planned == len(shared.calls) > 0
    _assert_stored_rules_are_neutral(shared)


def test_stored_rules_are_neutral_on_criterion_5_and_oracle_shapes():
    # The first 16 criterion-5 parameters under three admissible orders each.
    shared = _Recording()
    rng = random.Random(99)
    tested = 0
    while tested < 16:
        psi = _random_parameter(rng)
        orders = all_admissible_orders(psi, limit=50)
        if len(orders) < 3:
            continue
        tested += 1
        rng.shuffle(orders)
        for order in orders[:3]:
            enumerate_packet(psi, order, engine=shared)
    assert shared.planned == len(shared.calls) > 0
    _assert_stored_rules_are_neutral(shared)
    shared = _Recording()
    for shape in random_three_block_shapes(50, 12, 3):
        assert compare_three_block(*shape, engine=shared) == []
    assert shared.planned == len(shared.calls) > 0
    _assert_stored_rules_are_neutral(shared)


def test_each_rule_is_computed_once_after_the_first_decision(monkeypatch):
    # From an engine's second fiber decision on, every rule it computes is
    # stored, so no skeleton's rule is computed twice.
    rule = engine_module._rule

    def oracle_shapes(engine):
        for shape in random_three_block_shapes(50, 12, 3):
            assert compare_three_block(*shape, engine=engine) == []

    def golden(engine):
        assert len(enumerate_packet(*_golden(), engine=engine)) == 1651

    for run in (oracle_shapes, golden):
        shared, calls = Engine(), []

        def counted(fiber):
            if shared._decisions > 1:
                calls.append(fiber)
            return rule(fiber)

        monkeypatch.setattr(engine_module, "_rule", counted)
        run(shared)
        assert len(calls) == len(shared._rules) > 0, run.__name__


def test_every_rule_is_checked_for_the_measure_decrease(monkeypatch):
    # The decrease is checked on every step of an engine's first decision,
    # which stores no rule, and when a stored rule is first applied.
    psi, order = _golden()

    def top_skeleton(data):
        trace = Engine().decide(psi, order, data, collect_trace=True).trace
        return trace and tuple(rec[:3] for rec in trace[0].before)

    first = SignedData((10, 10, 2), (1, 1, 1))
    skeleton = top_skeleton(first)
    # Another member whose first step rewrites a fiber of the same skeleton.
    second = next(
        data
        for data in enumerate_packet(psi, order)
        if data.l != first.l and top_skeleton(data) == skeleton
    )
    warm = Engine()
    warm.decide(psi, order, first)
    rule = engine_module._rule

    def planted(fiber):
        # Expand by 0 on one skeleton: the only subproblem is the fiber itself.
        checks, kind, arg = rule(fiber)
        if tuple(rec[:3] for rec in fiber) == skeleton:
            return checks, "Expand", 0
        return checks, kind, arg

    monkeypatch.setattr(engine_module, "_rule", planted)
    cold = Engine()
    with pytest.raises(InvariantError, match="termination measure failed to decrease on Expand"):
        cold.decide(psi, order, first)
    assert not cold._rules
    with pytest.raises(InvariantError, match="termination measure failed to decrease on Expand"):
        warm.decide(psi, order, second)
    assert warm._decisions == 2 and warm._rules[skeleton][1] is None


def test_decrease_is_checked_once_per_stored_rule(monkeypatch):
    # After an engine's first decision, a stored rule's decrease is checked
    # by its first step only, whatever that step's verdict (a Pull-equal step
    # whose basic condition fails included).
    decreases = reductions_module.decreases
    shared, checked = Engine(), []

    def counted(before, after):
        if shared._decisions > 1:
            checked.append(tuple(rec[:3] for rec in before))
        return decreases(before, after)

    monkeypatch.setattr(engine_module, "decreases", counted)
    for shape in random_three_block_shapes(210, 12, 0):
        assert compare_three_block(*shape, engine=shared) == []
    assert len(checked) == len(set(checked)) > 0
    assert len(checked) == sum(stored[1] is not None for stored in shared._rules.values())


def test_stored_rules_are_keyed_by_canonical_skeleton():
    # A subproblem reads its stored rule under the skeleton its plan sorts
    # to, so every key is a canonical skeleton ((2A, 2B) never decreases),
    # and every stored subproblem plan names a key: none is stored twice.
    shared = Engine()
    assert len(enumerate_packet(*_golden(), engine=shared)) == 1651
    for shape in random_three_block_shapes(210, 12, 0):
        assert compare_three_block(*shape, engine=shared) == []
    for skeleton in shared._rules:
        assert all(lo[:2] <= up[:2] for lo, up in zip(skeleton, skeleton[1:])), skeleton
    subs = [sub for _, subs in shared._rules.values() if subs for sub in subs]
    assert subs and all(len(plan[2]) > 1 and plan[2] in shared._rules for _, plan in subs)


def test_reduction_steps_are_built_only_for_a_trace(monkeypatch):
    made = []
    new = ReductionStep.__new__

    def counted(cls, kind, before, after):
        made.append(kind)
        return new(cls, kind, before, after)

    monkeypatch.setattr(ReductionStep, "__new__", counted)
    psi, order = _golden()
    assert len(enumerate_packet(psi, order)) == 1651
    assert made == []
    verdict = Engine().decide(psi, order, SignedData((10, 10, 2), (1, 1, 1)), collect_trace=True)
    assert len(made) == len(verdict.trace) > 0


def test_stored_rules_are_neutral_on_the_staircase():
    # The 28-block chain A = i + 3, B = i with alternating zeta, under four
    # l patterns, so that its skeletons come up in more than one decision.
    n = 28
    psi = Parameter(tuple(blk(i + 3, i, 1 if i % 2 == 0 else -1) for i in range(n)))
    order = natural_order(psi)
    shared = _Recording()
    for l in ((2,) * n, (1,) * n, (2, 1) * (n // 2), (1, 2) * (n // 2)):
        shared._decide_unchecked(_fibers(psi, order, SignedData(l, (1,) * n)))
        # Rules are stored from the second decision on.
        assert bool(shared._rules) == (len(shared.calls) > 1)
    _assert_stored_rules_are_neutral(shared)


def test_pull_equal_with_several_equal_partners():
    # Four blocks (A, B) = (0, 0) with zetas +, +, -, +, the first on top:
    # the top block has two equal-interval, same-zeta partners below it.
    # Pull-equal moves only the highest of them up to just below it; swapping
    # from the lowest one instead pushes an equal same-zeta pair through S+,
    # whose condition can fail where the rule itself gives a verdict.
    psi = Parameter((blk(0, 0, 1), blk(0, 0, 1), blk(0, 0, -1), blk(0, 0, 1)))
    orders = all_admissible_orders(psi)
    assert AdmissibleOrder(((0, 1, 2, 3),)) in orders
    assert len(orders) == 24
    assert [packet_size(psi, order) for order in orders] == [2] * 24


def test_far_away_shift_keeps_the_packet():
    # Moving a level-1-far block further away keeps the packet.
    for zeta in (1, -1):
        packets = []
        for twice_b in (40, 400, 4000):
            B = twice_b // 2
            psi = Parameter((blk(4, 1, 1), blk(3, 2, 1), blk(B + 1, B, zeta)))
            order = AdmissibleOrder(((2, 0, 1),))
            members = enumerate_packet(psi, order)
            packets.append([(d.l, d.eta) for d in members])
            traces = [Engine().decide(psi, order, d, collect_trace=True).trace for d in members]
            assert any(traces)
        assert len(packets[0]) == 15
        assert packets[0] == packets[1] == packets[2], zeta


def test_measure_check_survives_optimized_mode():
    # The engine's invariant checks are explicit raises, so `python -O` keeps them.
    script = """
from arthur_packets.core import AdmissibleOrder, JordanBlock, Parameter, RhoLabel, SignedData
from arthur_packets import engine, reductions
from arthur_packets.halfint import hi
reductions.measure = lambda recs: (0, 0, 0)  # every subproblem ties its parent
rho = RhoLabel("r", "orthogonal", 1)
psi = Parameter((JordanBlock(rho, hi(40), hi(10), 1), JordanBlock(rho, hi(37), hi(7), -1),
                 JordanBlock(rho, hi(8), hi(4), 1)), group_kind="Sp-even")
try:
    engine.Engine().decide(psi, AdmissibleOrder(((0, 1, 2),)), SignedData((10, 10, 2), (1, 1, 1)))
except AssertionError as exc:
    print("raised:", exc)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("raised: termination measure failed to decrease"), res.stdout
