import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arthur_packets import transforms
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
from arthur_packets.halfint import hi
from arthur_packets.packets import enumerate_packet
from arthur_packets.transforms import (
    TransformPreconditionError,
    fiber_records,
    reorder,
    s_minus_pair,
    s_plus_pair,
    sigma0_canonical,
    sigma0_equiv,
    sub_condition_ok,
    sup_condition_ok,
    swap_along,
    swap_records,
    swap_schedule,
    transport,
    u_pair,
)
from test_acceptance import _random_parameter  # the criterion-5 generator

RHO = RhoLabel("r", "orthogonal", 1)


def blk(A, B, zeta):
    return JordanBlock(RHO, hi(A), hi(B), zeta)


def test_sup_condition_cases():
    # matching signs: 0 <= l_big - l_small <= d_big - d_small
    assert sup_condition_ok(4, 2, 1, -1, 0, -1)
    assert not sup_condition_ok(4, 2, 3, -1, 0, -1)
    assert not sup_condition_ok(4, 2, 0, -1, 1, -1)
    # mismatched signs: l_big + l_small > d_small
    assert sup_condition_ok(4, 2, 2, 1, 1, -1)
    assert not sup_condition_ok(4, 2, 1, 1, 1, -1)


def test_s_plus_precondition_raises():
    with pytest.raises(TransformPreconditionError):
        s_plus_pair(4, 2, 0, -1, 1, -1)


def test_s_plus_cases_explicit():
    # mismatched signs: l_big -> l_big - (d_small - 2 l_small + 1), sign copied
    out = s_plus_pair(4, 2, 2, 1, 1, -1)
    assert out == (1, -1, 1, -1)
    # matched signs, below the threshold: l_big grows by the step
    db, ds, lb, ls = 8, 0, 0, 0
    eb = es = 1  # matching since (-1)^ds * es = es
    assert 2 * (lb - ls) < db - 2 * ds + 2 * ls
    out = s_plus_pair(db, ds, lb, eb, ls, es)
    assert out[0] == lb + (ds - 2 * ls + 1)
    assert out[1] == -es
    # matched signs, at or above the threshold: reflection
    db, ds, lb, ls = 4, 2, 2, 1
    es = 1
    eb = es  # (-1)^2 * es
    assert not 2 * (lb - ls) < db - 2 * ds + 2 * ls
    out = s_plus_pair(db, ds, lb, eb, ls, es)
    assert out[0] == (db - ds) + 2 * ls - lb
    assert out[1] == es


def test_u_pair_involution_randomized():
    rng = random.Random(0)
    for _ in range(10000):
        du, dl = rng.randint(0, 9), rng.randint(0, 9)
        lu, ll = rng.randint(0, 5), rng.randint(0, 5)
        eu, el = rng.choice((1, -1)), rng.choice((1, -1))
        a = u_pair(du, dl, lu, eu, ll, el)
        assert u_pair(dl, du, a[2], a[3], a[0], a[1]) == (ll, el, lu, eu)


def _sigma0_pair_equal(d, l, e, l2, e2):
    if l != l2:
        return False
    return e == e2 or 2 * l == d + 1


def test_s_minus_inverts_s_plus_randomized():
    rng = random.Random(1)
    checked = 0
    while checked < 10000:
        db = rng.randint(0, 8)
        ds = rng.randint(0, db)
        lb = rng.randint(0, (db + 1) // 2)
        ls = rng.randint(0, (ds + 1) // 2)
        eb, es = rng.choice((1, -1)), rng.choice((1, -1))
        if not sup_condition_ok(db, ds, lb, eb, ls, es):
            continue
        out = s_plus_pair(db, ds, lb, eb, ls, es)
        back = s_minus_pair(db, ds, *out)
        assert _sigma0_pair_equal(db, lb, eb, back[0], back[1])
        assert _sigma0_pair_equal(ds, ls, es, back[2], back[3])
        checked += 1


def test_s_plus_inverts_s_minus_randomized():
    rng = random.Random(2)
    checked = 0
    while checked < 10000:
        db = rng.randint(0, 8)
        ds = rng.randint(0, db)
        lb = rng.randint(0, (db + 1) // 2)
        ls = rng.randint(0, (ds + 1) // 2)
        eb, es = rng.choice((1, -1)), rng.choice((1, -1))
        if not sub_condition_ok(db, ds, lb, eb, ls, es):
            continue
        out = s_minus_pair(db, ds, lb, eb, ls, es)
        back = s_plus_pair(db, ds, *out)
        assert _sigma0_pair_equal(db, lb, eb, back[0], back[1])
        assert _sigma0_pair_equal(ds, ls, es, back[2], back[3])
        checked += 1


def test_s_plus_bijective_exhaustive():
    def canon(d, l, e):
        return (l, 1 if 2 * l == d + 1 else e)

    for db in range(7):
        for ds in range(db + 1):
            domain, image, codomain = set(), set(), set()
            for lb in range((db + 1) // 2 + 1):
                for eb in (1, -1):
                    for ls in range((ds + 1) // 2 + 1):
                        for es in (1, -1):
                            key = (canon(db, lb, eb), canon(ds, ls, es))
                            if sup_condition_ok(db, ds, lb, eb, ls, es):
                                domain.add(key)
                                o = s_plus_pair(db, ds, lb, eb, ls, es)
                                image.add((canon(db, o[0], o[1]), canon(ds, o[2], o[3])))
                            if sub_condition_ok(db, ds, lb, eb, ls, es):
                                codomain.add(key)
            assert image == codomain
            assert len(domain) == len(codomain)


def _nested_records(rng, n):
    """n records on concentric intervals, so every same-zeta pair is nested."""
    recs = []
    for _ in range(n):
        d = rng.randint(0, 6)  # A - B: doubled A = 12 + d, doubled B = 12 - d
        l = rng.randint(0, (d + 1) // 2)
        recs.append((12 + d, 12 - d, rng.choice((1, -1)), l, rng.choice((1, -1))))
    return recs


def _swapped_in_turn(recs, positions):
    """Apply swap_records at each position in turn, as a hand-written loop does."""
    work = list(recs)
    for j in positions:
        work[j], work[j + 1] = swap_records(work[j], work[j + 1])
    return work


def test_transport_one_record_moves_match_successive_swaps():
    rng = random.Random(11)
    moved = {"up": 0, "down": 0}
    while min(moved.values()) < 50:
        n = rng.randint(2, 6)
        recs = _nested_records(rng, n)
        q = rng.randrange(n - 1)
        # Record q up to position n - 2 (Pull), and the top record down to 0
        # (Change sign): the engine's rules swap at exactly these positions.
        up_keys = list(range(n))
        up_keys[q], up_keys[-1] = n - 1, n
        down_keys = list(range(n))
        down_keys[-1] = -1
        cases = (
            ("up", up_keys, range(q, n - 2)),
            ("down", down_keys, range(n - 2, -1, -1)),
        )
        for name, keys, positions in cases:
            assert swap_schedule(keys) == list(positions)
            try:
                want = _swapped_in_turn(recs, positions)
            except TransformPreconditionError:
                with pytest.raises(TransformPreconditionError):
                    transport(recs, keys)
                continue
            assert transport(recs, keys) == want
            moved[name] += 1


def _bubble_transport(recs, keys):
    """The bubble-sort transport as first written, swapping while it sorts."""
    work, keys = list(recs), list(keys)
    lo, hi = 0, len(work) - 1
    while lo < hi:
        first = last = None
        for i in range(lo, hi):
            if keys[i] > keys[i + 1]:
                work[i], work[i + 1] = swap_records(work[i], work[i + 1])
                keys[i], keys[i + 1] = keys[i + 1], keys[i]
                if first is None:
                    first = i
                last = i
        if last is None:
            break
        lo, hi = max(first - 1, 0), last
    return work


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=8), st.integers(0, 2**32 - 1))
def test_swap_schedule_sorts_stably_and_transport_matches_the_reference(keys, seed):
    # As plain swaps, the schedule is a stable sort of the keys.
    order = list(range(len(keys)))
    for i in swap_schedule(keys):
        assert keys[order[i]] > keys[order[i + 1]]
        order[i], order[i + 1] = order[i + 1], order[i]
    assert order == sorted(range(len(keys)), key=keys.__getitem__)
    # On records, transport swaps as the reference loop does, or raises as it does.
    recs = _nested_records(random.Random(seed), len(keys))
    try:
        want = _bubble_transport(recs, keys)
    except TransformPreconditionError:
        with pytest.raises(TransformPreconditionError):
            transport(recs, keys)
        return
    assert transport(recs, keys) == want


def test_transport_never_swaps_equal_keys():
    # Same zeta, neither interval contains the other: swap_records refuses.
    lo, up = (4, 2, 1, 0, 1), (6, 4, 1, 0, 1)
    with pytest.raises(AssertionError):
        swap_records(lo, up)
    assert transport([lo, up], [0, 0]) == [lo, up]
    # The record with the smaller key passes both; the tied pair keeps its order.
    rng = random.Random(5)
    for _ in range(50):
        recs = _nested_records(rng, 3)
        try:
            want = _swapped_in_turn(recs, (1, 0))
        except TransformPreconditionError:
            continue
        assert transport(recs, [1, 1, 0]) == want


def test_transport_precondition_raises():
    # S+: the upper record (d = 4) contains the lower one (d = 2), and
    # l_big - l_small = -1 < 0 violates the container-above condition.
    small, big = (6, 2, 1, 1, -1), (8, 0, 1, 0, -1)
    with pytest.raises(TransformPreconditionError, match="container-above"):
        transport([small, big], [1, 0])
    # S-: the same data with the container below violates the
    # contained-above condition.
    with pytest.raises(TransformPreconditionError, match="contained-above"):
        transport([big, small], [1, 0])


def test_parameter_level_swaps():
    # One adjacent swap at the Parameter level is reorder to the swapped order.
    psi = Parameter((blk(4, 1, 1), blk(3, 2, 1)))
    order = AdmissibleOrder(((0, 1),))
    order2 = AdmissibleOrder(((1, 0),))
    data = SignedData((1, 1), (1, -1))
    data2 = reorder(psi, order, order2, data)  # container above: S+
    lb, eb, ls, es = s_plus_pair(3, 1, 1, 1, 1, -1)
    assert data2 == SignedData((lb, ls), (eb, es))
    back = reorder(psi, order2, order, data2)  # container below: S-
    assert sigma0_equiv(back, data, psi)


def test_u_transform_opposite_zeta():
    psi = Parameter((blk(4, 1, 1), blk(3, 2, -1)))
    order = AdmissibleOrder(((0, 1),))
    order2 = AdmissibleOrder(((1, 0),))
    data = SignedData((1, 0), (1, -1))
    data2 = reorder(psi, order, order2, data)
    assert data2.l == data.l
    back = reorder(psi, order2, order, data2)
    assert back == data


def test_sigma0_canonical():
    psi = Parameter((blk(4, 3, 1), blk(3, 2, 1)))  # d = 1: free at l = 1
    data = SignedData((1, 0), (-1, -1))
    canon = sigma0_canonical(psi, data)
    assert canon.eta == (1, -1)
    assert sigma0_equiv(data, canon, psi)


def test_sigma0_equiv_needs_equal_l_and_equal_visible_eta():
    psi = Parameter((blk(4, 3, 1), blk(3, 2, 1)))  # d = 1: free at l = 1
    data = SignedData((1, 0), (1, 1))
    assert sigma0_equiv(data, SignedData((1, 0), (-1, 1)), psi)
    # l differs, though the etas agree.
    assert not sigma0_equiv(data, SignedData((0, 0), (1, 1)), psi)
    # The eta of block 1 is visible at l = 0.
    assert not sigma0_equiv(data, SignedData((1, 0), (1, -1)), psi)


def test_sigma0_canonical_checks_bounds():
    # Both blocks have d = 1, so l_max = 1.
    psi = Parameter((blk(4, 3, 1), blk(3, 2, 1)))
    with pytest.raises(DataError, match="^data length does not match"):
        sigma0_canonical(psi, SignedData((1,), (1,)))
    with pytest.raises(DataError) as exc:
        sigma0_canonical(psi, SignedData((9, 9), (1, 1)))
    assert str(exc.value) == "l[0]=9 out of range [0, 1] for block (A=4, B=3)"


def test_reorder_round_trip_randomized():
    rng = random.Random(3)
    trials = 0
    while trials < 200:
        blocks = []
        half = rng.choice((0, 1))
        for _ in range(rng.randint(2, 4)):
            from arthur_packets.halfint import HalfInt

            tB = 2 * rng.randint(0, 3) + half
            tA = tB + 2 * rng.randint(0, 4)
            blocks.append(JordanBlock(RHO, HalfInt(tA), HalfInt(tB), rng.choice((1, -1))))
        psi = Parameter(tuple(blocks))
        orders = all_admissible_orders(psi, limit=10)
        if len(orders) < 2:
            continue
        a, b = orders[0], orders[1]
        data = SignedData(
            tuple(rng.randint(0, blk.l_max()) for blk in psi.blocks),
            tuple(rng.choice((1, -1)) for _ in psi.blocks),
        )
        try:
            there = reorder(psi, a, b, data)
            back = reorder(psi, b, a, there)
        except TransformPreconditionError:
            continue  # data violates a necessary condition along the path
        assert sigma0_equiv(back, data, psi)
        trials += 1


def test_reorder_checks_every_call():
    # The golden parameter: (40, 10, +1), (37, 7, -1), (8, 4, +1).
    psi = Parameter((blk(40, 10, 1), blk(37, 7, -1), blk(8, 4, 1)))
    natural = AdmissibleOrder(((0, 1, 2),))
    swapped = AdmissibleOrder(((1, 0, 2),))
    bad = AdmissibleOrder(((2, 1, 0),))  # block 0 dominates block 2
    short = AdmissibleOrder(((0, 1),))
    data = SignedData((10, 10, 2), (1, 1, 1))
    out_of_range = SignedData((10, 10, 3), (1, 1, 1))
    for _ in range(2):
        assert reorder(psi, natural, swapped, data) == SignedData((10, 10, 2), (-1, -1, 1))
        # No fiber moves, so nothing is swapped; the checks still run.
        assert reorder(psi, natural, natural, data) == data
        with pytest.raises(DataError, match="^from_order is not admissible$"):
            reorder(psi, bad, swapped, data)
        with pytest.raises(DataError, match="^from_order is not admissible$"):
            reorder(psi, bad, bad, data)
        with pytest.raises(DataError, match="^to_order is not admissible$"):
            reorder(psi, natural, bad, data)
        with pytest.raises(DataError, match="does not cover"):
            reorder(psi, natural, short, data)
        for target in (swapped, natural):
            with pytest.raises(DataError) as exc:
                reorder(psi, natural, target, out_of_range)
            assert str(exc.value) == "l[2]=3 out of range [0, 2] for block (A=8, B=4)"
            with pytest.raises(DataError, match="data length"):
                reorder(psi, natural, target, SignedData((10, 10), (1, 1)))


def test_compiled_transports_match_a_cold_parameter():
    # reorder compiles each pair of orders once per parameter.  On one warm
    # parameter, every ordered pair of its first four admissible orders
    # moves packet members as on a fresh equal parameter, and back: every
    # member of a small packet, about 50 spread over a large one.
    rng = random.Random(99)
    tested = moved = 0
    while tested < 8:
        psi = _random_parameter(rng)
        orders = all_admissible_orders(psi, limit=4)
        if len(orders) < 4:
            continue
        tested += 1
        packs = {order: enumerate_packet(psi, order) for order in orders}
        for a, b in itertools.permutations(orders, 2):
            for data in packs[a][:: len(packs[a]) // 50 + 1]:
                there = reorder(psi, a, b, data)
                assert there == reorder(Parameter(psi.blocks), a, b, data), (psi, a, b, data)
                back = reorder(psi, b, a, there)
                assert sigma0_canonical(psi, back) == sigma0_canonical(psi, data)
                moved += 1
        assert len(psi._transports) == 12
    assert moved == 3672


def _record_level_reorder(psi, from_order, to_order, data):
    """reorder on fiber records: each fiber's records swapped along the
    schedule of its target ranks, then written back per occurrence."""
    l, eta = list(data.l), list(data.eta)
    rank = to_order.rank()
    for current, target in zip(from_order.fibers(), to_order.fibers()):
        below, want = current[::-1], target[::-1]
        recs = swap_along(fiber_records(psi, below, l, eta), swap_schedule([rank[o] for o in below]))
        assert [rec[:3] for rec in recs] == [psi.records[o] for o in want]
        for occ, rec in zip(want, recs):
            l[occ], eta[occ] = rec[3], rec[4]
    return SignedData(l, eta)


def _canonical_grid(psi):
    """Every (l, eta) with eta = +1 wherever the eta-flip is invisible."""
    choices = [
        [(l, e) for l in range(blk.l_max() + 1) for e in ((1,) if blk.eta_is_free_at(l) else (1, -1))]
        for blk in psi.blocks
    ]
    for point in itertools.product(*choices):
        yield SignedData(tuple(l for l, _ in point), tuple(e for _, e in point))


def test_compiled_transport_matches_the_record_level_reference():
    # Every canonical grid point, not only packet members, moves between
    # every ordered pair of up to four admissible orders as the record-level
    # reference moves it, or raises TransformPreconditionError where it does.
    rng = random.Random(23)
    tested = moved = raised = 0
    while tested < 12:
        psi = _random_parameter(rng)
        orders = all_admissible_orders(psi, limit=4)
        grid = list(_canonical_grid(psi))
        if len(orders) < 2 or len(grid) > 600:
            continue
        tested += 1
        for a, b in itertools.permutations(orders, 2):
            for data in grid:
                try:
                    want = _record_level_reorder(psi, a, b, data)
                except TransformPreconditionError:
                    with pytest.raises(TransformPreconditionError):
                        reorder(psi, a, b, data)
                    raised += 1
                    continue
                assert reorder(psi, a, b, data) == want, (psi, a, b, data)
                moved += 1
    assert moved > 1000 and raised > 1000, (moved, raised)


def test_reached_order_is_checked_at_compilation(monkeypatch):
    # A schedule that stops one swap short never reaches the target order:
    # every call raises, and no pair program is kept.
    psi = Parameter((blk(40, 10, 1), blk(37, 7, -1), blk(8, 4, 1)))
    natural = AdmissibleOrder(((0, 1, 2),))
    swapped = AdmissibleOrder(((1, 0, 2),))
    data = SignedData((10, 10, 2), (1, 1, 1))
    schedule = transforms.swap_schedule
    monkeypatch.setattr(transforms, "swap_schedule", lambda keys: schedule(keys)[:-1])
    for _ in range(2):
        with pytest.raises(InvariantError, match="^reorder did not reach the target order$"):
            reorder(psi, natural, swapped, data)
    assert psi._transports == {}


def test_orders_are_checked_before_and_after_compilation():
    # An order that is not admissible, and one that leaves an occurrence
    # out, raise DataError on either side of a pair whether or not another
    # pair of the same parameter is compiled; neither is ever compiled.
    psi = Parameter((blk(40, 10, 1), blk(37, 7, -1), blk(8, 4, 1)))
    natural = AdmissibleOrder(((0, 1, 2),))
    swapped = AdmissibleOrder(((1, 0, 2),))
    data = SignedData((10, 10, 2), (1, 1, 1))
    bad = AdmissibleOrder(((2, 1, 0),))  # block 0 dominates block 2
    short = AdmissibleOrder(((0, 1),))
    cases = [
        ((bad, natural), "^from_order is not admissible$"),
        ((natural, bad), "^to_order is not admissible$"),
        ((short, natural), "does not cover"),
        ((natural, short), "does not cover"),
    ]

    def each_bad_order_raises():
        for pair, message in cases:
            with pytest.raises(DataError, match=message):
                reorder(psi, *pair, data)

    each_bad_order_raises()
    assert psi._transports == {}
    assert reorder(psi, natural, swapped, data) == SignedData((10, 10, 2), (-1, -1, 1))
    each_bad_order_raises()
    assert list(psi._transports) == [(natural, swapped)]


def test_swap_conditions_are_checked_on_every_call():
    # S+ needs 0 <= l_big - l_small here (equal etas, d_small even); the
    # compiled pair of orders still raises on the second call.
    psi = Parameter((blk(5, 1, 1), blk(4, 2, 1)))
    container_above = AdmissibleOrder(((0, 1),))
    contained_above = AdmissibleOrder(((1, 0),))
    data = SignedData((0, 1), (1, 1))
    for _ in range(2):
        with pytest.raises(TransformPreconditionError, match="container-above"):
            reorder(psi, container_above, contained_above, data)
    assert len(psi._transports) == 1


def test_reorder_moves_only_the_fiber_whose_order_changes():
    # Two orders that agree on one fiber and differ on the other: the
    # agreeing fiber keeps its (l, eta), the other moves as on a parameter
    # of its blocks alone, the image is a member of the target packet, and
    # a fresh equal parameter moves it the same way.
    rng = random.Random(5)
    tested = moved = 0
    while tested < 8:
        psi = _random_parameter(rng)
        fibers = list(psi.fibers().values())
        orders = all_admissible_orders(psi, limit=50)
        pairs = [
            (a, b)
            for a, b in itertools.permutations(orders, 2)
            if sum(x != y for x, y in zip(a.per_rho, b.per_rho)) == 1
        ]
        if len(fibers) < 2 or not pairs:
            continue
        tested += 1
        a, b = rng.choice(pairs)
        k = next(i for i, (x, y) in enumerate(zip(a.per_rho, b.per_rho)) if x != y)
        occurrences = fibers[k]
        slot = {occ: i for i, occ in enumerate(occurrences)}
        alone = Parameter(tuple(psi.blocks[occ] for occ in occurrences))
        a1, b1 = (AdmissibleOrder(([slot[occ] for occ in o.per_rho[k]],)) for o in (a, b))
        target = {sigma0_canonical(psi, d) for d in enumerate_packet(psi, b)}
        for data in enumerate_packet(psi, a):
            there = reorder(psi, a, b, data)
            assert there == reorder(Parameter(psi.blocks), a, b, data), (psi, a, b, data)
            assert sigma0_canonical(psi, there) in target, (psi, a, b, data)
            part = reorder(
                alone,
                a1,
                b1,
                SignedData([data.l[occ] for occ in occurrences], [data.eta[occ] for occ in occurrences]),
            )
            for i in range(len(psi)):
                want = (part.l[slot[i]], part.eta[slot[i]]) if i in slot else (data.l[i], data.eta[i])
                assert (there.l[i], there.eta[i]) == want, (psi, a, b, data)
            moved += 1
        assert len(psi._transports[(a, b)]) == 1
    assert moved == 6728


def test_equal_orders_share_the_cached_entries():
    # An order built from lists equals and hashes as one built from tuples,
    # so both find the same admissibility verdict and compiled transport.
    psi = Parameter(
        (blk(5, 1, 1), JordanBlock(RhoLabel("s"), hi(4), hi(2), -1), blk(3, 0, -1), blk(2, 2, 1))
    )
    listed = AdmissibleOrder([[0, 2, 3], [1]])
    tupled = AdmissibleOrder(((0, 2, 3), (1,)))
    other = AdmissibleOrder([[2, 0, 3], [1]])
    assert listed == tupled and hash(listed) == hash(tupled)
    data = SignedData((1, 0, 1, 0), (1, -1, 1, 1))
    there = reorder(psi, listed, other, data)
    assert reorder(psi, tupled, AdmissibleOrder(((2, 0, 3), (1,))), data) == there
    assert list(psi._admissible) == [listed, other]
    assert list(psi._transports) == [(listed, other)]
