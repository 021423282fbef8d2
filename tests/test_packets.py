import random

import pytest

from arthur_packets import packets
from arthur_packets.characters import quasisplit_ok
from arthur_packets.core import (
    AdmissibleOrder,
    DataError,
    JordanBlock,
    Parameter,
    RhoLabel,
    SignedData,
    all_admissible_orders,
    natural_order,
    parameter_from_json,
)
from arthur_packets.engine import Engine
from arthur_packets.halfint import HalfInt, hi
from arthur_packets.oracle import oracle_two_block
from arthur_packets.packets import candidates, enumerate_packet, packet_size
from arthur_packets.transforms import reorder, sigma0_canonical

from test_acceptance import _random_parameter  # the criterion-5 generator

RHO = RhoLabel("r", "orthogonal", 1)


def blk(A, B, zeta, rho=RHO):
    return JordanBlock(rho, hi(A), hi(B), zeta)


def test_empty_parameter():
    psi = Parameter(())
    assert packet_size(psi) == 1
    assert enumerate_packet(psi) == [SignedData((), ())]


def test_single_elementary_block():
    psi = Parameter((blk(4, 4, 1),))
    members = enumerate_packet(psi)
    assert len(members) == 1
    assert members[0].l == (0,)


def test_candidates_fix_eta_at_free_blocks():
    psi = Parameter((blk(4, 1, 1),))  # d = 3, eta free at l = 2
    cands = list(candidates(psi))
    free = [d for d in cands if d.l == (2,)]
    assert len(free) == 1 and free[0].eta == (1,)
    non_free = [d for d in cands if d.l != (2,)]
    assert {d.eta for d in non_free} == {(1,), (-1,)}


def test_two_equal_blocks_against_two_block_rule():
    psi = Parameter((blk(1, 0, 1), blk(1, 0, 1)))
    members = enumerate_packet(psi)
    expected = []
    for d in candidates(psi):
        if not quasisplit_ok(psi, d):
            continue
        # natural order puts occurrence 0 above occurrence 1
        if oracle_two_block(1, 0, 1, 0, d.l[1], d.eta[1], d.l[0], d.eta[0]):
            expected.append(d)
    assert sorted(members, key=lambda d: (d.l, d.eta)) == sorted(
        expected, key=lambda d: (d.l, d.eta)
    )


def test_explicit_order_agrees_with_natural():
    psi = Parameter((blk(4, 1, 1), blk(3, 2, 1)))
    order = AdmissibleOrder(((1, 0),))
    assert packet_size(psi) == packet_size(psi, order=order)


def test_packet_functions_reject_an_inadmissible_order():
    # Block 0 strictly dominates block 1 with the same zeta, so it must be greater.
    psi = Parameter((blk(4, 1, 1), blk(3, 0, 1)))
    for plan in (packet_size, enumerate_packet):
        with pytest.raises(DataError, match="^order is not admissible$"):
            plan(psi, AdmissibleOrder(((1, 0),)))


def _record_cases():
    """Golden, the first 20 criterion-5 parameters and one half-integral fiber."""
    golden = Parameter((blk(40, 10, 1), blk(37, 7, -1), blk(8, 4, 1)))
    half = Parameter(
        tuple(JordanBlock(RHO, HalfInt(tA), HalfInt(tB), z) for tA, tB, z in
              ((7, 1, 1), (5, 3, -1), (3, 1, 1)))
    )
    cases = [golden, half]
    rng = random.Random(99)
    while len(cases) < 22:
        psi = _random_parameter(rng)
        if len(all_admissible_orders(psi, limit=3)) >= 3:
            cases.append(psi)
    return cases


def test_grid_rows_carry_their_records():
    for psi in _record_cases():
        rows = packets._choices(psi.records)
        assert [SignedData(l, eta) for _, l, eta, _ in rows] == candidates(psi)
        for _, l, eta, recs in rows:
            assert recs == tuple(rec + (l[i], eta[i]) for i, rec in enumerate(psi.records))
        # Each block option's record is one object shared across the grid.
        for i in range(len(psi.blocks)):
            assert len({id(row[3][i]) for row in rows}) == len({row[3][i] for row in rows})


def test_fiber_members_match_records_built_per_choice():
    # Every fiber of every admissible order (at most 50 per parameter): the
    # plan's members against each choice's records built here, in the
    # fiber order, and decided without a canonicalization plan.
    checked = 0
    for psi in _record_cases():
        records = psi.records
        planned, reference = Engine(), Engine()
        for order in all_admissible_orders(psi, limit=50):
            for fiber in order.fibers():
                fib = packets._fiber(psi, fiber)
                want = []
                for choice in fib.choices:
                    _, l, eta, _ = choice
                    at = dict(zip(fib.occurrences, zip(l, eta)))
                    recs = [records[occ] + at[occ] for occ in reversed(fiber)]
                    if reference._decide_unchecked([recs]).nonvanishing:
                        want.append(choice)
                assert packets._fiber_members(fib, fib.choices, planned) == want, (psi, order)
                checked += len(fib.choices)
    assert checked == 142928


# The half-integral, interleaved two-fiber file that CI pins (104 members).
HALF_INTEGRAL_FILE = {
    "blocks": [
        {"rho": "a", "A": "7/2", "B": "1/2", "zeta": 1},
        {"rho": "b", "A": 3, "B": 1, "zeta": -1},
        {"rho": "a", "A": "5/2", "B": "3/2", "zeta": -1},
        {"rho": "b", "A": 2, "B": 0, "zeta": 1},
        {"rho": "a", "A": "3/2", "B": "1/2", "zeta": 1},
    ]
}


def _assert_checked(psi, d):
    """``d`` passes every check a caller's SignedData gets."""
    assert SignedData(d.l, d.eta) == d
    assert type(d.l) is tuple and type(d.eta) is tuple
    assert all(type(x) is int for x in d.l + d.eta), d
    d.check_bounds(psi)


def test_library_built_data_pass_the_caller_checks():
    # enumerate_packet, reorder, candidates and sigma0_canonical build their
    # results unchecked; every one of them must pass the checks anyway.
    cases = _record_cases() + [parameter_from_json(HALF_INTEGRAL_FILE)[0]]
    members = images = 0
    for psi in cases:
        orders = all_admissible_orders(psi, limit=3)
        engine = Engine()
        packs = [enumerate_packet(psi, order, engine=engine) for order in orders]
        for pack in packs:
            for d in pack:
                _assert_checked(psi, d)
                assert quasisplit_ok(psi, d)
            members += len(pack)
        second = orders[1] if len(orders) > 1 else orders[0]
        for d in packs[0]:
            image = reorder(psi, orders[0], second, d)
            _assert_checked(psi, image)
            assert quasisplit_ok(psi, image)
            images += 1
        for d in candidates(psi):
            _assert_checked(psi, d)
            _assert_checked(psi, sigma0_canonical(psi, d))
    assert (members, images) == (41253, 13751)


def test_grids_are_kept_for_the_last_parameter_planned(monkeypatch):
    # One engine plans psi A under three orders, then B, then A again; its
    # members are those of a fresh engine each time.
    cases = _record_cases()
    a = next(psi for psi in cases if len(psi.fibers()) == 2)
    b = cases[0]
    orders_a = all_admissible_orders(a, limit=3)
    assert len(orders_a) == 3
    runs = [(a, order) for order in orders_a] + [(b, natural_order(b)), (a, orders_a[0])]
    want = [enumerate_packet(psi, order, engine=Engine()) for psi, order in runs]
    fiber_records = lambda psi: [tuple(psi.records[i] for i in ix) for ix in psi.fibers().values()]
    calls = []
    choices = packets._choices
    monkeypatch.setattr(packets, "_choices", lambda records: calls.append(records) or choices(records))
    engine = Engine()
    got = [enumerate_packet(psi, order, engine=engine) for psi, order in runs[:3]]
    # A's two fibers have different records; each grid is built once.
    assert calls == fiber_records(a) and len(set(calls)) == 2
    assert engine._grids_of is a and list(engine._grids) == fiber_records(a)
    grids_a = list(engine._grids.values())
    got.append(enumerate_packet(b, runs[3][1], engine=engine))
    # After B the engine holds B's grids only.
    assert engine._grids_of is b and list(engine._grids) == fiber_records(b)
    assert not any(g is h for g in engine._grids.values() for h in grids_a)
    del calls[:]
    got.append(enumerate_packet(a, orders_a[0], engine=engine))
    # A's grids were dropped with B, so they are built again.
    assert calls == fiber_records(a) and engine._grids_of is a
    assert got == want
