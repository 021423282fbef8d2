import random

from arthur_packets import packets
from arthur_packets.characters import quasisplit_ok
from arthur_packets.core import (
    AdmissibleOrder,
    JordanBlock,
    Parameter,
    RhoLabel,
    SignedData,
    all_admissible_orders,
)
from arthur_packets.engine import Engine
from arthur_packets.halfint import HalfInt, hi
from arthur_packets.oracle import oracle_two_block
from arthur_packets.packets import candidates, enumerate_packet, packet_size

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
