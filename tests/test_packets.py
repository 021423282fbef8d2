from arthur_packets.characters import quasisplit_ok
from arthur_packets.core import (
    AdmissibleOrder,
    JordanBlock,
    Parameter,
    RhoLabel,
    SignedData,
)
from arthur_packets.halfint import hi
from arthur_packets.oracle import oracle_two_block
from arthur_packets.packets import candidates, enumerate_packet, packet_size

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
