import itertools
import random

import pytest

from arthur_packets.characters import (
    Character,
    eps_M_MW,
    eps_MW_W,
    eps_l_eta,
    quasisplit_ok,
    translate_M_to_W,
)
from arthur_packets.core import (
    AdmissibleOrder,
    DataError,
    JordanBlock,
    Parameter,
    RhoLabel,
    SignedData,
    all_admissible_orders,
)
from arthur_packets.halfint import hi
from arthur_packets.packets import candidates
from test_acceptance import _random_parameter  # the criterion-5 generator

RHO = RhoLabel("r", "orthogonal", 1)


def blk(A, B, zeta, rho=RHO):
    return JordanBlock(rho, hi(A), hi(B), zeta)


def _eps_product(psi, data):
    prod = 1
    for blk, l, eta in zip(psi.blocks, data.l, data.eta):
        prod *= eps_l_eta(blk, l, eta)
    return prod


def test_quasisplit_ok_is_the_product_of_eps_l_eta():
    # Golden: every grid point, with both etas at every block.
    golden = Parameter((blk(40, 10, 1), blk(37, 7, -1), blk(8, 4, 1)))
    options = [
        [(l, eta) for l in range(b.l_max() + 1) for eta in (1, -1)] for b in golden.blocks
    ]
    grid = [SignedData(*zip(*point)) for point in itertools.product(*options)]
    assert len(grid) == 6144
    # The first 16 parameters criterion 5 tests: their canonical grids, at
    # most about 2 000 evenly spaced points each.
    cases = [(golden, grid)]
    rng = random.Random(99)
    while len(cases) < 17:
        psi = _random_parameter(rng)
        orders = all_admissible_orders(psi, limit=50)
        if len(orders) < 3:
            continue
        rng.shuffle(orders)
        points = candidates(psi)
        cases.append((psi, points[:: len(points) // 2000 + 1]))
    for psi, points in cases:
        for data in points:
            assert quasisplit_ok(psi, data) == (_eps_product(psi, data) == 1), (psi, data)
    # The bounds are still checked.
    with pytest.raises(DataError):
        quasisplit_ok(golden, SignedData((16, 0, 0), (1, 1, 1)))


def test_eps_l_eta_formula():
    # eta^(d+1) * (-1)^(floor((d+1)/2) + l)
    b = blk(3, 3, 1)  # d = 0
    assert eps_l_eta(b, 0, 1) == 1
    assert eps_l_eta(b, 0, -1) == -1
    b = blk(4, 1, 1)  # d = 3: eta^4 * (-1)^(2+l)
    assert eps_l_eta(b, 0, -1) == 1
    assert eps_l_eta(b, 1, -1) == -1
    b = blk(5, 1, 1)  # d = 4: eta^5 * (-1)^(2+l)
    assert eps_l_eta(b, 0, -1) == -1
    assert eps_l_eta(b, 1, 1) == -1
    with pytest.raises(DataError):
        eps_l_eta(b, 3, 1)


def test_eps_l_eta_rejects_malformed_data():
    # As SignedData does: l a plain int, eta the int +1 or -1.
    b = blk(4, 2, 1)
    for l, eta in ((0, 0), (0, 5), (True, 1), (1.0, 1)):
        with pytest.raises(DataError):
            eps_l_eta(b, l, eta)


def test_quasisplit_product():
    psi = Parameter((blk(3, 3, 1), blk(1, 1, 1)))
    assert quasisplit_ok(psi, SignedData((0, 0), (1, 1)))
    assert quasisplit_ok(psi, SignedData((0, 0), (-1, -1)))
    assert not quasisplit_ok(psi, SignedData((0, 0), (1, -1)))


def test_character_product():
    assert (Character((1, -1)) * Character((-1, -1))).values == (-1, 1)
    with pytest.raises(DataError):
        Character((1,)) * Character((1, 1))


def test_translate_descends_flag_on_identical_blocks():
    psi = Parameter((blk(3, 1, 1), blk(3, 1, 1)))
    order = AdmissibleOrder(((0, 1),))
    # identical blocks with identical data: product character constant on the class
    _, descends = translate_M_to_W(psi, order, SignedData((0, 0), (1, 1)))
    assert descends
    # differing eta on identical blocks makes the product non-constant for
    # some assignment; scan for at least one non-descending case
    found = False
    for l in itertools.product(range(2), repeat=2):
        for eta in itertools.product((1, -1), repeat=2):
            _, d = translate_M_to_W(psi, order, SignedData(l, eta))
            if not d:
                found = True
    assert found


def test_correction_characters_are_signs():
    psi = Parameter((blk(4, 1, 1), blk(3, 2, 1), blk(2, 0, -1)))
    order = AdmissibleOrder(((0, 1, 2),))
    for ch in (eps_MW_W(psi, order), eps_M_MW(psi, order)):
        assert all(v in (1, -1) for v in ch.values)
        assert len(ch.values) == 3


def test_single_block_corrections_trivial():
    psi = Parameter((blk(4, 1, 1),))
    order = AdmissibleOrder(((0,),))
    assert eps_MW_W(psi, order).values == (1,)
    assert eps_M_MW(psi, order).values == (1,)
