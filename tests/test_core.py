import dataclasses
import enum
import itertools
import pickle
import random
import time

import pytest

from arthur_packets.core import (
    AdmissibleOrder,
    DataError,
    JordanBlock,
    Parameter,
    ParameterError,
    RhoLabel,
    SignedData,
    all_admissible_orders,
    block_parity,
    is_admissible,
    natural_order,
    parameter_from_json,
    parameter_to_json,
)
from arthur_packets.engine import Engine
from arthur_packets.halfint import hi
from arthur_packets.transforms import reorder
from test_acceptance import _random_parameter, _small_fiber_parameters

RHO = RhoLabel("r", "orthogonal", 1)


def blk(A, B, zeta, rho=RHO):
    return JordanBlock(rho, hi(A), hi(B), zeta)


def test_block_validation():
    with pytest.raises(ParameterError):
        blk(1, 2, 1)  # A < B
    with pytest.raises(ParameterError):
        JordanBlock(RHO, hi("3/2"), hi(1), 1)  # mixed lattice
    with pytest.raises(ParameterError):
        blk(1, 0, 0)  # bad sign


def test_block_parity():
    # a + b even with orthogonal rho -> orthogonal block
    assert block_parity(blk(40, 10, 1)) == "orthogonal"
    sym = RhoLabel("s", "symplectic", 2)
    assert block_parity(blk(40, 10, 1, sym)) == "symplectic"
    # a + b odd flips the rule
    assert block_parity(blk("5/2", "1/2", 1)) == "symplectic"
    assert block_parity(blk("5/2", "1/2", 1, sym)) == "orthogonal"


def test_group_parity_audit():
    Parameter((blk(40, 10, 1),), group_kind="Sp-even")
    with pytest.raises(ParameterError):
        Parameter((blk("5/2", "1/2", 1),), group_kind="Sp-even")
    Parameter((blk("5/2", "1/2", 1),), group_kind="SO-odd")


def test_one_lattice_per_rho():
    # One rho's blocks must all be integral or all half-integral, whatever
    # the group; different rhos may lie on different lattices.
    for group in (None, "Sp-even", "SO-odd"):
        with pytest.raises(ParameterError, match="both integral and half-integral"):
            Parameter((blk("7/2", "5/2", -1), blk("9/2", "7/2", 1), blk(8, 6, -1)), group_kind=group)
    other = RhoLabel("s", "orthogonal", 1)
    psi = Parameter((blk(8, 6, -1), blk("7/2", "5/2", -1, other)))
    assert len(psi.fibers()) == 2


def test_l_max_and_eta_freedom():
    b = blk(5, 2, 1)  # d = 3
    assert b.l_max() == 2
    assert b.eta_is_free_at(2)
    assert not b.eta_is_free_at(1)
    b = blk(4, 2, 1)  # d = 2, (d+1)/2 not integral
    assert b.l_max() == 1
    assert not any(b.eta_is_free_at(l) for l in range(2))


def test_admissibility_condition():
    # lower block strictly dominating an upper same-zeta block is forbidden
    psi = Parameter((blk(2, 1, 1), blk(4, 2, 1)))
    assert not is_admissible(AdmissibleOrder(((0, 1),)), psi)
    assert is_admissible(AdmissibleOrder(((1, 0),)), psi)
    # opposite zeta: both orders fine
    psi = Parameter((blk(2, 1, 1), blk(4, 2, -1)))
    assert is_admissible(AdmissibleOrder(((0, 1),)), psi)
    assert is_admissible(AdmissibleOrder(((1, 0),)), psi)
    # nested same-zeta: both orders fine
    psi = Parameter((blk(4, 1, 1), blk(3, 2, 1)))
    assert is_admissible(AdmissibleOrder(((0, 1),)), psi)
    assert is_admissible(AdmissibleOrder(((1, 0),)), psi)


def test_order_coverage_checked():
    psi = Parameter((blk(2, 1, 1), blk(4, 2, 1)))
    with pytest.raises(DataError):
        is_admissible(AdmissibleOrder(((0,),)), psi)


def test_order_rejects_an_empty_fiber():
    # An empty fiber would spell an admissible order a second, unequal way,
    # with its own entry in the parameter's caches.
    psi = Parameter((blk(2, 0, 1), blk(1, 0, -1), blk(3, 1, 1)))
    assert is_admissible(AdmissibleOrder(((2, 0, 1),)), psi)
    for per_rho in (((2, 0, 1), ()), ((), (2, 0, 1)), ((),), [[2, 0, 1], []]):
        with pytest.raises(DataError, match="empty fiber"):
            AdmissibleOrder(per_rho)
    assert len(psi._admissible) == 1


def test_order_has_one_spelling_whatever_its_fiber_sequence():
    # Two rhos: r at occurrences 0 and 2, s at 1.  Listing the fibers in
    # either sequence gives one order, with one cached verdict.
    s = RhoLabel("s", "orthogonal", 1)
    psi = Parameter((blk(4, 2, 1), blk(3, 0, -1, s), blk(2, 1, 1)))
    first, second = AdmissibleOrder(((0, 2), (1,))), AdmissibleOrder(((1,), (0, 2)))
    assert first == second and hash(first) == hash(second)
    assert (second.per_rho, second.fibers()) == (((0, 2), (1,)), [(0, 2), (1,)])
    assert is_admissible(first, psi) and is_admissible(second, psi)
    assert list(psi._admissible) == [first]
    assert parameter_to_json(psi, second)["order"] == [[0, 2], [1]]
    obj = dict(parameter_to_json(psi), order=[[1], [0, 2]])
    assert parameter_from_json(obj)[1].per_rho == ((0, 2), (1,))


def test_cached_verdicts_keep_every_check():
    psi = Parameter((blk(2, 1, 1), blk(4, 2, 1), blk(3, 0, -1)))
    good = AdmissibleOrder(((1, 0, 2),))
    bad = AdmissibleOrder(((0, 1, 2),))  # block 1 dominates block 0
    short = AdmissibleOrder(((1, 0),))
    for _ in range(2):
        assert is_admissible(good, psi)
        assert not is_admissible(bad, psi)
        # A bad cover raises on every call, also after a cached verdict.
        with pytest.raises(DataError, match="does not cover"):
            is_admissible(short, psi)
    # Equal but distinct orders get the same verdict.
    assert is_admissible(AdmissibleOrder(([1, 0, 2],)), psi)
    assert not is_admissible(AdmissibleOrder(([0, 1, 2],)), psi)
    # The verdicts live on the parameter, not on equal parameters' caches.
    assert not is_admissible(bad, Parameter(psi.blocks))
    # An entry equal to an index but not an int never reaches a cached verdict.
    for entry in (1.0, True):
        with pytest.raises(DataError, match="order entries must be integers"):
            AdmissibleOrder(((entry, 0, 2),))


def test_returned_containers_are_fresh():
    s = RhoLabel("s", "orthogonal", 1)
    psi = Parameter((blk(2, 1, 1), blk(4, 2, 1, s), blk(3, 0, -1)))
    order = AdmissibleOrder(((2, 0), (1,)))
    psi.fibers()[RHO] = (1,)
    psi.fibers().clear()
    order.fibers().reverse()
    order.rank()[0] = 7
    assert psi.fibers() == {RHO: (0, 2), s: (1,)}
    assert order.fibers() == [(2, 0), (1,)]
    assert order.rank() == {2: 2, 0: 1, 1: 1}
    assert is_admissible(order, psi)
    assert natural_order(psi).per_rho == ((2, 0), (1,))


def test_order_must_match_fibers():
    # The cover is exact, but each tuple mixes the two fibers.
    s = RhoLabel("s", "orthogonal", 1)
    psi = Parameter((blk(2, 1, 1), blk(4, 2, 1), blk(2, 1, 1, s), blk(4, 2, 1, s)))
    assert is_admissible(AdmissibleOrder(((1, 0), (3, 2))), psi)
    with pytest.raises(DataError, match="order has no fiber matching rho 'r'"):
        is_admissible(AdmissibleOrder(((1, 2), (3, 0))), psi)
    # The first fiber is checked first: an inadmissible one answers False.
    assert not is_admissible(AdmissibleOrder(((0, 1), (3, 2))), psi)
    with pytest.raises(DataError, match="order has no fiber matching rho 's'"):
        is_admissible(AdmissibleOrder(((1, 0), (2,), (3,))), psi)


def test_natural_order():
    psi = Parameter((blk(2, 1, 1), blk(4, 2, 1), blk(4, 1, -1)))
    order = natural_order(psi)
    assert order.per_rho == ((1, 2, 0),)
    assert is_admissible(order, psi)


def test_all_admissible_orders():
    psi = Parameter((blk(4, 1, 1), blk(3, 2, 1)))
    assert len(all_admissible_orders(psi)) == 2
    psi = Parameter((blk(2, 1, 1), blk(4, 2, 1)))
    assert len(all_admissible_orders(psi)) == 1


def _admissible_permutation(psi, perm):
    """No block is strictly dominated by a later one of the same zeta."""
    recs = [psi.records[i] for i in perm]
    return not any(
        lo[2] == up[2] and lo[0] > up[0] and lo[1] > up[1]
        for k, up in enumerate(recs)
        for lo in recs[k + 1 :]
    )


def _all_orders_reference(psi, limit=None):
    """Every admissible order by filtering every permutation, as first written."""
    per_fiber = [
        [perm for perm in itertools.permutations(ix) if _admissible_permutation(psi, perm)]
        for ix in psi.fibers().values()
    ]
    out = []
    for combo in itertools.product(*per_fiber):
        out.append(AdmissibleOrder(tuple(combo)))
        if limit is not None and len(out) >= limit:
            break
    return out


def test_all_admissible_orders_match_the_permutation_filter():
    # Every single-fiber parameter of the 2-3 block sweep, and the first
    # 2 000 draws of the criterion-5 generator (seed 99) with multifiber's limit.
    for psi in _small_fiber_parameters():
        assert all_admissible_orders(psi) == _all_orders_reference(psi)
    rng = random.Random(99)
    for _ in range(2000):
        psi = _random_parameter(rng)
        assert all_admissible_orders(psi, limit=50) == _all_orders_reference(psi, limit=50)


def test_all_admissible_orders_stop_at_the_limit():
    # 12 identical blocks have 12! orders, a strictly dominating chain of 12
    # blocks only one; neither lists the permutations.
    same = Parameter((blk(6, 2, 1),) * 12)
    chain = Parameter(tuple(blk(i + 2, i, 1) for i in range(12)))
    start = time.perf_counter()
    assert [o.per_rho for o in all_admissible_orders(same, limit=3)] == [
        (tuple(range(12)),),
        (tuple(range(10)) + (11, 10),),
        (tuple(range(9)) + (10, 9, 11),),
    ]
    assert [o.per_rho for o in all_admissible_orders(chain)] == [(tuple(range(11, -1, -1)),)]
    assert time.perf_counter() - start < 0.5


def test_signed_data_bounds():
    psi = Parameter((blk(5, 2, 1),))
    SignedData((2,), (1,)).check_bounds(psi)
    with pytest.raises(DataError):
        SignedData((3,), (1,)).check_bounds(psi)
    with pytest.raises(DataError):
        SignedData((1,), (0,))


def test_signed_data_rejects_non_integer_coordinates():
    # Half-integral l, and eta given as a bool or a float: the first two used
    # to decide NONVANISHING on golden.
    golden = Parameter((blk(40, 10, 1), blk(37, 7, -1), blk(8, 4, 1)), group_kind="Sp-even")
    order = natural_order(golden)
    assert Engine().decide(golden, order, SignedData((10, 10, 2), (1, 1, 1))).nonvanishing
    for l, eta in (
        ((10, 9.5, 0.5), (1, 1, 1)),
        ((10, 9.5, 1.5), (-1, 1, 1)),
        ((10, 10, 2), (True, 1, 1)),
        ((10, 10, 2), (1.0, 1, 1)),
    ):
        with pytest.raises(DataError):
            Engine().decide(golden, order, SignedData(l, eta))


class _Sign(enum.IntEnum):
    PLUS = 1
    MINUS = -1


def test_signed_data_accept_set():
    # Lists become tuples, and a tuple is kept as given.
    data = SignedData([1, 0], [1, -1])
    assert (type(data.l), type(data.eta)) == (tuple, tuple)
    assert data == SignedData((1, 0), (1, -1))
    l = (1, 0)
    assert SignedData(l, (1, 1)).l is l
    # bool and float entries, and eta 0 or 2, are refused.
    for l, eta, message in (
        ((True, 0), (1, 1), "l entries must be integers, got (True, 0)"),
        ([1.0, 0], (1, 1), "l entries must be integers, got (1.0, 0)"),
        ((0, 9.5), (1, 1), "l entries must be integers, got (0, 9.5)"),
        ((1, 0), (True, 1), "eta entries must be +1/-1, got True"),
        ((1, 0), (1, 1.0), "eta entries must be +1/-1, got 1.0"),
        ((1, 0), (9.5, 1), "eta entries must be +1/-1, got 9.5"),
        ((1, 0), (1, 0), "eta entries must be +1/-1, got 0"),
        ((1, 0), (-1, 2), "eta entries must be +1/-1, got 2"),
        ((1,), (1, 1), "l and eta must have the same length"),
    ):
        with pytest.raises(DataError) as exc:
            SignedData(l, eta)
        assert str(exc.value) == message, (l, eta)
    # An int subclass other than bool is an integer.
    data = SignedData((_Sign.PLUS, 0), (_Sign.MINUS, 1))
    assert data == SignedData((1, 0), (-1, 1))


def test_derived_signed_data_behaves_like_a_checked_one():
    # The library's unchecked constructor gives the same object a caller's
    # checked one does; a caller's data is still checked.
    checked = SignedData((2, 0, 1), (1, -1, 1))
    derived = SignedData._derived((2, 0, 1), (1, -1, 1))
    assert derived == checked and checked == derived
    assert hash(derived) == hash(checked)
    assert repr(derived) == repr(checked) == "SignedData(l=(2, 0, 1), eta=(1, -1, 1))"
    assert pickle.loads(pickle.dumps(derived)) == checked
    assert dataclasses.asdict(derived) == dataclasses.asdict(checked)
    assert {derived: 1}[checked] == 1
    for field in ("l", "eta"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(derived, field, (0, 0, 0))
    for l, eta in (((1.0, 0, 1), (1, 1, 1)), ((True, 0, 1), (1, 1, 1)), ((1, 0, 1), (1, 2, 1))):
        with pytest.raises(DataError):
            SignedData(l, eta)
    # reorder and Engine.decide still refuse data out of bounds.
    golden = Parameter((blk(40, 10, 1), blk(37, 7, -1), blk(8, 4, 1)), group_kind="Sp-even")
    natural, swapped = AdmissibleOrder(((0, 1, 2),)), AdmissibleOrder(((1, 0, 2),))
    for data in (SignedData((10, 10, 3), (1, 1, 1)), SignedData((10, 10), (1, 1))):
        with pytest.raises(DataError):
            reorder(golden, natural, swapped, data)
        with pytest.raises(DataError):
            Engine().decide(golden, natural, data)


def test_json_round_trip_with_counts_and_halfints():
    obj = {
        "group": None,
        "blocks": [
            {"rho": "r", "parity": "orthogonal", "dim": 1, "A": "7/2", "B": ".5", "zeta": 1, "count": 2},
            {"rho": "r", "parity": "orthogonal", "dim": 1, "A": "5/2", "B": "1/2", "zeta": -1},
        ],
    }
    psi, order = parameter_from_json(obj)
    assert order is None
    assert len(psi.blocks) == 3
    assert psi.blocks[0] == psi.blocks[1]
    out = parameter_to_json(psi)
    psi2, _ = parameter_from_json(out)
    assert psi2 == psi
    assert out["blocks"][0]["count"] == 2
    assert out["blocks"][0]["A"] == "7/2"


def test_json_order_parsing():
    obj = {
        "group": None,
        "blocks": [
            {"rho": "r", "A": 4, "B": 1, "zeta": 1},
            {"rho": "r", "A": 3, "B": 2, "zeta": 1},
        ],
        "order": [1, 0],
    }
    psi, order = parameter_from_json(obj)
    assert order.per_rho == ((1, 0),)
    obj["order"] = [[0, 1]]
    _, order = parameter_from_json(obj)
    assert order.per_rho == ((0, 1),)
    # An empty fiber is malformed, as it is when spelled as --order "0,1;".
    obj["order"] = [[0, 1], []]
    with pytest.raises(ParameterError, match=r"^malformed order \[\[0, 1\], \[\]\]: a fiber is empty$"):
        parameter_from_json(obj)


def test_json_rejects_inadmissible_order():
    obj = {
        "group": None,
        "blocks": [
            {"rho": "r", "A": 2, "B": 1, "zeta": 1},
            {"rho": "r", "A": 4, "B": 2, "zeta": 1},
        ],
        "order": [0, 1],
    }
    with pytest.raises(DataError):
        parameter_from_json(obj)


def test_conflicting_rho_metadata_rejected():
    with pytest.raises(ParameterError):
        Parameter((blk(2, 1, 1), blk(2, 1, 1, RhoLabel("r", "symplectic", 1))))
