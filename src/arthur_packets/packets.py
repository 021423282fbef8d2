"""Packet enumeration: all (l, eta) classes that are quasisplit and nonvanishing.

The candidate grid is the full l-grid with eta modulo the invisible-flip
equivalence (canonical representative: eta = +1 at every block where
l = (A - B + 1) / 2); ``candidates`` lists it.  A packet is not found by
filtering that grid point by point: the verdict on (l, eta) is the
conjunction of independent per-fiber verdicts, and the quasisplit constraint
asks the product of the per-block signs to be +1.  So ``_plan`` compiles each
fiber of the order once with its part of the grid, each choice with its sign
and records (2A, 2B, zeta, l, eta), and decides every needed fiber choice
once with ``Engine._decide_unchecked`` (one ``_fiber_decide`` walk, with its
own step budget) on its records in the fiber order, picked by one
``itemgetter`` per fiber: no decision builds a record.  Every choice has the
same skeleton, so the engine's canonicalization plan of it (its sort schedule
and invisible-eta positions, ``engine._plan``) is compiled with the fiber and
passed along: no choice works out a schedule again, and each still runs every
swap and its checks.
``enumerate_packet`` is the product of the per-fiber member lists
with sign product +1, sorted for determinism: each fiber's members are split
by sign, so only products that can still reach +1 are built (at the last
fiber a row pairs only with members of its own sign), and the concatenated
data are mapped back to occurrence order only when the fibers interleave.
``packet_size`` only counts those products by sign.  This plan is the
library's one member filter.  It runs serially: every choice is decided by
the caller's one engine, so all of them share its memo, and the orders of
one parameter share its grids (``Engine._grids``): a fiber's grid depends
only on its records.
"""

from __future__ import annotations

from itertools import starmap
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .characters import _eps
from .core import AdmissibleOrder, DataError, Parameter, SignedData, is_admissible, natural_order
from .engine import Engine, _plan as _canonical_plan
from .transforms import Rec

if TYPE_CHECKING:
    from .engine import Plan

# A fiber choice: the sign product of its blocks, its l and eta on the
# fiber's occurrences in ascending index order, and those occurrences'
# records (2A, 2B, zeta, l, eta) in the same order.
Choice = Tuple[int, Tuple[int, ...], Tuple[int, ...], Tuple[Rec, ...]]
# A fiber's members of one sign: (l, eta) on its occurrences, ascending.
Member = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _choices(records: Sequence[Tuple[int, int, int]]) -> List[Choice]:
    """The canonical grid of blocks with these (2A, 2B, zeta), each point
    with its sign product and its records.  Each block option's record is
    built once and shared by every point that takes it."""
    rows = [(1, (), (), ())]  # (sign, l, eta, records) over the blocks so far
    for rec in records:
        d = (rec[0] - rec[1]) // 2
        options = [
            (l, eta, _eps(d, l, eta), rec + (l, eta))
            for l in range((d + 1) // 2 + 1)
            for eta in ((1,) if 2 * l == d + 1 else (1, -1))
        ]
        rows = [
            (s * sign, l + (li,), eta + (e,), recs + (full,))
            for s, l, eta, recs in rows
            for li, e, sign, full in options
        ]
    return rows


def candidates(psi: Parameter) -> List[SignedData]:
    """The canonical (l, eta) grid, before the quasisplit/nonvanishing filters.

    The packet plan does not list it; it is the reference for tests and tools
    that check the plan point by point.
    """
    return [SignedData._derived(l, eta) for _, l, eta, _ in _choices(psi.records)]


class _Fiber(NamedTuple):
    """One fiber of the order, compiled."""

    occurrences: Tuple[int, ...]  # ascending occurrence indices in psi
    # A choice's records in the fiber order, ascending, from its records in
    # occurrence order; None when the two orders agree.
    pick: Optional[Callable[[Tuple[Rec, ...]], Tuple[Rec, ...]]]
    plan: Plan  # the engine's canonicalization plan of those records
    choices: List[Choice]  # its part of the canonical grid, with signs and records


def _fiber(psi: Parameter, fiber: Tuple[int, ...], grids: Optional[dict] = None) -> _Fiber:
    """Compile one fiber order (occurrences listed greatest first); its grid
    is read from, or stored in, ``grids`` (records -> rows) when given."""
    occurrences = tuple(sorted(fiber))
    position = {occ: i for i, occ in enumerate(occurrences)}
    positions = [position[occ] for occ in reversed(fiber)]
    records = psi.records
    key = tuple([records[occ] for occ in occurrences])
    grids = {} if grids is None else grids
    return _Fiber(
        occurrences,
        None if positions == sorted(positions) else itemgetter(*positions),
        _canonical_plan([records[occ] for occ in reversed(fiber)]),
        grids.get(key) or grids.setdefault(key, _choices(key)),
    )


def _fiber_members(fib: _Fiber, choices: List[Choice], engine: Engine) -> List[Choice]:
    """The choices on a fiber that are nonvanishing."""
    decide = engine._decide_unchecked
    plans = (fib.plan,)
    pick = fib.pick
    if pick is None:
        return [c for c in choices if decide((c[3],), False, plans).nonvanishing]
    return [c for c in choices if decide((pick(c[3]),), False, plans).nonvanishing]


def _reachable(k: int, n: int) -> Tuple[int, ...]:
    """The sign products kept for products over fibers 0..k of ``n``: both
    while a later fiber can complete either to +1, only +1 after the last."""
    return (1,) if k == n - 1 else (1, -1)


def _plan(
    psi: Parameter, order: Optional[AdmissibleOrder], engine: Optional[Engine]
) -> Tuple[List[_Fiber], List[Dict[int, List[Member]]], Dict[int, int]]:
    """The fibers, their members split by sign, and the member products'
    count per sign.

    A choice is decided only when members of the earlier fibers and choices
    of the later ones can complete its sign to +1.  Every block offers both
    signs, so every fiber does, and only the last fiber is restricted: to
    the signs that the earlier member products reach (for one fiber, +1).
    Every choice is decided in turn by the one engine, ``engine`` or a fresh
    one.
    """
    if order is None:
        order = natural_order(psi)
    if not is_admissible(order, psi):
        raise DataError("order is not admissible")
    engine = engine or Engine()
    if engine._grids_of is not psi:
        engine._grids_of, engine._grids = psi, {}
    fibers = [_fiber(psi, fiber, engine._grids) for fiber in order.fibers()]
    lists: List[Dict[int, List[Member]]] = []
    counts = {1: 1, -1: 0}
    for k, fib in enumerate(fibers):
        reach = _reachable(k, len(fibers))
        wanted = {s * u for s, n in counts.items() if n for u in reach}
        choices = [c for c in fib.choices if c[0] in wanted]
        by_sign: Dict[int, List[Member]] = {1: [], -1: []}
        for t, m, e, _ in _fiber_members(fib, choices, engine):
            by_sign[t].append((m, e))
        lists.append(by_sign)
        counts = {
            u: counts[1] * len(by_sign[u]) + counts[-1] * len(by_sign[-u]) for u in (1, -1)
        }
    return fibers, lists, counts


def enumerate_packet(
    psi: Parameter,
    order: Optional[AdmissibleOrder] = None,
    jobs: int = 1,
    engine: Optional[Engine] = None,
) -> List[SignedData]:
    """The packet's members, sorted by (l, eta).

    ``jobs`` is accepted and ignored: the plan is serial.  It stays only
    because ``perfbench/run.py`` still passes ``jobs=2``.
    """
    fibers, lists, _ = _plan(psi, order, engine)
    # rows[u]: (l, eta) over the fibers so far, concatenated, with sign product u.
    rows = {1: [((), ())], -1: []}
    for k, by_sign in enumerate(lists):
        rows = {
            u: [
                (l + m, eta + e)
                for s, part in rows.items()
                for l, eta in part
                for m, e in by_sign[s * u]
            ]
            for u in _reachable(k, len(lists))
        }
    members = rows[1]
    concatenated = [occ for fib in fibers for occ in fib.occurrences]
    if concatenated != list(range(len(concatenated))):
        # The fibers interleave; slots[i]: where occurrence i sits in the
        # concatenated data.
        slots = sorted(range(len(concatenated)), key=concatenated.__getitem__)
        members = [
            (tuple(map(l.__getitem__, slots)), tuple(map(eta.__getitem__, slots)))
            for l, eta in members
        ]
    members.sort()
    return list(starmap(SignedData._derived, members))


def packet_size(
    psi: Parameter,
    order: Optional[AdmissibleOrder] = None,
    engine: Optional[Engine] = None,
) -> int:
    return _plan(psi, order, engine)[2][1]
