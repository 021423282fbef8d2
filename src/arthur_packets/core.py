"""Core data types: blocks, parameters, admissible orders, packet coordinates.

A Jordan block is (rho, A, B, zeta) with A >= B >= 0, A - B a non-negative
integer, and zeta in {+1, -1}.  Equivalently (rho, a, b) with
a = A + 1 + zeta*B, b = A + 1 - zeta*B; when a = b (B = 0) zeta is an explicit
stored choice.  A parameter is a multiset of blocks; occurrences are addressed
by their position in the expanded block tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .halfint import HalfInt, hi

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
GROUP_KINDS = ("Sp-even", "SO-odd", "SO-even")

Sign = int  # +1 or -1


class ParameterError(ValueError):
    """Raised for malformed or inconsistent parameter data."""


class DataError(ValueError):
    """Raised for invalid packet coordinates or orders."""


class InvariantError(AssertionError):
    """An internal invariant of a rewrite or a transform failed: a bug, not bad input."""


def _is_int(x) -> bool:
    """A plain integer: bool is an int subclass, but not a number here."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class RhoLabel:
    """An opaque label for a self-dual supercuspidal factor, with parity and dimension."""

    id: str
    parity: str = ORTHOGONAL
    dim: int = 1

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ParameterError(f"rho must be a string, got {self.id!r}")
        if self.parity not in (ORTHOGONAL, SYMPLECTIC):
            raise ParameterError(f"bad parity {self.parity!r}")
        if not (_is_int(self.dim) and self.dim >= 1):
            raise ParameterError(f"bad dim {self.dim!r}")


@dataclass(frozen=True)
class JordanBlock:
    rho: RhoLabel
    A: HalfInt
    B: HalfInt
    zeta: Sign

    def __post_init__(self):
        object.__setattr__(self, "A", hi(self.A))
        object.__setattr__(self, "B", hi(self.B))
        if not (_is_int(self.zeta) and self.zeta in (1, -1)):
            raise ParameterError(f"zeta must be +1 or -1, got {self.zeta!r}")
        if not (self.A >= self.B >= 0):
            raise ParameterError(f"need A >= B >= 0, got A={self.A}, B={self.B}")
        if (self.A.twice - self.B.twice) % 2 != 0:
            raise ParameterError(
                f"A and B must both be integral or both half-integral, got A={self.A}, B={self.B}"
            )

    @property
    def a(self) -> int:
        return ((self.A.twice + 2) + self.zeta * self.B.twice) // 2

    @property
    def b(self) -> int:
        return ((self.A.twice + 2) - self.zeta * self.B.twice) // 2

    @property
    def d(self) -> int:
        """A - B as a plain integer."""
        return (self.A.twice - self.B.twice) // 2

    def l_max(self) -> int:
        return (self.d + 1) // 2

    def eta_is_free_at(self, l: int) -> bool:
        """True iff eta-flips at this block with the given l are invisible mod ~Sigma_0."""
        return 2 * l == self.d + 1


def block_parity(block: JordanBlock) -> str:
    """Orthogonal iff (a+b even and rho orthogonal) or (a+b odd and rho symplectic)."""
    even = (block.a + block.b) % 2 == 0
    rho_orth = block.rho.parity == ORTHOGONAL
    return ORTHOGONAL if (even == rho_orth) else SYMPLECTIC


_DUAL_PARITY = {"Sp-even": ORTHOGONAL, "SO-odd": SYMPLECTIC, "SO-even": ORTHOGONAL}


@dataclass(frozen=True)
class Parameter:
    """A multiset of Jordan blocks; ``blocks[i]`` is occurrence i."""

    blocks: Tuple[JordanBlock, ...]
    group_kind: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        # rho id -> its label and whether its blocks are half-integral
        seen: Dict[str, Tuple[RhoLabel, int]] = {}
        for blk in self.blocks:
            if not isinstance(blk, JordanBlock):
                raise ParameterError(f"not a JordanBlock: {blk!r}")
            prev, half = seen.setdefault(blk.rho.id, (blk.rho, blk.A.twice % 2))
            if prev != blk.rho:
                raise ParameterError(
                    f"rho id {blk.rho.id!r} used with conflicting parity/dim"
                )
            # One lattice per fiber, as the engine's rules assume (under a
            # group kind, the parity audit below implies it too).
            if half != blk.A.twice % 2:
                raise ParameterError(
                    f"rho {blk.rho.id!r} has both integral and half-integral blocks"
                )
        if self.group_kind is not None:
            if self.group_kind not in GROUP_KINDS:
                raise ParameterError(f"bad group kind {self.group_kind!r}")
            want = _DUAL_PARITY[self.group_kind]
            for blk in self.blocks:
                if block_parity(blk) != want:
                    raise ParameterError(
                        f"block (rho={blk.rho.id}, a={blk.a}, b={blk.b}) has parity "
                        f"{block_parity(blk)}, but {self.group_kind} requires {want}"
                    )

    # Derived data, computed once per parameter on first use (a frozen
    # dataclass keeps a cached_property in its instance dict).

    @cached_property
    def _fiber_map(self) -> Dict[RhoLabel, Tuple[int, ...]]:
        out: Dict[RhoLabel, List[int]] = {}
        for i, blk in enumerate(self.blocks):
            out.setdefault(blk.rho, []).append(i)
        return {rho: tuple(ix) for rho, ix in out.items()}

    @cached_property
    def records(self) -> Tuple[Tuple[int, int, int], ...]:
        """``(2A, 2B, zeta)`` of every occurrence."""
        return tuple((blk.A.twice, blk.B.twice, blk.zeta) for blk in self.blocks)

    @cached_property
    def l_max(self) -> Tuple[int, ...]:
        """The largest l of every occurrence."""
        return tuple(blk.l_max() for blk in self.blocks)

    @cached_property
    def _admissible(self) -> Dict["AdmissibleOrder", bool]:
        """``is_admissible`` verdicts by order; a raised DataError is not kept."""
        return {}

    @cached_property
    def _transports(self) -> Dict[Tuple["AdmissibleOrder", "AdmissibleOrder"], tuple]:
        """``reorder``'s per-fiber pair programs by (from_order, to_order)."""
        return {}

    def fibers(self) -> Dict[RhoLabel, Tuple[int, ...]]:
        return dict(self._fiber_map)

    def __len__(self):
        return len(self.blocks)


@dataclass(frozen=True)
class AdmissibleOrder:
    """Per-rho total orders; each tuple lists occurrence indices greatest
    first, and the tuples are sorted by least occurrence, as fibers are."""

    per_rho: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "per_rho", tuple(tuple(t) for t in self.per_rho))
        # Verdicts are cached by order, so 1.0 or True must not pass for 1.
        if not all(_is_int(occ) for t in self.per_rho for occ in t):
            raise DataError(f"order entries must be integers, got {self.per_rho!r}")
        # One spelling per order: an empty fiber, or the fibers in another
        # sequence, would make a second, unequal one.
        if not all(self.per_rho):
            raise DataError(f"order has an empty fiber: {self.per_rho!r}")
        object.__setattr__(self, "per_rho", tuple(sorted(self.per_rho, key=min)))
        # Orders key the per-parameter caches, so the hash is computed once.
        object.__setattr__(self, "_hash", hash(self.per_rho))

    def __hash__(self):
        return self._hash

    @cached_property
    def _rank(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for t in self.per_rho:
            n = len(t)
            for pos, occ in enumerate(t):
                out[occ] = n - pos
        return out

    def fibers(self) -> List[Tuple[int, ...]]:
        """The fiber orders by least occurrence, the order of ``Parameter.fibers``."""
        return list(self.per_rho)

    def rank(self) -> Dict[int, int]:
        """Map occurrence index -> rank within its fiber (greater block = larger rank)."""
        return dict(self._rank)


@dataclass(frozen=True)
class SignedData:
    """Packet coordinates: an integer l and a sign eta per block occurrence.

    ``_derived(l, eta)`` builds one without ``__post_init__``'s checks.  Only
    the library calls it, on tuples of plain ints that it derived from
    checked data (grid rows, pair programs), never on a caller's input.
    """

    l: Tuple[int, ...]
    eta: Tuple[Sign, ...]

    @classmethod
    def _derived(cls, l, eta, _new=object.__new__, _set=object.__setattr__):
        data = _new(cls)
        _set(data, "l", l)
        _set(data, "eta", eta)
        return data

    def __post_init__(self):
        object.__setattr__(self, "l", tuple(self.l))
        object.__setattr__(self, "eta", tuple(self.eta))
        if len(self.l) != len(self.eta):
            raise DataError("l and eta must have the same length")
        # Records are built from these, so 9.5, 1.0 or True must not pass.
        if not all(map(_is_int, self.l)):
            raise DataError(f"l entries must be integers, got {self.l!r}")
        for e in self.eta:
            if not (_is_int(e) and e in (1, -1)):
                raise DataError(f"eta entries must be +1/-1, got {e!r}")

    def check_bounds(self, psi: Parameter) -> None:
        l_max = psi.l_max
        if len(self.l) != len(l_max):
            raise DataError("data length does not match number of block occurrences")
        for i, (l, top) in enumerate(zip(self.l, l_max)):
            if not 0 <= l <= top:
                blk = psi.blocks[i]
                raise DataError(
                    f"l[{i}]={l} out of range [0, {top}] for block (A={blk.A}, B={blk.B})"
                )


def _dominates(upper, lower) -> bool:
    """Whether record ``upper`` strictly dominates ``lower`` with the same zeta."""
    return upper[2] == lower[2] and upper[0] > lower[0] and upper[1] > lower[1]


def _fiber_admissible(psi: Parameter, fiber: Sequence[int]) -> bool:
    """Condition (P) on one fiber order, listed greatest first."""
    recs = [psi.records[i] for i in fiber]
    for hi_pos, rec in enumerate(recs):
        for lower in recs[hi_pos + 1 :]:
            if _dominates(lower, rec):
                return False
    return True


def is_admissible(order: AdmissibleOrder, psi: Parameter) -> bool:
    """Condition (P): a block strictly dominating another of the same zeta is greater.

    The verdict is kept on ``psi`` by order; an order that does not match
    the occurrences raises DataError on every call.
    """
    verdict = psi._admissible.get(order)
    if verdict is None:
        verdict = psi._admissible[order] = _check_admissible(order, psi)
    return verdict


def _check_admissible(order: AdmissibleOrder, psi: Parameter) -> bool:
    covered = sorted(itertools.chain.from_iterable(order.per_rho))
    if covered != list(range(len(psi.blocks))):
        raise DataError("order does not cover the block occurrences exactly once")
    # With the cover exact, the i-th fiber by least occurrence holds the
    # least occurrence of the i-th rho, so it matches that rho or none does.
    for fiber, (rho, ix) in zip(order.per_rho, psi._fiber_map.items()):
        if sorted(fiber) != list(ix):
            raise DataError(f"order has no fiber matching rho {rho.id!r}")
        if not _fiber_admissible(psi, fiber):
            return False
    return True


def natural_order(psi: Parameter) -> AdmissibleOrder:
    """Sort each fiber by A descending, ties by B descending, then occurrence index."""
    per_rho = []
    for rho, ix in psi.fibers().items():
        key = lambda i: (-psi.blocks[i].A.twice, -psi.blocks[i].B.twice, i)
        per_rho.append(tuple(sorted(ix, key=key)))
    return AdmissibleOrder(tuple(per_rho))


def _fiber_orders(records, rest: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """The admissible orders of the occurrences ``rest``, greatest first, in
    the order of the filtered ``itertools.permutations(rest)``.

    The next block may be any one that no other same-zeta block strictly
    dominates; one always exists, so no branch dead-ends.  Once no block is
    dominated, every order is admissible.
    """
    free = [
        occ for occ in rest if not any(_dominates(records[o], records[occ]) for o in rest)
    ]
    if len(free) == len(rest):
        yield from itertools.permutations(rest)
        return
    for occ in free:
        k = rest.index(occ)
        for tail in _fiber_orders(records, rest[:k] + rest[k + 1 :]):
            yield (occ,) + tail


def all_admissible_orders(psi: Parameter, limit: Optional[int] = None) -> List[AdmissibleOrder]:
    """Every admissible order, or the first ``limit``, in the order of the
    product of the per-fiber admissible orders.

    The first ``limit`` products use only the first ``limit`` orders of each
    fiber, so no fiber is listed further.
    """
    per_fiber = [
        list(itertools.islice(_fiber_orders(psi.records, ix), limit))
        for ix in psi.fibers().values()
    ]
    return [AdmissibleOrder(combo) for combo in itertools.islice(itertools.product(*per_fiber), limit)]


# ---------------------------------------------------------------------------
# Parameter file format (JSON-shaped)
# ---------------------------------------------------------------------------

def _coordinate(value, what: str) -> HalfInt:
    try:
        return hi(value)
    except ValueError as exc:
        raise ParameterError(f"{what} must be an integer or a half-integer: {exc}") from exc


def parameter_from_json(obj: Mapping) -> Tuple[Parameter, Optional[AdmissibleOrder]]:
    if not isinstance(obj, Mapping):
        raise ParameterError("parameter file must be a JSON object")
    group = obj.get("group")
    raw_blocks = obj.get("blocks")
    if not isinstance(raw_blocks, (list, tuple)):
        raise ParameterError('missing or malformed "blocks" array')
    blocks: List[JordanBlock] = []
    for rb in raw_blocks:
        if not isinstance(rb, Mapping):
            raise ParameterError(f"bad block entry {rb!r}")
        try:
            rho = RhoLabel(
                id=rb["rho"],
                parity=rb.get("parity", ORTHOGONAL),
                dim=rb.get("dim", 1),
            )
            blk = JordanBlock(
                rho=rho,
                A=_coordinate(rb["A"], "A"),
                B=_coordinate(rb["B"], "B"),
                zeta=rb["zeta"],
            )
        except KeyError as exc:
            raise ParameterError(f"block entry missing field {exc}") from exc
        count = rb.get("count", 1)
        if not (_is_int(count) and count >= 1):
            raise ParameterError(f"bad count {count!r}")
        blocks.extend([blk] * count)
    psi = Parameter(tuple(blocks), group_kind=group)
    order = None
    raw_order = obj.get("order")
    if raw_order is not None:
        if not isinstance(raw_order, (list, tuple)):
            raise ParameterError(f"malformed order {raw_order!r}: expected a list")
        if raw_order and isinstance(raw_order[0], int):
            raw_order = [raw_order]
        if not all(isinstance(t, (list, tuple)) and all(map(_is_int, t)) for t in raw_order):
            raise ParameterError(f"malformed order {raw_order!r}: expected lists of integers")
        if not all(raw_order):
            raise ParameterError(f"malformed order {raw_order!r}: a fiber is empty")
        order = AdmissibleOrder(tuple(tuple(t) for t in raw_order))
        if not is_admissible(order, psi):
            raise DataError("declared order is not admissible")
    return psi, order


def parameter_to_json(psi: Parameter, order: Optional[AdmissibleOrder] = None) -> dict:
    blocks = []
    i = 0
    while i < len(psi.blocks):
        blk = psi.blocks[i]
        count = 1
        # Merge a run of identical occurrences back into a count only when no
        # explicit order refers to them individually.
        if order is None:
            while i + count < len(psi.blocks) and psi.blocks[i + count] == blk:
                count += 1
        blocks.append(
            {
                "rho": blk.rho.id,
                "parity": blk.rho.parity,
                "dim": blk.rho.dim,
                "A": blk.A.to_json(),
                "B": blk.B.to_json(),
                "zeta": blk.zeta,
                "count": count,
            }
        )
        i += count
    out = {"group": psi.group_kind, "blocks": blocks}
    if order is not None:
        out["order"] = [list(t) for t in order.per_rho]
    return out
