"""Sign-character computations on block occurrences.

Implements the endoscopic sign attached to (l, eta), the quasisplit product
constraint, the two correction characters comparing the two parametrization
normalizations, and their product used to translate between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .core import (
    AdmissibleOrder,
    DataError,
    JordanBlock,
    Parameter,
    Sign,
    SignedData,
    _is_int,
)


@dataclass(frozen=True)
class Character:
    """A sign per block occurrence of a fixed parameter."""

    values: Tuple[Sign, ...]

    def __mul__(self, other: "Character") -> "Character":
        if len(self.values) != len(other.values):
            raise DataError("character length mismatch")
        return Character(tuple(a * b for a, b in zip(self.values, other.values)))


def _eps(d: int, l: int, eta: Sign) -> Sign:
    """eta^(d+1) * (-1)^(floor((d+1)/2) + l) for a block with A - B = d."""
    flips = (d + 1) // 2 + l + (eta == -1 and d % 2 == 0)
    return -1 if flips % 2 else 1


def eps_l_eta(block: JordanBlock, l: int, eta: Sign) -> Sign:
    """eta^(A-B+1) * (-1)^(floor((A-B+1)/2) + l)."""
    if not _is_int(l):
        raise DataError(f"l must be an integer, got {l!r}")
    if not (_is_int(eta) and eta in (1, -1)):
        raise DataError(f"eta must be +1 or -1, got {eta!r}")
    if not (0 <= l <= block.l_max()):
        raise DataError(f"l={l} out of range [0, {block.l_max()}]")
    return _eps(block.d, l, eta)


def quasisplit_ok(psi: Parameter, data: SignedData) -> bool:
    """True iff the product of eps_l_eta over all block occurrences is +1."""
    data.check_bounds(psi)
    product = 1
    for (tA, tB, _), l, eta in zip(psi.records, data.l, data.eta):
        product *= _eps((tA - tB) // 2, l, eta)
    return product == 1


def _pair_counted(abz1, abz2, gt12: bool) -> bool:
    """Test one role assignment of an unordered pair against the counted-pair cases."""
    a, b, z = abz1
    a2, b2, z2 = abz2
    if a % 2 == 0 and b % 2 == 0 and a2 % 2 == 1 and b2 % 2 == 1:
        if z == -1:
            if z2 == -1:
                return gt12 and a > a2
            return a > a2
        if z == 1 and z2 == 1:
            return (a2 > a and b > b2) if gt12 else (a > a2 and b > b2)
        return False
    if a % 2 == 1 and b % 2 == 0 and a2 % 2 == 0 and b2 % 2 == 1:
        if z == -1:
            if z2 == -1:
                return gt12 and a < a2
            return (a < a2) if gt12 else (a > a2)
        if z == 1 and z2 == 1:
            return (a < a2 and b > b2) if gt12 else (a > a2 and b > b2)
        return False
    return False


def eps_MW_W(psi: Parameter, order: AdmissibleOrder) -> Character:
    """(-1)^(number of counted same-rho partners) per block occurrence."""
    rank = order.rank()
    abzs = [(blk.a, blk.b, blk.zeta) for blk in psi.blocks]
    values = []
    for i, blk in enumerate(psi.blocks):
        count = 0
        for j, other in enumerate(psi.blocks):
            if j == i or other.rho != blk.rho:
                continue
            gt_ij = rank[i] > rank[j]
            if _pair_counted(abzs[i], abzs[j], gt_ij) or _pair_counted(
                abzs[j], abzs[i], not gt_ij
            ):
                count += 1
        values.append(-1 if count % 2 else 1)
    return Character(tuple(values))


def eps_M_MW(psi: Parameter, order: AdmissibleOrder) -> Character:
    rank = order.rank()
    values = []
    for i, blk in enumerate(psi.blocks):
        a, b = blk.a, blk.b
        if (a + b) % 2 == 1:
            values.append(1)
            continue
        m = 0
        n = 0
        for j, other in enumerate(psi.blocks):
            if j == i or other.rho != blk.rho:
                continue
            if other.a % 2 == 1 and other.b % 2 == 1:
                if other.zeta == -1 and rank[j] > rank[i]:
                    m += 1
                if rank[j] < rank[i]:
                    n += 1
        if a % 2 == 0:
            values.append(1)
        elif blk.zeta == 1:
            values.append(-1 if m % 2 else 1)
        else:
            values.append(-1 if (m + n) % 2 else 1)
    return Character(tuple(values))


def translate_M_to_W(
    psi: Parameter, order: AdmissibleOrder, data: SignedData
) -> Tuple[Character, bool]:
    """Return eps_{l,eta} * eps^{MW/W} * eps^{M/MW} and whether it descends.

    The flag is True iff the product character takes a single value on every
    class of identical block occurrences (so it defines a character on the
    multiplicity-free block set); False means the translated member is zero.
    """
    data.check_bounds(psi)
    base = Character(
        tuple(
            eps_l_eta(blk, data.l[i], data.eta[i]) for i, blk in enumerate(psi.blocks)
        )
    )
    product = base * eps_MW_W(psi, order) * eps_M_MW(psi, order)
    classes: Dict[JordanBlock, Sign] = {}
    descends = True
    for i, blk in enumerate(psi.blocks):
        prev = classes.setdefault(blk, product.values[i])
        if prev != product.values[i]:
            descends = False
    return product, descends
