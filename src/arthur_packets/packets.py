"""Packet enumeration: all (l, eta) classes that are quasisplit and nonvanishing.

Candidates iterate the full l-grid with eta modulo the invisible-flip
equivalence (canonical representative: eta = +1 at every block where
l = (A - B + 1) / 2).  Each candidate is filtered by the quasisplit product
constraint and the engine verdict.  Output is sorted for determinism.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

from .characters import quasisplit_ok
from .core import AdmissibleOrder, DataError, Parameter, SignedData, is_admissible, natural_order
from .engine import Engine


def candidates(psi: Parameter) -> List[SignedData]:
    """The canonical (l, eta) grid, before the quasisplit/nonvanishing filters."""
    per_block = []
    for blk in psi.blocks:
        opts = []
        for l in range(blk.l_max() + 1):
            opts.append((l, 1))
            if not blk.eta_is_free_at(l):
                opts.append((l, -1))
        per_block.append(opts)
    out = []
    for combo in itertools.product(*per_block):
        out.append(
            SignedData(tuple(le[0] for le in combo), tuple(le[1] for le in combo))
        )
    return out


def _members(psi, order, cands, engine: Engine) -> List[SignedData]:
    """The candidates that are quasisplit and nonvanishing."""
    return [
        data
        for data in cands
        if quasisplit_ok(psi, data)
        and engine._decide_unchecked(psi, order, data).nonvanishing
    ]


def _eval_chunk(args):
    psi, order, chunk, recursion_limit = args
    return _members(psi, order, chunk, Engine(recursion_limit))


def enumerate_packet(
    psi: Parameter,
    order: Optional[AdmissibleOrder] = None,
    jobs: int = 1,
    engine: Optional[Engine] = None,
) -> List[SignedData]:
    if order is None:
        order = natural_order(psi)
    if not is_admissible(order, psi):
        raise DataError("order is not admissible")
    engine = engine or Engine()
    cands = candidates(psi)
    if jobs > 1 and len(cands) > 1:
        chunk_size = (len(cands) + jobs - 1) // jobs
        chunks = [
            (psi, order, cands[i : i + chunk_size], engine.recursion_limit)
            for i in range(0, len(cands), chunk_size)
        ]
        kept: List[SignedData] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_eval_chunk, chunks):
                kept.extend(part)
    else:
        kept = _members(psi, order, cands, engine)
    kept.sort(key=lambda d: (d.l, d.eta))
    return kept


def packet_size(
    psi: Parameter,
    order: Optional[AdmissibleOrder] = None,
    jobs: int = 1,
    engine: Optional[Engine] = None,
) -> int:
    return len(enumerate_packet(psi, order, jobs=jobs, engine=engine))
