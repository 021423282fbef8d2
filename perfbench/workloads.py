"""The four benchmark workloads.

A workload is built from the library handle and the seed (that is the
measured set-up), and then offers one round of operations.  ``run`` is the
timed user-level work of one operation, ``grid`` the number of (l, eta) grid
points it covers (counted from the inputs alone), and ``violations`` checks
its output outside the timed region.  Every call into the library goes
through a module attribute at call time, so the traced run can wrap it.
"""

from __future__ import annotations

import importlib
import pkgutil
import random
from typing import Any, Callable, Dict, List, Sequence, Tuple

import checks


def find_helper(lib, name: str) -> Any:
    """A name the package defines, wherever it lives (e.g. the oracle-compare
    helpers and the built-in examples, which sit in the command-line module
    today)."""
    if hasattr(lib.pkg, name):
        return getattr(lib.pkg, name)
    for info in pkgutil.iter_modules(lib.pkg.__path__):
        module = importlib.import_module(f"{lib.pkg.__name__}.{info.name}")
        if hasattr(module, name):
            return getattr(module, name)
    raise LookupError(f"the package defines no {name!r}")


def quantile_picks(items: Sequence, key: Callable, count: int, accept: Callable = lambda x: x) -> List:
    """``count`` picks at evenly spaced quantiles of ``key`` (the middle of
    each of ``count`` equal strata), so samples from different pools share
    one size profile.  At each quantile the first item at or above it that
    ``accept`` turns into a pick (not None) is taken."""
    ordered = sorted(range(len(items)), key=lambda i: (key(items[i]), i))
    step = len(items) / count
    picks: List = []
    rank = 0
    for k in range(count):
        rank = max(rank, int((k + 0.5) * step))
        while True:
            pick = accept(items[ordered[rank]])
            rank += 1
            if pick is not None:
                break
        picks.append(pick)
    return picks


class Golden:
    """``enumerate_packet`` of the paper's example with a fresh engine.

    The input is the command-line tool's built-in ``moeglin-s8`` parameter in
    its natural order; it does not depend on the seed."""

    name = "golden"
    EXAMPLE = "moeglin-s8"
    SIZE = 1651

    def __init__(self, lib, seed: int):
        self.lib = lib
        example = find_helper(lib, "_EXAMPLES")[self.EXAMPLE]
        self.psi, _ = lib.core.parameter_from_json(example)
        self.order = lib.core.natural_order(self.psi)
        self.ds = [checks.block_d(b) for b in self.psi.blocks]
        self.ops = [0]
        self._reference = None

    def run(self, op):
        lib = self.lib
        return lib.packets.enumerate_packet(self.psi, self.order, engine=lib.engine.Engine())

    def grid(self, op) -> int:
        return checks.grid_size(self.ds)

    def violations(self, op, out) -> List[str]:
        if self._reference is None:
            self._reference = checks.oracle_members(self.lib.oracle, self.psi.blocks)
        return checks.golden_violations(
            self._reference, self.SIZE, [(d.l, d.eta) for d in out]
        )


def random_blocks(rng: random.Random) -> List[Tuple[int, int, int, int]]:
    """The acceptance-criterion-5 generator, as (fiber, tA, tB, zeta) with
    doubled coordinates: 1-2 fibers of 2-4 blocks, each fiber on the
    integral or the half-integral lattice."""
    blocks = []
    for f in range(rng.randint(1, 2)):
        half = rng.choice((0, 1))
        for _ in range(rng.randint(2, 4)):
            tB = 2 * rng.randint(0, 3) + half
            tA = tB + 2 * rng.randint(0, 4)
            blocks.append((f, tA, tB, rng.choice((1, -1))))
    return blocks


class Multifiber:
    """One parameter enumerated under three admissible orders with one
    engine, and packet 0 transported to order 1 with ``reorder``.

    The round is ROUND parameters taken at evenly spaced quantiles of (fiber
    count, grid size) among POOL generated ones with at most GRID_CAP grid
    points (so no single parameter dominates), keeping those with at least
    three admissible orders.  The parameters are drawn with a fixed generator
    seed: near the median, operation time is not predicted by grid size, so a
    per-seed draw moved the median operation time by up to 17 % between
    seeds.  The seed picks each parameter's three orders and the order of
    the round."""

    name = "multifiber"
    GENERATOR_SEED = 99  # the seed acceptance criterion 5 draws its parameters with
    POOL = 2000
    ROUND = 100
    GRID_CAP = 4000

    def __init__(self, lib, seed: int):
        self.lib = lib
        draw = random.Random(self.GENERATOR_SEED)
        pool = []
        while len(pool) < self.POOL:
            blocks = random_blocks(draw)
            ds = [(tA - tB) // 2 for _, tA, tB, _ in blocks]
            size = checks.grid_size(ds)
            if size <= self.GRID_CAP:
                pool.append((size, blocks, ds))
        rng = random.Random(seed)
        # Sorting by fiber count first keeps the share of two-fiber
        # parameters, which take most of the time, fixed along the quantiles.
        self.ops = quantile_picks(
            pool, lambda p: (p[1][-1][0], p[0]), self.ROUND, lambda p: self.make_op(*p, rng)
        )
        rng.shuffle(self.ops)

    def make_op(self, size, blocks, ds, rng):
        """The operation for one generated parameter, or None when it has
        fewer than three admissible orders."""
        core, HalfInt = self.lib.core, self.lib.halfint.HalfInt
        rhos = [core.RhoLabel(f"r{f}", "orthogonal", 1) for f in range(2)]
        psi = core.Parameter(
            tuple(core.JordanBlock(rhos[f], HalfInt(tA), HalfInt(tB), z) for f, tA, tB, z in blocks)
        )
        orders = core.all_admissible_orders(psi, limit=50)
        if len(orders) < 3:
            return None
        rng.shuffle(orders)
        fibers = [[i for i, b in enumerate(blocks) if b[0] == f] for f in range(2)]
        return {"psi": psi, "orders": orders[:3], "ds": ds, "size": size, "fibers": [f for f in fibers if f]}

    def run(self, op):
        lib = self.lib
        psi, orders = op["psi"], op["orders"]
        engine = lib.engine.Engine()
        packs = [lib.packets.enumerate_packet(psi, o, engine=engine) for o in orders]
        image = [lib.transforms.reorder(psi, orders[0], orders[1], d) for d in packs[0]]
        return packs, image

    def grid(self, op) -> int:
        return 3 * op["size"]

    def violations(self, op, out) -> List[str]:
        packs, image = out
        return checks.multifiber_violations(
            op["ds"],
            op["fibers"],
            [[(d.l, d.eta) for d in p] for p in packs],
            [(d.l, d.eta) for d in image],
        )


class DeepChain:
    """Cold ``Engine.decide`` calls, with full validation, on single-fiber
    staircases A = i + 3, B = i with alternating zeta.

    A round is one long vanishing chain (l = 1 everywhere, about n steps,
    each O(n^2)) and one medium nonvanishing chain (l = 2 everywhere,
    thousands of memoised steps); eta is +1 throughout.  The two sizes are
    chosen to take about the same time, so the median operation time sits in
    one cluster instead of jumping between chains of different lengths.
    Both stay below the Python stack overflow (about 494 steps) and the
    10 000-step budget.  The seed picks the zeta of block 0 and, for the
    check, which adjacent pair the second order swaps."""

    name = "deep_chain"
    VANISHING = 180  # block count, even so that l = 1 is quasisplit
    NONVANISHING = 28

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(seed)
        phase = rng.choice((1, -1))
        self.ops = []
        for l, n in ((1, self.VANISHING), (2, self.NONVANISHING)):
            psi = self.staircase(lib, n, phase)
            order = lib.core.natural_order(psi)
            data = lib.core.SignedData((l,) * n, (1,) * n)
            # Second admissible order: swap one adjacent (opposite-zeta) pair.
            fiber = list(order.per_rho[0])
            j = rng.randrange(n - 1)
            fiber[j], fiber[j + 1] = fiber[j + 1], fiber[j]
            second = lib.core.AdmissibleOrder((tuple(fiber),))
            self.ops.append({"psi": psi, "order": order, "data": data, "second": second})
        self._reference: Dict[int, bool] = {}

    @staticmethod
    def staircase(lib, n: int, phase: int):
        rho = lib.core.RhoLabel("r", "orthogonal", 1)
        hi = lib.halfint.hi
        return lib.core.Parameter(
            tuple(
                lib.core.JordanBlock(rho, hi(i + 3), hi(i), phase if i % 2 == 0 else -phase)
                for i in range(n)
            )
        )

    def run(self, op):
        return self.lib.engine.Engine().decide(op["psi"], op["order"], op["data"]).nonvanishing

    def grid(self, op) -> int:
        return 1

    def violations(self, op, out) -> List[str]:
        key = id(op)
        if key not in self._reference:
            lib = self.lib
            moved = lib.transforms.reorder(op["psi"], op["order"], op["second"], op["data"])
            self._reference[key] = lib.engine.Engine().decide(
                op["psi"], op["second"], moved
            ).nonvanishing
        return checks.verdict_violations(self._reference[key], out)


class OracleCompare:
    """One full oracle-compare pass over SHAPES three-block shapes
    (max_a MAX_A) with one engine shared across the shapes, as the CLI runs it.

    The shapes sit at evenly spaced grid-size quantiles of POOL shapes from
    the CLI's generator, so every seed's pass has the same size profile."""

    name = "oracle_compare"
    SHAPES = 210
    POOL = 21000
    MAX_A = 12

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.compare = find_helper(lib, "compare_three_block")
        generate = find_helper(lib, "random_three_block_shapes")
        self.shapes = quantile_picks(generate(self.POOL, self.MAX_A, seed), self.shape_grid, self.SHAPES)
        random.Random(seed).shuffle(self.shapes)
        self.points = sum(self.shape_grid(s) for s in self.shapes)
        self.ops = [0]

    @staticmethod
    def shape_grid(shape) -> int:
        A1, B1, A2, B2, A3, B3 = shape
        size = 1
        for A, B in ((A1, B1), (A2, B2), (A3, B3)):
            size *= 2 * ((A - B + 1) // 2 + 1)
        return size

    def run(self, op):
        engine = self.lib.engine.Engine()
        mismatches: List[Any] = []
        for shape in self.shapes:
            mismatches.extend(self.compare(*shape, engine=engine))
        return mismatches

    def grid(self, op) -> int:
        return self.points

    def violations(self, op, out) -> List[str]:
        return checks.mismatch_violations(out)


WORKLOADS = {w.name: w for w in (Golden, Multifiber, DeepChain, OracleCompare)}
