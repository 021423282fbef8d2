"""Search single-fiber skeletons for a verdict that depends on where
``engine._good_shape`` stops.

A skeleton is an ascending fiber of (2A, 2B, zeta) records.  Every
canonical fiber is a point of its skeleton's canonical grid, so a variant of
the good-shape rule can be searched skeleton by skeleton: on each skeleton
where the variant answers otherwise, every grid point is decided once with
the rule and once with the variant in force throughout the walk, and the
verdicts are compared.  Two variants are searched, each a weaker stop rule:

* ``separated``: stop only on blocks each of whose 2B is above the 2A of the
  block below (no one-pair case);
* ``rewrites-only``: stop only on 0 or 1 record.

Run from the repository root::

    python tools/good_shape_search.py                        # the docstring's bound
    python tools/good_shape_search.py --blocks 2 3 --max-2a 6

Each line reports, for one bound and one variant, the skeletons searched,
those on which the variant answers otherwise, their grid points, and the
verdicts that changed.  The docstring's bound takes about half a minute.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, NamedTuple, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from arthur_packets import engine as engine_module  # noqa: E402
from arthur_packets.packets import _choices  # noqa: E402

Skeleton = Tuple[Tuple[int, int, int], ...]
# The bound stated in ``_good_shape``'s docstring: (block counts, greatest 2A
# on the integral lattice; the half-integral lattice goes one higher).
DEFAULT_BOUNDS = (((2, 3, 4), 14), ((5,), 10))


def variants() -> Dict[str, Callable]:
    return {
        "separated": lambda recs: all(up[1] > lo[0] for lo, up in zip(recs, recs[1:])),
        "rewrites-only": lambda recs: len(recs) <= 1,
    }


def skeletons(n: int, top: int) -> Iterator[Skeleton]:
    """Every ascending skeleton of ``n`` blocks with 2A <= ``top`` on the
    integral lattice and 2A <= ``top + 1`` on the half-integral one."""
    for half in (0, 1):
        intervals = [
            (tA, tB) for tA in range(half, top + half + 1, 2) for tB in range(half, tA + 1, 2)
        ]
        for combo in itertools.combinations_with_replacement(intervals, n):
            for zetas in itertools.product((1, -1), repeat=n):
                yield tuple((tA, tB, z) for (tA, tB), z in zip(combo, zetas))


class Found(NamedTuple):
    skeletons: int
    disagree: int
    points: int
    changed: int


def _decide(good: Callable, engine, fibers) -> list:
    rule = engine_module._good_shape
    engine_module._good_shape = good
    try:
        return [engine._decide_unchecked([recs]).nonvanishing for recs in fibers]
    finally:
        engine_module._good_shape = rule


def search(good: Callable, blocks: Sequence[int], top: int) -> Found:
    """Compare ``good`` with the rule on every skeleton of the bound."""
    rule = engine_module._good_shape
    ruled, varied = engine_module.Engine(), engine_module.Engine()
    total = disagree = points = changed = 0
    for n in blocks:
        for skel in skeletons(n, top):
            total += 1
            if good(skel) == rule(skel):
                continue
            disagree += 1
            fibers = [recs for _, _, _, recs in _choices(skel)]
            want = _decide(rule, ruled, fibers)
            got = _decide(good, varied, fibers)
            points += len(fibers)
            changed += sum(a != b for a, b in zip(want, got))
    return Found(total, disagree, points, changed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--blocks", type=int, nargs="+", help="block counts to search")
    parser.add_argument("--max-2a", type=int, help="greatest 2A on the integral lattice")
    args = parser.parse_args(argv)
    if (args.blocks is None) != (args.max_2a is None):
        parser.error("--blocks and --max-2a go together")
    bounds = DEFAULT_BOUNDS if args.blocks is None else ((tuple(args.blocks), args.max_2a),)
    start = time.perf_counter()
    changed = 0
    for blocks, top in bounds:
        for name, good in variants().items():
            found = search(good, blocks, top)
            changed += found.changed
            print(
                f"blocks {','.join(map(str, blocks))} 2A<={top}: {name}: "
                f"{found.skeletons} skeletons, {found.disagree} disagree, "
                f"{found.points} points, {found.changed} verdicts changed "
                f"({time.perf_counter() - start:.1f} s)",
                flush=True,
            )
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
