"""Per-layer tracing for the traced run, installed only when asked for.

The tracer replaces, for the duration of the traced phase, the names one
module of the library looks up in another (``engine.s_plus_pair``,
``packets.candidates``, ``ReductionStep.make`` ...) with timing or counting
wrappers, and puts the originals back afterwards.  Nothing in ``src/`` is
edited and the gated runs never import this module.

A span is one wrapped call: its name, the span that caused it, its duration
and its self time (duration minus the time of the spans it caused).  Spans
are aggregated per operation and per (caller, callee) edge as they close, so
memory stays bounded on runs of millions of calls; the per-operation records
stay in memory and are written out when the run ends.  Where a wrapped name
no longer exists (after a refactor), the metrics that need it come back as
None; the run goes on, and ``run.py`` names them as missing.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.stack: List[list] = [["op", 0.0]]
        self.layers: Dict[Tuple[str, str], list] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        self.engines: list = []
        self.records: List[dict] = []
        self.found: Dict[str, List[str]] = {}
        self.absent: List[str] = []
        self._patches: list = []
        self._op_start = 0.0
        self.memo_absent = False

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        perf = time.perf_counter
        stack = self.stack
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                parent[1] += elapsed
                key = (parent[0], name)
                rec = tracer.layers.get(key)
                if rec is None:
                    rec = tracer.layers[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if hook is not None:
                hook(args, result)
            return result

        return span

    def _count(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        stack = self.stack
        tracer = self

        def count(*args, **kwargs):
            result = fn(*args, **kwargs)
            key = (stack[-1][0], name)
            rec = tracer.layers.get(key)
            if rec is None:
                rec = tracer.layers[key] = [0, 0.0, 0.0]
            rec[0] += 1
            if hook is not None:
                hook(args, result)
            return result

        return count

    def _patch(self, name: str, where: str, owner, attr: str, mode: str, hook=None) -> None:
        label = f"{where}.{attr}"
        if owner is None or not hasattr(owner, attr):
            self.absent.append(label)
            return
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = (self._span if mode == "span" else self._count)(name, fn, hook)
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        self._patches.append((owner, attr, raw))
        self.found.setdefault(name, []).append(label)

    # -- hooks -------------------------------------------------------------

    def _on_engine(self, args, _result) -> None:
        engine = args[0]
        if isinstance(getattr(engine, "_memo", None), dict):
            self.engines.append(engine)
        else:
            self.memo_absent = True

    def _on_step(self, args, _result) -> None:
        self.counts["step." + args[0]] += 1

    def _on_quasisplit(self, _args, result) -> None:
        if result:
            self.counts["quasisplit_pass"] += 1

    def _on_grid(self, _args, result) -> None:
        self.counts["grid_points"] += len(result)

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        lib = self.lib
        core, engine, transforms = lib.core, lib.engine, lib.transforms
        Engine = getattr(engine, "Engine", None)
        ReductionStep = getattr(lib.reductions, "ReductionStep", None)
        # Other modules (the oracle-compare helpers) bind the oracle in their own namespace.
        prefix = lib.pkg.__name__ + "."
        oracle_users = [
            m
            for name, m in list(sys.modules.items())
            if name.startswith(prefix) and m is not lib.oracle and hasattr(m, "oracle_three_block")
        ]
        p = self._patch
        p("core.fibers", "core.Parameter", getattr(core, "Parameter", None), "fibers", "span")
        p("core.check_bounds", "core.SignedData", getattr(core, "SignedData", None), "check_bounds", "span")
        for mod in ("packets", "engine", "transforms"):
            p("core.is_admissible", mod, getattr(lib, mod), "is_admissible", "span")
        for mod in ("characters", "packets", "engine"):
            p("characters.quasisplit_ok", mod, getattr(lib, mod), "quasisplit_ok", "span", self._on_quasisplit)
        p("packets.candidates", "packets", lib.packets, "candidates", "span", self._on_grid)
        p("engine.decide", "engine.Engine", Engine, "_decide_unchecked", "span")
        p("engine.init", "engine.Engine", Engine, "__init__", "count", self._on_engine)
        p("engine.basic_ok", "engine", engine, "basic_ok", "count")
        p("engine.step", "reductions.ReductionStep", ReductionStep, "make", "count", self._on_step)
        for mod in ("engine", "transforms"):
            for attr in ("u_pair", "s_plus_pair", "s_minus_pair"):
                p("transforms.swap", mod, getattr(lib, mod), attr, "span")
        p("transforms.reorder", "transforms", transforms, "reorder", "span")
        p("reductions.threshold", "engine", engine, "far_from_set_threshold_twice", "span")
        p("reductions.measure", "reductions", lib.reductions, "measure", "count")
        p("oracle.verdict", "oracle", lib.oracle, "oracle_three_block", "span")
        for mod in oracle_users:
            p("oracle.verdict", mod.__name__[len(prefix):], mod, "oracle_three_block", "span")

    def remove(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- per-operation records ---------------------------------------------

    def begin_op(self) -> None:
        self.stack[:] = [["op", 0.0]]
        self.layers = {}
        self.counts = defaultdict(int)
        self.engines = []
        self._op_start = time.perf_counter()

    def end_op(self, op_id: int, round_no: int, run_start: float) -> None:
        end = time.perf_counter()
        memo_sizes = [len(e._memo) for e in self.engines]
        self.records.append(
            {
                "op": op_id,
                "round": round_no,
                "start_s": self._op_start - run_start,
                "duration_s": end - self._op_start,
                "spans": [[c, n, *v] for (c, n), v in self.layers.items()],
                "counts": dict(self.counts),
                "memo_entries": max(memo_sizes, default=0),
            }
        )
        self.engines = []

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> Dict[str, Optional[float]]:
        """Per-layer totals over the traced operations; None marks a metric
        whose wrapped name is gone.  A layer with no calls reads 0."""
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        memo_max = 0
        for rec in self.records:
            for caller, name, n, tot, own in rec["spans"]:
                calls[name] += n
                self_s[name] += own
                if caller != name:
                    total[name] += tot
            for k, v in rec["counts"].items():
                counts[k] += v
            memo_max = max(memo_max, rec["memo_entries"])

        def need(*names):
            return all(n in self.found for n in names)

        def ratio(a, b):
            return a / b if b else 0.0

        steps = lambda *kinds: sum(counts["step." + k] for k in kinds)
        memo_ok = need("engine.init") and not self.memo_absent
        table = {
            "core.fibers_calls": (need("core.fibers"), calls["core.fibers"]),
            "core.check_bounds_calls": (need("core.check_bounds"), calls["core.check_bounds"]),
            "core.validate_s": (
                need("core.check_bounds", "core.is_admissible"),
                self_s["core.check_bounds"] + self_s["core.is_admissible"],
            ),
            "characters.quasisplit_calls": (need("characters.quasisplit_ok"), calls["characters.quasisplit_ok"]),
            "characters.quasisplit_pass_ratio": (
                need("characters.quasisplit_ok"),
                ratio(counts["quasisplit_pass"], calls["characters.quasisplit_ok"]),
            ),
            "characters.quasisplit_s": (need("characters.quasisplit_ok"), self_s["characters.quasisplit_ok"]),
            "packets.grid_points": (need("packets.candidates"), counts["grid_points"]),
            "packets.grid_s": (need("packets.candidates"), self_s["packets.candidates"]),
            "engine.calls": (need("engine.decide"), calls["engine.decide"]),
            "engine.self_s": (need("engine.decide"), self_s["engine.decide"]),
            "engine.us_per_call": (
                need("engine.decide"),
                ratio(1e6 * total["engine.decide"], calls["engine.decide"]),
            ),
            "engine.memo_entries": (memo_ok, memo_max),
            "engine.steps": (need("engine.step"), calls["engine.step"]),
            "engine.steps.pull_unequal": (need("engine.step"), steps("PullUnequal")),
            "engine.steps.pull_equal": (need("engine.step"), steps("PullEqual")),
            "engine.steps.expand": (need("engine.step"), steps("Expand")),
            "engine.steps.change_sign": (
                need("engine.step"),
                steps("ChangeSignIntegral", "ChangeSignHalf"),
            ),
            "engine.basic_ok_calls": (need("engine.basic_ok"), calls["engine.basic_ok"]),
            "transforms.swap_calls": (need("transforms.swap"), calls["transforms.swap"]),
            "transforms.swap_s": (need("transforms.swap"), self_s["transforms.swap"]),
            "transforms.reorder_s": (need("transforms.reorder"), total["transforms.reorder"]),
            "reductions.threshold_calls": (need("reductions.threshold"), calls["reductions.threshold"]),
            "reductions.threshold_s": (need("reductions.threshold"), self_s["reductions.threshold"]),
            "reductions.measure_calls": (need("reductions.measure"), calls["reductions.measure"]),
            "oracle.calls": (need("oracle.verdict"), calls["oracle.verdict"]),
            "oracle.s": (need("oracle.verdict"), self_s["oracle.verdict"]),
        }
        return {k: (v if ok else None) for k, (ok, v) in table.items()}
