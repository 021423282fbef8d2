"""Command-line front end.

Exit codes: 0 success, 1 comparison mismatch, 2 parse error, 3 invalid data,
4 the ``--recursion-limit`` step budget exceeded, 5 internal error (an
``InvariantError``, or any other unexpected exception), 141 stdout closed by
its reader (128 + SIGPIPE, silently).  Commands raise library
exceptions; ``main`` maps them to codes through the one table ``_EXIT_CODES``.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Optional

import click
from click.core import ParameterSource

from .core import (
    AdmissibleOrder,
    DataError,
    InvariantError,
    Parameter,
    ParameterError,
    SignedData,
    all_admissible_orders,
    is_admissible,
    natural_order,
    parameter_from_json,
    parameter_to_json,
)
from .crosscheck import compare_three_block, random_three_block_shapes, three_block_shape
from .engine import Engine, RecursionLimitError
from .oracle import count_three_block_classes
from .packets import enumerate_packet, packet_size
from .transforms import reorder as reorder_data

EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_RECURSION = 4
EXIT_INTERNAL = 5
EXIT_PIPE = 141

# The most orders ``size --all-orders`` checks; a parameter with more exits 2.
MAX_ALL_ORDERS = 500

# Library failures escaping a command, most specific first: (type, code,
# message).  Click's own exceptions and sys.exit pass through untouched.
_EXIT_CODES = (
    (RecursionLimitError, EXIT_RECURSION, str),
    (ParameterError, EXIT_PARSE, str),
    (DataError, EXIT_INVALID, str),
    (InvariantError, EXIT_INTERNAL, lambda exc: f"invariant: {exc}"),
    (Exception, EXIT_INTERNAL, lambda exc: f"internal: {type(exc).__name__}: {exc}"),
)

_EXAMPLES = {
    "moeglin-s8": {
        "group": "Sp-even",
        "blocks": [
            {"rho": "r1", "parity": "orthogonal", "dim": 1, "A": 40, "B": 10, "zeta": 1},
            {"rho": "r1", "parity": "orthogonal", "dim": 1, "A": 37, "B": 7, "zeta": -1},
            {"rho": "r1", "parity": "orthogonal", "dim": 1, "A": 8, "B": 4, "zeta": 1},
        ],
    },
}


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_parameter(file_: Optional[str], example: Optional[str]):
    if (file_ is None) == (example is None):
        _fail(EXIT_PARSE, "provide exactly one of --file or --example")
    if example is not None:
        obj = _EXAMPLES.get(example)
        if obj is None:
            _fail(EXIT_PARSE, f"unknown example {example!r}")
    else:
        try:
            with open(file_, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            _fail(EXIT_PARSE, f"cannot read parameter file: {exc}")
    return parameter_from_json(obj)


def _reject_ignored(names, path: str) -> None:
    """Exit 2 when an option that ``path`` ignores was given explicitly."""
    ctx = click.get_current_context()
    given = [
        param.opts[0]
        for param in ctx.command.params
        if param.name in names
        and ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT
    ]
    if given:
        _fail(EXIT_PARSE, f"{path} does not use {' or '.join(given)}")


def _int(text: str) -> int:
    """Only ``[+-]?[0-9]+``: ``int`` alone also reads ``1_0`` and non-ASCII digits."""
    if re.fullmatch(r"[+-]?[0-9]+", text.strip(" ")) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _parse_order(text: str, psi: Parameter) -> AdmissibleOrder:
    try:
        fibers = [tuple(map(_int, part.split(","))) for part in text.split(";")]
        order = AdmissibleOrder(tuple(fibers))
    except ValueError as exc:
        _fail(EXIT_PARSE, f"malformed order {text!r}: {exc}")
    if not is_admissible(order, psi):
        _fail(EXIT_INVALID, f"order {text!r} is not admissible")
    return order


def _parse_data(l_text: str, eta_text: str) -> SignedData:
    try:
        l = tuple(map(_int, l_text.split(",")))
        eta = tuple(map(_int, eta_text.split(",")))
    except (ValueError, AttributeError):
        _fail(EXIT_PARSE, "--l and --eta must be comma-separated integers")
    return SignedData(l, eta)


def _pick_order(order_text: Optional[str], declared, psi) -> AdmissibleOrder:
    if order_text is not None:
        return _parse_order(order_text, psi)
    if declared is not None:
        return declared
    return natural_order(psi)


def _step_json(step) -> dict:
    return {
        "kind": step.kind,
        "measure_before": list(step.measure_before),
        "measure_after": [list(m) for m in step.measure_after],
    }


class _ExitCodeGroup(click.Group):
    """A command group that turns a command's exception into its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except BrokenPipeError:
            # The reader closed stdout.  Point it at devnull so that the
            # flush at exit cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(EXIT_PIPE)
        except Exception as exc:
            for kind, code, message in _EXIT_CODES:
                if isinstance(exc, kind):
                    _fail(code, message(exc))


@click.group(cls=_ExitCodeGroup)
def main():
    """Exact nonvanishing decisions and packet enumeration."""


@main.command("decide")
@click.option("--file", "file_", type=click.Path(), default=None)
@click.option("--example", default=None)
@click.option("--order", "order_text", default=None)
@click.option("--l", "l_text", required=True)
@click.option("--eta", "eta_text", required=True)
@click.option("--trace", is_flag=True, default=False)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
@click.option("--recursion-limit", default=10000, type=click.IntRange(min=0))
def cmd_decide(file_, example, order_text, l_text, eta_text, trace, fmt, recursion_limit):
    psi, declared = _load_parameter(file_, example)
    order = _pick_order(order_text, declared, psi)
    data = _parse_data(l_text, eta_text)
    engine = Engine(recursion_limit=recursion_limit)
    verdict = engine.decide(psi, order, data, collect_trace=trace)
    if fmt == "json":
        out = {"nonvanishing": verdict.nonvanishing}
        if trace:
            out["trace"] = [_step_json(s) for s in verdict.trace]
        click.echo(json.dumps(out))
    else:
        click.echo("NONVANISHING" if verdict.nonvanishing else "VANISHING")
        if trace:
            for step in verdict.trace:
                click.echo(
                    f"  {step.kind}: {step.measure_before} -> "
                    f"{list(step.measure_after)}"
                )


@main.command("size")
@click.option("--file", "file_", type=click.Path(), default=None)
@click.option("--example", default=None)
@click.option("--order", "order_text", default=None)
@click.option("--all-orders", is_flag=True, default=False)
@click.option("--oracle", "use_oracle", is_flag=True, default=False)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
@click.option("--recursion-limit", default=10000, type=click.IntRange(min=0))
def cmd_size(file_, example, order_text, all_orders, use_oracle, fmt, recursion_limit):
    if (order_text is not None) + all_orders + use_oracle > 1:
        _fail(EXIT_PARSE, "use at most one of --order, --all-orders and --oracle")
    if use_oracle:
        _reject_ignored(("recursion_limit",), "--oracle")
    psi, declared = _load_parameter(file_, example)
    if use_oracle:
        count = count_three_block_classes(*three_block_shape(psi))
        counts = {"oracle": count}
    elif all_orders:
        orders = all_admissible_orders(psi, limit=MAX_ALL_ORDERS + 1)
        if len(orders) > MAX_ALL_ORDERS:
            _fail(
                EXIT_PARSE,
                f"--all-orders checks at most {MAX_ALL_ORDERS} orders; this parameter has more",
            )
        counts = {}
        for i, order in enumerate(orders):
            counts[f"order-{i}"] = packet_size(psi, order, engine=Engine(recursion_limit))
        values = set(counts.values())
        if len(values) > 1:
            _fail(EXIT_MISMATCH, f"packet size differs across orders: {counts}")
        count = counts[next(iter(counts))]
    else:
        order = _pick_order(order_text, declared, psi)
        count = packet_size(psi, order, engine=Engine(recursion_limit))
        counts = {"size": count}
    if fmt == "json":
        click.echo(json.dumps({"packet_size": count, "counts": counts}))
    else:
        if all_orders:
            for name, value in counts.items():
                click.echo(f"{name}: {value}")
        click.echo(str(count))


@main.command("enumerate")
@click.option("--file", "file_", type=click.Path(), default=None)
@click.option("--example", default=None)
@click.option("--order", "order_text", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
@click.option("--recursion-limit", default=10000, type=click.IntRange(min=0))
def cmd_enumerate(file_, example, order_text, fmt, recursion_limit):
    psi, declared = _load_parameter(file_, example)
    order = _pick_order(order_text, declared, psi)
    members = enumerate_packet(psi, order, engine=Engine(recursion_limit))
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "parameter": parameter_to_json(psi, order),
                    "members": [
                        {"l": list(d.l), "eta": list(d.eta)} for d in members
                    ],
                }
            )
        )
    else:
        for d in members:
            click.echo(
                "l=" + ",".join(map(str, d.l)) + " eta=" + ",".join(map(str, d.eta))
            )
        click.echo(f"total: {len(members)}")


@main.command("reorder")
@click.option("--file", "file_", type=click.Path(), default=None)
@click.option("--example", default=None)
@click.option("--from-order", "from_text", default=None)
@click.option("--to-order", "to_text", default=None)
@click.option("--l", "l_text", required=True)
@click.option("--eta", "eta_text", required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
def cmd_reorder(file_, example, from_text, to_text, l_text, eta_text, fmt):
    psi, declared = _load_parameter(file_, example)
    from_order = _pick_order(from_text, declared, psi)
    to_order = (
        _parse_order(to_text, psi) if to_text is not None else natural_order(psi)
    )
    data = _parse_data(l_text, eta_text)
    out = reorder_data(psi, from_order, to_order, data)
    if fmt == "json":
        click.echo(json.dumps({"l": list(out.l), "eta": list(out.eta)}))
    else:
        click.echo(
            "l=" + ",".join(map(str, out.l)) + " eta=" + ",".join(map(str, out.eta))
        )


@main.command("oracle-compare")
@click.option("--file", "file_", type=click.Path(), default=None)
@click.option("--example", default=None)
@click.option("--count", default=0, type=click.IntRange(min=0), help="Number of random instances.")
@click.option("--max-a", default=12, type=click.IntRange(min=0))
@click.option("--seed", default=20260823, type=int)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table")
def cmd_oracle_compare(file_, example, count, max_a, seed, fmt):
    if count > 0 and (file_ is not None or example is not None):
        _fail(EXIT_PARSE, "--count cannot be combined with --file or --example")
    engine = Engine()
    if count > 0:
        shapes = random_three_block_shapes(count, max_a, seed)
    else:
        _reject_ignored(("max_a", "seed"), "oracle-compare without --count")
        psi, _ = _load_parameter(file_, example)
        shapes = [three_block_shape(psi)]
    total_mismatches = 0
    first_witness = None
    for shape in shapes:
        mm = compare_three_block(*shape, engine=engine)
        if mm and first_witness is None:
            first_witness = (shape, mm[0])
        total_mismatches += len(mm)
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "instances": len(shapes),
                    "mismatches": total_mismatches,
                    "witness": repr(first_witness) if first_witness else None,
                }
            )
        )
    else:
        click.echo(f"{total_mismatches} mismatches over {len(shapes)} instances")
        if first_witness is not None:
            click.echo(f"witness: {first_witness}")
    if total_mismatches:
        sys.exit(EXIT_MISMATCH)


if __name__ == "__main__":
    main()
