import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from arthur_packets.cli import main
from arthur_packets import cli as cli_module
from arthur_packets import crosscheck as crosscheck_module
from arthur_packets import reductions as reductions_module

runner = CliRunner()


def test_size_example_golden_count():
    res = runner.invoke(main, ["size", "--example", "moeglin-s8", "--format", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["packet_size"] == 1651


def test_size_oracle_path_matches():
    res = runner.invoke(main, ["size", "--example", "moeglin-s8", "--oracle", "--format", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["packet_size"] == 1651


def test_decide_basic_and_trace():
    res = runner.invoke(
        main,
        ["decide", "--example", "moeglin-s8", "--l", "10,10,2", "--eta", "1,1,1"],
    )
    assert res.exit_code == 0, res.output
    assert res.output.strip() == "NONVANISHING"
    res = runner.invoke(
        main,
        [
            "decide", "--example", "moeglin-s8",
            "--l", "10,10,2", "--eta", "1,1,1",
            "--trace", "--format", "json",
        ],
    )
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["nonvanishing"] is True
    steps = [(s["kind"], s["measure_before"], s["measure_after"]) for s in out["trace"]]
    assert steps == [
        ("Expand", [3, 42, 1], [[3, 30, 1]]),
        ("PullUnequal", [3, 30, 1], [[1, 14, 0], [2, 22, 1], [2, 22, 1]]),
        ("Expand", [2, 22, 1], [[2, 8, 1]]),
        ("ChangeSignIntegral", [2, 8, 1], [[2, 8, 0]]),
        ("PullUnequal", [2, 8, 0], [[0, 0, 0], [1, 8, 0], [1, 0, 0]]),
        ("Expand", [2, 22, 1], [[2, 14, 1]]),
        ("ChangeSignIntegral", [2, 14, 1], [[2, 14, 0]]),
        ("PullUnequal", [2, 14, 0], [[0, 0, 0], [1, 14, 0], [1, 0, 0]]),
    ]


def test_decide_rejects_invalid_data():
    # l out of range
    res = runner.invoke(
        main, ["decide", "--example", "moeglin-s8", "--l", "99,0,0", "--eta", "1,1,1"]
    )
    assert res.exit_code == 3
    # quasisplit violation
    res = runner.invoke(
        main, ["decide", "--example", "moeglin-s8", "--l", "0,0,0", "--eta", "1,1,-1"]
    )
    assert res.exit_code == 3


def test_parse_errors_exit_two(tmp_path):
    res = runner.invoke(main, ["decide", "--l", "0", "--eta", "1"])
    assert res.exit_code == 2  # neither --file nor --example
    res = runner.invoke(
        main, ["decide", "--example", "no-such", "--l", "0", "--eta", "1"]
    )
    assert res.exit_code == 2
    res = runner.invoke(
        main,
        ["decide", "--example", "moeglin-s8", "--l", "a,b,c", "--eta", "1,1,1"],
    )
    assert res.exit_code == 2
    res = runner.invoke(main, ["oracle-compare", "--count", "1", "--max-a", "-1"])
    assert res.exit_code == 2
    # The plan is serial; there is no process pool to size.
    for cmd in ("size", "enumerate"):
        res = runner.invoke(main, [cmd, "--example", "moeglin-s8", "--jobs", "1"])
        assert res.exit_code == 2, (cmd, res.output)
        assert "No such option '--jobs'" in res.stderr
    res = runner.invoke(
        main, ["size", "--example", "moeglin-s8", "--recursion-limit", "-1"]
    )
    assert res.exit_code == 2
    # Options that the chosen path would ignore are rejected, not dropped.
    for extra in (
        ["--oracle", "--order", "2,1,0"],
        ["--all-orders", "--order", "2,1,0"],
        ["--oracle", "--all-orders"],
    ):
        res = runner.invoke(main, ["size", "--example", "moeglin-s8"] + extra)
        assert res.exit_code == 2, (extra, res.output)
        assert res.stderr == "error: use at most one of --order, --all-orders and --oracle\n"
    res = runner.invoke(main, ["oracle-compare", "--count", "2", "--example", "moeglin-s8"])
    assert res.exit_code == 2, res.output
    assert res.stderr == "error: --count cannot be combined with --file or --example\n"
    res = runner.invoke(main, ["oracle-compare", "--count", "-3", "--example", "moeglin-s8"])
    assert res.exit_code == 2, res.output
    for args, stderr in (
        (
            ["oracle-compare", "--example", "moeglin-s8", "--max-a", "3", "--seed", "5"],
            "oracle-compare without --count does not use --max-a or --seed",
        ),
        (
            ["oracle-compare", "--count", "0", "--example", "moeglin-s8", "--seed", "5"],
            "oracle-compare without --count does not use --seed",
        ),
        (
            ["size", "--example", "moeglin-s8", "--oracle", "--recursion-limit", "10000"],
            "--oracle does not use --recursion-limit",
        ),
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
        assert res.stderr == f"error: {stderr}\n"
    # Six identical blocks have 6! = 720 admissible orders, more than
    # --all-orders checks; it refuses instead of checking only some.
    path = tmp_path / "six.json"
    path.write_text(json.dumps({"blocks": [{"rho": "r", "A": 1, "B": 1, "zeta": 1, "count": 6}]}))
    res = runner.invoke(main, ["size", "--file", str(path), "--all-orders"])
    assert res.exit_code == 2, res.output
    assert res.stderr == "error: --all-orders checks at most 500 orders; this parameter has more\n"


def test_malformed_parameter_objects_exit_two(tmp_path):
    block = {"rho": "r", "A": 1, "B": 0, "zeta": 1}
    cases = {
        "parameter file must be a JSON object": [block],
        'missing or malformed "blocks" array': {"group": None},
        "bad block entry 5": {"blocks": [5]},
        "bad parity 'unitary'": {"blocks": [dict(block, parity="unitary")]},
        "bad group kind 'GL'": {"group": "GL", "blocks": [block]},
    }
    path = tmp_path / "psi.json"
    for message, obj in cases.items():
        path.write_text(json.dumps(obj))
        res = runner.invoke(main, ["size", "--file", str(path)])
        assert (res.exit_code, res.stderr) == (2, f"error: {message}\n"), message


def test_inadmissible_order_exit_three():
    # Block 0 strictly dominates block 2 with the same zeta, so it must be greater.
    for cmd in (["decide", "--l", "0,0,0", "--eta", "-1,-1,1"], ["size"]):
        res = runner.invoke(main, cmd + ["--example", "moeglin-s8", "--order", "2,0,1"])
        assert (res.exit_code, res.stdout) == (3, ""), (cmd, res.output)
        assert res.stderr == "error: order '2,0,1' is not admissible\n"


def test_size_oracle_rejects_other_shapes_exit_three(tmp_path):
    def blocks(*specs):
        return {"blocks": [{"rho": "r", "A": A, "B": B, "zeta": z} for A, B, z in specs]}

    cases = {
        "a single fiber of three blocks": blocks((2, 1, 1), (4, 2, 1)),
        "integral coordinates": blocks(("5/2", "1/2", 1), ("7/2", "3/2", -1), ("9/2", "5/2", 1)),
        "the zeta pattern (+1, -1, +1)": blocks((2, 1, 1), (4, 2, 1), (6, 3, 1)),
        "ascending A and B chains": blocks((2, 1, 1), (4, 0, -1), (6, 3, 1)),
    }
    path = tmp_path / "psi.json"
    for need, obj in cases.items():
        path.write_text(json.dumps(obj))
        res = runner.invoke(main, ["size", "--file", str(path), "--oracle"])
        assert (res.exit_code, res.stderr) == (3, f"error: oracle path needs {need}\n"), need


def test_integer_lists_take_only_ascii_digits():
    # ``int`` would read "1_0" as 10 and "٢" (an Arabic-Indic digit) as 2.
    data = ["--l", "10,10,2", "--eta", "1,1,1"]
    for l, eta in (("1_0,10,2", "1,1,1"), ("10,10,٢", "1,1,1"), ("10,10,2", "1,1,1_"),
                   ("10,10,2", "1,1,+-1"), ("10,10,2.0", "1,1,1"), ("10,10,2", "1,1,")):
        res = runner.invoke(main, ["decide", "--example", "moeglin-s8", "--l", l, "--eta", eta])
        assert res.exit_code == 2, (l, eta, res.output)
        assert res.stderr == "error: --l and --eta must be comma-separated integers\n"
    for text in ("0,1_0,2", "0,1,٢", "0;1,٢"):
        res = runner.invoke(main, ["decide", "--example", "moeglin-s8", "--order", text] + data)
        assert res.exit_code == 2, (text, res.output)
        assert res.stderr.startswith(f"error: malformed order {text!r}: ")
    for flag in ("--from-order", "--to-order"):
        orders = {"--from-order": "0,1,2", "--to-order": "1,0,2", flag: "1,0,٢"}
        args = ["reorder", "--example", "moeglin-s8"] + [x for kv in orders.items() for x in kv]
        res = runner.invoke(main, args + data)
        assert res.exit_code == 2, (flag, res.output)
        assert res.stderr == "error: malformed order '1,0,٢': invalid literal for int() with base 10: '٢'\n"
    # Spaces around an entry and an explicit sign are still accepted.
    res = runner.invoke(
        main, ["decide", "--example", "moeglin-s8", "--order", " 0 , +1,2",
               "--l", " 10,+10 , 2", "--eta", "+1, 1,1 "]
    )
    assert (res.exit_code, res.output) == (0, "NONVANISHING\n")


def test_empty_order_entries_exit_two():
    # An empty entry or fiber is malformed, not dropped.
    data = ["--l", "10,10,2", "--eta", "1,1,1"]
    for text in ("0,,1,2", "0,1,2,", "0,1,2;;"):
        res = runner.invoke(main, ["decide", "--example", "moeglin-s8", "--order", text] + data)
        assert res.exit_code == 2, (text, res.output)
        assert res.stderr == f"error: malformed order {text!r}: invalid literal for int() with base 10: ''\n"
        for flag in ("--from-order", "--to-order"):
            orders = {"--from-order": "0,1,2", "--to-order": "0,1,2", flag: text}
            args = ["reorder", "--example", "moeglin-s8"] + [x for kv in orders.items() for x in kv]
            res = runner.invoke(main, args + data)
            assert res.exit_code == 2, (flag, text, res.output)
            assert res.stderr.startswith(f"error: malformed order {text!r}: ")


def test_fiber_on_two_lattices_exit_two(tmp_path):
    # Without a group, nothing else keeps a rho's blocks on one lattice; the
    # engine's rules assume it (this fiber used to exit 5).
    path = tmp_path / "two_lattices.json"
    path.write_text(json.dumps({"blocks": [
        {"rho": "r", "A": "7/2", "B": "5/2", "zeta": -1},
        {"rho": "r", "A": "9/2", "B": "7/2", "zeta": 1},
        {"rho": "r", "A": 8, "B": 6, "zeta": -1},
    ]}))
    res = runner.invoke(main, ["size", "--file", str(path)])
    assert res.exit_code == 2, res.output
    assert res.stderr == "error: rho 'r' has both integral and half-integral blocks\n"


def test_recursion_limit_exit_four():
    res = runner.invoke(
        main,
        [
            "decide", "--example", "moeglin-s8",
            "--l", "10,10,2", "--eta", "1,1,1",
            "--recursion-limit", "1",
        ],
    )
    assert res.exit_code == 4


def test_recursion_limit_applies_to_size():
    res = runner.invoke(main, ["size", "--example", "moeglin-s8", "--recursion-limit", "7"])
    assert res.exit_code == 4, res.output


def test_internal_error_exit_five(monkeypatch):
    # A failed engine invariant is not a verification mismatch (exit 1).
    args = ["decide", "--example", "moeglin-s8", "--l", "10,10,2", "--eta", "1,1,1"]
    with monkeypatch.context() as patch:
        # Every subproblem's measure ties its parent's.
        patch.setattr(reductions_module, "measure", lambda recs: (0, 0, 0))
        res = runner.invoke(main, args)
    assert res.exit_code == 5, res.output
    assert res.stderr.startswith("error: invariant: termination measure")
    assert res.stderr.count("\n") == 1
    # Any other unexpected exception names its type.
    def broken(recs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(reductions_module, "measure", broken)
    res = runner.invoke(main, args)
    assert res.exit_code == 5, res.output
    assert res.stderr == "error: internal: ZeroDivisionError: boom\n"


def _staircase_file(tmp_path, n):
    # A = i + 3, B = i with alternating zeta: one long single-fiber chain.
    obj = {
        "group": None,
        "blocks": [
            {"rho": "r", "A": i + 3, "B": i, "zeta": 1 if i % 2 == 0 else -1} for i in range(n)
        ],
    }
    path = tmp_path / "staircase.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_deep_staircase_needs_no_python_stack(tmp_path):
    # The engine walks its rewrites on an explicit stack: a staircase far
    # deeper than a small Python stack still ends in a verdict.
    n = 200
    ones = ",".join(["1"] * n)
    path = _staircase_file(tmp_path, n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        res = runner.invoke(main, ["decide", "--file", path, "--l", ones, "--eta", ones])
    finally:
        sys.setrecursionlimit(limit)
    assert res.exit_code == 0, res.output
    assert res.output.strip() == "VANISHING"


def test_trace_does_not_change_the_outcome(tmp_path):
    # A trace reuses the memo exactly as an untraced decision does, so on a
    # fresh engine it lists the walk's 3 865 steps and stays within the
    # default budget.
    n = 28
    path = _staircase_file(tmp_path, n)
    args = ["decide", "--file", path, "--l", ",".join(["2"] * n), "--eta", ",".join(["1"] * n)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.output.strip() == "NONVANISHING"
    res = runner.invoke(main, args + ["--trace", "--format", "json"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["nonvanishing"] is True
    assert len(out["trace"]) == 3865


def test_enumerate_sorted_and_consistent(tmp_path):
    res = runner.invoke(main, ["enumerate", "--example", "moeglin-s8", "--format", "json"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    members = [(tuple(m["l"]), tuple(m["eta"])) for m in out["members"]]
    assert len(members) == 1651
    assert members == sorted(members)
    # round trip the emitted parameter through a file
    path = tmp_path / "param.json"
    path.write_text(json.dumps(out["parameter"]))
    res2 = runner.invoke(main, ["size", "--file", str(path), "--format", "json"])
    assert res2.exit_code == 0, res2.output
    assert json.loads(res2.output)["packet_size"] == 1651


# Three blocks of one rho: (2, 0, +1), (1, 0, -1), (3, 1, +1).  Block 2
# dominates block 0, so 2 must come before 0 in an admissible order.
_THREE_BLOCKS = [
    {"rho": "r", "A": 2, "B": 0, "zeta": 1},
    {"rho": "r", "A": 1, "B": 0, "zeta": -1},
    {"rho": "r", "A": 3, "B": 1, "zeta": 1},
]


def test_empty_fiber_in_file_order_exit_two(tmp_path):
    # An empty fiber in a parameter file's order is malformed, as the same
    # order spelled on the command line is.
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"blocks": _THREE_BLOCKS}))
    res = runner.invoke(main, ["size", "--file", str(path), "--order", "2,0,1"])
    assert (res.exit_code, res.output) == (0, "8\n")
    res = runner.invoke(main, ["size", "--file", str(path), "--order", "2,0,1;"])
    assert res.exit_code == 2, res.output
    for order in ([[2, 0, 1], []], [[]]):
        path.write_text(json.dumps({"blocks": _THREE_BLOCKS, "order": order}))
        res = runner.invoke(main, ["size", "--file", str(path)])
        assert res.exit_code == 2, (order, res.output)
        assert res.stderr == f"error: malformed order {order!r}: a fiber is empty\n"


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(st.integers(-1, 3), max_size=4), min_size=1, max_size=3))
def test_file_and_command_line_orders_agree(fibers):
    # A parameter file's "order" and the same lists spelled as --order give
    # the same exit code and output, and none is an internal error.  (The
    # empty list of fibers has no --order spelling: "" reads as [[]].)
    text = ";".join(",".join(map(str, fiber)) for fiber in fibers)
    with tempfile.TemporaryDirectory() as tmp:
        plain, declared = Path(tmp, "plain.json"), Path(tmp, "declared.json")
        plain.write_text(json.dumps({"blocks": _THREE_BLOCKS}))
        declared.write_text(json.dumps({"blocks": _THREE_BLOCKS, "order": fibers}))
        from_file = runner.invoke(main, ["size", "--file", str(declared)])
        from_flag = runner.invoke(main, ["size", "--file", str(plain), "--order", text])
    assert from_file.exit_code in (0, 2, 3), (fibers, from_file.output)
    assert (from_file.exit_code, from_file.stdout) == (from_flag.exit_code, from_flag.stdout), (
        fibers, text, from_file.output, from_flag.output,
    )


def test_size_all_orders(tmp_path):
    obj = {
        "group": None,
        "blocks": [
            {"rho": "r", "A": 4, "B": 1, "zeta": 1},
            {"rho": "r", "A": 3, "B": 2, "zeta": 1},
        ],
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(obj))
    res = runner.invoke(main, ["size", "--file", str(path), "--all-orders", "--format", "json"])
    assert res.exit_code == 0, res.output
    counts = json.loads(res.output)["counts"]
    assert len(counts) == 2
    assert len(set(counts.values())) == 1


def test_reorder_round_trip(tmp_path):
    obj = {
        "group": None,
        "blocks": [
            {"rho": "r", "A": 4, "B": 1, "zeta": 1},
            {"rho": "r", "A": 3, "B": 2, "zeta": 1},
        ],
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(obj))
    res = runner.invoke(
        main,
        [
            "reorder", "--file", str(path),
            "--from-order", "0,1", "--to-order", "1,0",
            "--l", "1,1", "--eta", "1,-1",
            "--format", "json",
        ],
    )
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    res2 = runner.invoke(
        main,
        [
            "reorder", "--file", str(path),
            "--from-order", "1,0", "--to-order", "0,1",
            "--l", ",".join(map(str, out["l"])),
            "--eta", ",".join(map(str, out["eta"])),
            "--format", "json",
        ],
    )
    assert res2.exit_code == 0, res2.output
    back = json.loads(res2.output)
    assert back == {"l": [1, 1], "eta": [1, -1]}


def test_oracle_compare_random():
    res = runner.invoke(
        main, ["oracle-compare", "--count", "5", "--max-a", "6", "--format", "json"]
    )
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["instances"] == 5
    assert out["mismatches"] == 0


def test_oracle_compare_json_names_a_witness(monkeypatch):
    args = ["oracle-compare", "--count", "3", "--format", "json"]
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stdout) == (
        0, '{"instances": 3, "mismatches": 0, "witness": null}\n'
    ), res.output
    # A packet plan that loses its first member disagrees on every shape.
    members = crosscheck_module.enumerate_packet
    monkeypatch.setattr(
        crosscheck_module, "enumerate_packet", lambda *args, **kwargs: members(*args, **kwargs)[1:]
    )
    res = runner.invoke(main, args)
    assert (res.exit_code, json.loads(res.stdout)) == (
        1,
        {
            "instances": 3,
            "mismatches": 3,
            "witness": "((2, 1, 7, 1, 10, 5), ((0, 1, 0, -1, 0, -1), True, False))",
        },
    ), res.output


def test_oracle_compare_example():
    res = runner.invoke(
        main, ["oracle-compare", "--example", "moeglin-s8", "--format", "json"]
    )
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["mismatches"] == 0


def test_default_table_output():
    golden = ["--example", "moeglin-s8"]
    res = runner.invoke(main, ["enumerate"] + golden)
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert len(lines) == 1652
    assert (lines[0], lines[-1]) == ("l=0,0,0 eta=-1,-1,1", "total: 1651")
    res = runner.invoke(main, ["decide"] + golden + ["--l", "10,10,2", "--eta", "1,1,1", "--trace"])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines() == [
        "NONVANISHING",
        "  Expand: (3, 42, 1) -> [(3, 30, 1)]",
        "  PullUnequal: (3, 30, 1) -> [(1, 14, 0), (2, 22, 1), (2, 22, 1)]",
        "  Expand: (2, 22, 1) -> [(2, 8, 1)]",
        "  ChangeSignIntegral: (2, 8, 1) -> [(2, 8, 0)]",
        "  PullUnequal: (2, 8, 0) -> [(0, 0, 0), (1, 8, 0), (1, 0, 0)]",
        "  Expand: (2, 22, 1) -> [(2, 14, 1)]",
        "  ChangeSignIntegral: (2, 14, 1) -> [(2, 14, 0)]",
        "  PullUnequal: (2, 14, 0) -> [(0, 0, 0), (1, 14, 0), (1, 0, 0)]",
    ]
    res = runner.invoke(main, ["size", "--all-orders"] + golden)
    assert (res.exit_code, res.output) == (0, "order-0: 1651\norder-1: 1651\norder-2: 1651\n1651\n")
    res = runner.invoke(main, ["oracle-compare"] + golden)
    assert (res.exit_code, res.output) == (0, "0 mismatches over 1 instances\n")


def test_mismatches_exit_one(monkeypatch):
    golden = ["--example", "moeglin-s8"]
    with monkeypatch.context() as patch:
        sizes = iter([1651, 1650, 1651])
        patch.setattr(cli_module, "packet_size", lambda *args, **kwargs: next(sizes))
        res = runner.invoke(main, ["size", "--all-orders"] + golden)
    assert (res.exit_code, res.stdout) == (1, ""), res.output
    assert res.stderr == (
        "error: packet size differs across orders: "
        "{'order-0': 1651, 'order-1': 1650, 'order-2': 1651}\n"
    )
    # A packet plan that loses its first member disagrees with the oracle.
    members = crosscheck_module.enumerate_packet
    monkeypatch.setattr(
        crosscheck_module, "enumerate_packet", lambda *args, **kwargs: members(*args, **kwargs)[1:]
    )
    res = runner.invoke(main, ["oracle-compare"] + golden)
    assert (res.exit_code, res.output) == (
        1,
        "1 mismatches over 1 instances\n"
        "witness: ((8, 4, 37, 7, 40, 10), ((0, 1, 0, -1, 0, -1), True, False))\n",
    )


def test_malformed_file_exit_two(tmp_path):
    block = '{"rho": "r", "A": %s, "B": 0, "zeta": 1}'
    bad = {
        "bad.json": "{not json",
        "float_a.json": '{"blocks": [%s]}' % (block % "1.5"),
        "null_a.json": '{"blocks": [%s]}' % (block % "null"),
        "int_order.json": '{"blocks": [%s], "order": 5}' % (block % "1"),
        "dict_order.json": '{"blocks": [%s], "order": {"x": 1}}' % (block % "1"),
        # A bool is an int subclass and 1.0 == 1; neither is an integer here.
        "bool_a.json": '{"blocks": [%s]}' % (block % "true"),
        "bool_zeta.json": '{"blocks": [{"rho": "r", "A": 1, "B": 0, "zeta": true}]}',
        "float_zeta.json": '{"blocks": [{"rho": "r", "A": 1, "B": 0, "zeta": 1.0}]}',
        "bool_dim.json": '{"blocks": [{"rho": "r", "dim": true, "A": 1, "B": 0, "zeta": 1}]}',
        "bool_count.json": '{"blocks": [{"rho": "r", "count": true, "A": 1, "B": 0, "zeta": 1}]}',
        "float_order.json": (
            '{"blocks": [{"rho": "r", "count": 2, "A": 1, "B": 0, "zeta": 1}],'
            ' "order": [[0.9, "1"]]}'
        ),
        # A non-string rho is not read as its str(): null and "None" (or 1
        # and "1") would share one fiber.
        "null_rho.json": (
            '{"blocks": [{"rho": null, "A": 2, "B": 1, "zeta": 1},'
            ' {"rho": "None", "A": 4, "B": 2, "zeta": 1}]}'
        ),
        "int_rho.json": (
            '{"blocks": [{"rho": 1, "A": 2, "B": 1, "zeta": 1},'
            ' {"rho": "1", "A": 4, "B": 2, "zeta": 1}]}'
        ),
    }
    for name, text in bad.items():
        path = tmp_path / name
        path.write_text(text)
        res = runner.invoke(main, ["size", "--file", str(path)])
        assert res.exit_code == 2, (name, res.output)


def test_deeply_nested_file_exit_two(tmp_path):
    # JSON nested too deep for the decoder is malformed input, not exit 4.
    depth = 100_000
    path = tmp_path / "nested.json"
    path.write_text('{"group": null, "blocks": ' + "[" * depth + "]" * depth + "}")
    res = runner.invoke(main, ["size", "--file", str(path)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: cannot read parameter file")


def test_non_utf8_file_exit_two(tmp_path):
    # A file that is not UTF-8 (here a UTF-16 byte-order mark) is unreadable
    # input, not an internal error.
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"blocks": []}'.encode("utf-16-le"))
    res = runner.invoke(main, ["size", "--file", str(path)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: cannot read parameter file")
    assert res.stderr.count("\n") == 1


def test_order_not_matching_fibers_exit_three(tmp_path):
    # The order covers every occurrence once, but each tuple mixes two fibers.
    obj = {
        "group": None,
        "blocks": [
            {"rho": "r", "A": 2, "B": 1, "zeta": 1},
            {"rho": "r", "A": 4, "B": 2, "zeta": 1},
            {"rho": "s", "A": 2, "B": 1, "zeta": 1},
            {"rho": "s", "A": 4, "B": 2, "zeta": 1},
        ],
    }
    path = tmp_path / "two_fibers.json"
    path.write_text(json.dumps(obj))
    res = runner.invoke(main, ["size", "--file", str(path), "--order", "1,2;3,0"])
    assert res.exit_code == 3, res.output
    assert "order has no fiber matching rho 'r'" in res.stderr


def _spellings(twice):
    """The ways a parameter file may write the coordinate twice / 2."""
    if twice % 2 == 0:
        return [twice // 2, str(twice // 2), f"{twice}/2"]
    return [f"{twice}/2", ("-" if twice < 0 else "") + f"{abs(twice) // 2}.5"]


@st.composite
def _parameter_files(draw, shift):
    """1-3 block entries of up to two rhos on one lattice or on both, with
    coordinates ``shift`` (an even number) and up, in every spelling, and
    now and then a field missing or one too many."""
    lattice = draw(st.sampled_from(("integral", "half-integral", "mixed")))

    def twice(low):
        half = draw(st.sampled_from((0, 1))) if lattice == "mixed" else int(lattice != "integral")
        return shift + 2 * draw(st.integers(low, 3)) + half

    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        tB = twice(0)
        tA = tB + twice(-1) - shift - (tB - shift) % 2  # A - B from -1 to 3, or 1/2 off when mixed
        block = {"rho": draw(st.sampled_from(("a", "b"))), "zeta": draw(st.sampled_from((1, -1)))}
        block["A"] = draw(st.sampled_from(_spellings(tA)))
        block["B"] = draw(st.sampled_from(_spellings(tB)))
        if draw(st.booleans()):
            block["parity"] = draw(st.sampled_from(("orthogonal", "symplectic")))
        if draw(st.booleans()):
            block["count"] = draw(st.integers(1, 3))
        fields = draw(st.sampled_from(("as is", "as is", "as is", "missing", "extra")))
        if fields == "missing":
            del block[draw(st.sampled_from(("rho", "A", "B", "zeta")))]
        elif fields == "extra":
            block["note"] = "ignored"
        blocks.append(block)
    obj = {"blocks": blocks}
    group = draw(st.sampled_from(("absent", None, "Sp-even", "SO-odd", "SO-even")))
    if group != "absent":
        obj["group"] = group
    return obj


def _integer_list_texts(n, entries):
    """``--l`` or ``--eta`` texts: ``n`` entries, or any number, some malformed."""
    odd = st.sampled_from(("", " 1", "+1", "-0", "1_0", "٢", "1.0", "x"))
    return st.one_of(
        st.lists(entries.map(str), min_size=n, max_size=n),
        st.lists(st.one_of(st.integers(-1, 3).map(str), odd), min_size=1, max_size=4),
    ).map(",".join)


@settings(max_examples=400, deadline=None)  # about 2 s
@given(st.booleans(), st.data())
def test_fuzzed_files_and_data_never_exit_five(large, data):
    # Coordinates near 10**6 go only through decide; size enumerates a grid
    # and gets at most four small blocks.
    obj = data.draw(_parameter_files(2 * 10**6 if large else 0))
    n = sum(block.get("count", 1) for block in obj["blocks"])
    l_text = data.draw(_integer_list_texts(n, st.integers(0, 2)))
    eta_text = data.draw(_integer_list_texts(n, st.sampled_from((1, -1))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "psi.json")
        path.write_text(json.dumps(obj))
        runs = [["decide", "--file", str(path), f"--l={l_text}", f"--eta={eta_text}"]]
        if not large and n <= 4:
            runs.append(["size", "--file", str(path)])
        for args in runs:
            res = runner.invoke(main, args)
            assert res.exit_code in (0, 2, 3), (obj, args, res.output)


def test_closed_stdout_exits_141_silently(tmp_path):
    # Three one-block fibers: 37 045 members, about 780 kB of table output,
    # more than a pipe buffer holds, so the command is still writing when
    # its reader goes away after the first line.
    path = tmp_path / "three.json"
    blocks = [{"rho": rho, "A": 40, "B": 0, "zeta": 1} for rho in "abc"]
    path.write_text(json.dumps({"blocks": blocks}))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "arthur_packets.cli", "enumerate", "--file", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert first.startswith(b"l=0,0,0 ")
    assert stderr == b""
