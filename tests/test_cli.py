import json
import subprocess
import sys

import pytest

from starpart.cli import main
from starpart.instance_io import (
    Instance,
    format_instance,
    parse_binpack,
    parse_instance,
)
from starpart import generate, GeneratorSpec

FIG2_TEXT = """\
kind simple
node v1
node v2
node v3
node v4
node v5
node v6
node v7
edge v1 v2
edge v1 v3
edge v1 v4
edge v1 v7
edge v2 v3
edge v2 v5
edge v2 v7
edge v3 v4
edge v3 v6
edge v4 v5
edge v5 v6
"""

FIG5_BINPACK = """\
bins 3 10
item 1
item 1
item 3
item 6
item 8
item 9
"""


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.graph"
    path.write_text(FIG2_TEXT)
    return path


def test_solve_fig2_dfs(fig2_file, tmp_path, capsys):
    out = tmp_path / "fig2.sol"
    assert main(["solve", str(fig2_file), "--algo", "dfs", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "value 3"
    text = out.read_text()
    assert text.strip().endswith("value 3")
    assert text.count("owner ") == 11


def test_solve_knn4_flow(tmp_path, capsys):
    path = tmp_path / "knn4.graph"
    assert main(["gen", "--family", "knn", "--n", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(path), "--algo", "flow"]) == 0
    assert capsys.readouterr().out.strip() == "value 3"


def test_solve_nonlinear_hyper_exit2(tmp_path, capsys):
    path = tmp_path / "bad.hyper"
    path.write_text(
        "kind hyper\nnode a\nnode b\nnode c\nnode d\nnode e\n"
        "edge a b c\nedge b c d\nedge c d e\n"
    )
    assert main(["solve", str(path), "--algo", "dfs"]) == 2
    err = capsys.readouterr().err
    assert "share 2 nodes" in err


def test_solve_flow_rejects_hyper(tmp_path):
    path = tmp_path / "ok.hyper"
    path.write_text("kind hyper\nnode a\nnode b\nnode c\nedge a b c\n")
    assert main(["solve", str(path), "--algo", "flow"]) == 2
    assert main(["solve", str(path), "--algo", "dfs"]) == 0


def test_solve_infeasible_is_success(tmp_path, capsys):
    path = tmp_path / "tight.graph"
    path.write_text("kind simple\nnode a cap=0\nnode b cap=1\nedge a b\n")
    out = tmp_path / "tight.sol"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "value INFEASIBLE"
    assert out.read_text() == "value INFEASIBLE\n"
    # an INFEASIBLE claim is not a verifiable coloring
    assert main(["verify", str(path), str(out)]) == 1
    capsys.readouterr()


def test_solve_single_node_instance(tmp_path, capsys):
    path = tmp_path / "solo.graph"
    path.write_text("kind simple\nnode only\n")
    out = tmp_path / "solo.sol"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "value 0"
    assert main(["verify", str(path), str(out)]) == 0
    capsys.readouterr()


def test_verify_bounds(fig2_file, tmp_path, capsys):
    sol = tmp_path / "fig2.sol"
    main(["solve", str(fig2_file), "--algo", "flow", "--out", str(sol)])
    capsys.readouterr()
    assert main(["verify", str(fig2_file), str(sol), "--bound", "3"]) == 0
    assert main(["verify", str(fig2_file), str(sol), "--bound", "2"]) == 1
    out = capsys.readouterr().out
    assert "exceeds bound 2" in out


def test_verify_incomplete_solution(fig2_file, tmp_path, capsys):
    sol = tmp_path / "partial.sol"
    sol.write_text("owner 0 v1\nvalue 1\n")
    assert main(["verify", str(fig2_file), str(sol)]) == 1
    assert "missing owner for edge 1" in capsys.readouterr().out


def test_verify_triangle_coloring(tmp_path, capsys):
    inst = tmp_path / "tri.graph"
    inst.write_text("kind simple\nnode v1\nnode v2\nnode v3\nedge v1 v2\nedge v2 v3\nedge v1 v3\n")
    sol = tmp_path / "tri.sol"
    sol.write_text("owner 0 v1\nowner 1 v3\nowner 2 v3\nvalue 2\n")
    assert main(["verify", str(inst), str(sol), "--bound", "2", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "node v2 2" in out
    assert main(["verify", str(inst), str(sol), "--bound", "1"]) == 1


def test_verify_detects_capacity_breach(tmp_path, capsys):
    inst = tmp_path / "tri.graph"
    inst.write_text(
        "kind simple\nnode v1\nnode v2 cap=1\nnode v3\nedge v1 v2\nedge v2 v3\nedge v1 v3\n"
    )
    sol = tmp_path / "tri.sol"
    sol.write_text("owner 0 v1\nowner 1 v3\nowner 2 v3\n")
    assert main(["verify", str(inst), str(sol)]) == 1
    assert "over capacity" in capsys.readouterr().out


def test_reduce_ind2star_capacities(tmp_path, capsys):
    inst = tmp_path / "tri.graph"
    inst.write_text("kind simple\nnode v1\nnode v2\nnode v3\nedge v1 v2\nedge v2 v3\nedge v1 v3\n")
    out = tmp_path / "tri_red.graph"
    assert main(["reduce", "ind2star", str(inst), "--out", str(out)]) == 0
    capsys.readouterr()
    reduced = parse_instance(out.read_text())
    assert reduced.graph.capacities == (3, 3, 3, 1, 1, 1)
    assert reduced.graph.n == 6 and reduced.graph.m == 6
    sidecar = json.loads((tmp_path / "tri_red.graph.map.json").read_text())
    assert sidecar["reduction"] == "ind2star" and sidecar["orig_edges"] == 3


def test_reduce_solve_pullback_verify_ind(fig2_file, tmp_path, capsys):
    red = tmp_path / "fig2_red.graph"
    main(["reduce", "ind2star", str(fig2_file), "--out", str(red)])
    sol = tmp_path / "fig2_red.sol"
    main(["solve", str(red), "--algo", "flow", "--out", str(sol)])
    back = tmp_path / "fig2_ind.sol"
    assert main([
        "pullback", str(red), str(sol), "--map", str(red) + ".map.json", "--out", str(back),
    ]) == 0
    capsys.readouterr()
    # the reduced optimum was 3, so the pulled-back orientation meets bound 2
    assert main(["verify", str(fig2_file), str(back), "--objective", "ind", "--bound", "2"]) == 0


def test_reduce_bp2wind_and_pullback(tmp_path, capsys):
    bp = tmp_path / "fig5.binpack"
    bp.write_text(FIG5_BINPACK)
    red = tmp_path / "fig5.graph"
    assert main(["reduce", "bp2wind", str(bp), "--out", str(red)]) == 0
    reduced = parse_instance(red.read_text())
    assert reduced.graph.weights == (2, 2, 6, 12, 16, 18, 10, 10, 10)
    sidecar = json.loads((tmp_path / "fig5.graph.map.json").read_text())
    assert sidecar["threshold"] == 20
    sol = tmp_path / "fig5.sol"
    main(["solve", str(red), "--algo", "oracle", "--objective", "ind", "--out", str(sol)])
    capsys.readouterr()
    assign = tmp_path / "fig5.assign"
    assert main([
        "pullback", str(red), str(sol), "--map", str(red) + ".map.json", "--out", str(assign),
    ]) == 0
    out = capsys.readouterr().out
    loads = [int(x) for x in out.split()[1:]]
    assert all(l <= 10 for l in loads) and sum(loads) == 28


def test_reduce_wind2wstar_roundtrip(tmp_path, capsys):
    inst = tmp_path / "pair.graph"
    inst.write_text("kind simple\nnode a w=2\nnode b w=3\nedge a b\n")
    red = tmp_path / "pair_red.graph"
    assert main(["reduce", "wind2wstar", str(inst), "--k", "3", "--out", str(red)]) == 0
    reduced = parse_instance(red.read_text())
    assert reduced.graph.n == 20 and reduced.graph.m == 21  # 9|V| nodes, 10|V| edges added
    sol = tmp_path / "pair_red.sol"
    main(["solve", str(red), "--algo", "oracle", "--objective", "star", "--out", str(sol)])
    back = tmp_path / "pair_ind.sol"
    assert main([
        "pullback", str(red), str(sol), "--map", str(red) + ".map.json", "--out", str(back),
    ]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst), str(back), "--objective", "ind", "--bound", "3"]) == 0


def test_solve_ind_objective_all_algos(fig2_file, tmp_path, capsys):
    values = set()
    for algo in ("dfs", "flow", "oracle"):
        sol = tmp_path / f"ind_{algo}.sol"
        assert main([
            "solve", str(fig2_file), "--objective", "ind", "--algo", algo,
            "--out", str(sol),
        ]) == 0
        values.add(capsys.readouterr().out.strip())
        assert main([
            "verify", str(fig2_file), str(sol), "--objective", "ind", "--bound", "2",
        ]) == 0
        capsys.readouterr()
    assert values == {"value 2"}


def test_weighted_instance_requires_oracle(tmp_path):
    inst = tmp_path / "w.graph"
    inst.write_text("kind simple\nnode a w=2\nnode b w=3\nedge a b\n")
    assert main(["solve", str(inst), "--algo", "flow"]) == 2
    assert main(["solve", str(inst), "--algo", "oracle"]) == 0


def test_approx_command(tmp_path, capsys):
    inst = tmp_path / "tri.graph"
    inst.write_text(
        "kind simple\nnode a w=4\nnode b w=4\nnode c w=4\nedge a b\nedge b c\nedge a c\n"
    )
    assert main(["approx", str(inst), "--objective", "wind"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(maxsplit=1) for line in out.splitlines())
    assert int(lines["value"]) <= 2 * int(lines["optimum"])
    assert float(lines["ratio"]) <= 2.0
    assert main(["approx", str(inst), "--objective", "wstar"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(maxsplit=1) for line in out.splitlines())
    assert int(lines["value"]) <= 4 * int(lines["optimum"])


def test_approx_skips_optimum_past_the_weighted_guard(tmp_path, capsys):
    g = generate(GeneratorSpec("random", n=10, m=25, seed=3))
    lines = [f"node v{v} w={1 + v % 3}" for v in range(g.n)]
    lines += [f"edge v{a} v{b}" for a, b in g.edges]
    inst = tmp_path / "m25.graph"
    inst.write_text("kind simple\n" + "\n".join(lines) + "\n")
    assert main(["approx", str(inst), "--objective", "wind"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["value"]


def test_gen_roundtrip_and_env_seed(tmp_path, capsys, monkeypatch):
    out = tmp_path / "g.graph"
    assert main(["gen", "--family", "knn", "--n", "5", "--out", str(out)]) == 0
    parsed = parse_instance(out.read_text())
    expected = generate(GeneratorSpec("knn", n=5))
    assert parsed.graph.edges == expected.edges

    monkeypatch.setenv("STARPART_SEED", "77")
    capsys.readouterr()
    assert main(["gen", "--family", "random", "--n", "6", "--m", "8"]) == 0
    text_a = capsys.readouterr().out
    assert main(["gen", "--family", "random", "--n", "6", "--m", "8"]) == 0
    text_b = capsys.readouterr().out
    assert text_a == text_b
    assert parse_instance(text_a).graph.edges == generate(
        GeneratorSpec("random", n=6, m=8, seed=77)
    ).edges


def test_approx_unweighted_ratio(fig2_file, capsys):
    assert main(["approx", str(fig2_file), "--objective", "wind"]) == 0
    lines = dict(
        line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()
    )
    assert float(lines["ratio"]) <= 2.0


CORPUS = [
    ("kind simple\nnode a\nnode b\nnode c\nedge a b\nedge b c\nedge a c\n", "flow"),
    ("kind simple\nnode a cap=1\nnode b cap=2\nnode c cap=2\nedge a b\nedge b c\n", "dfs"),
    ("kind multi\nnode a\nnode b\nedge a b\nedge a b\nedge a b\n", "dfs"),
    ("kind multi\nnode a\nnode b\nnode c\nedge a b\nedge a b\nedge b c\n", "flow"),
    ("kind selfloop\nnode a\nnode b\nedge a a\nedge a b\n", "dfs"),
    ("kind selfloop\nnode a\nnode b\nnode c\nedge a b\nedge b c\nedge c c\n", "flow"),
    ("kind hyper\nnode a\nnode b\nnode c\nnode d\nedge a b c\nedge c d\n", "dfs"),
    ("kind hyper\nnode a\nnode b\nnode c\nnode d\nnode e\nedge a b c\nedge c d e\n", "oracle"),
]


def test_every_solved_corpus_file_verifies(tmp_path, capsys):
    for i, (text, algo) in enumerate(CORPUS):
        inst = tmp_path / f"corpus{i}.graph"
        inst.write_text(text)
        sol = tmp_path / f"corpus{i}.sol"
        assert main(["solve", str(inst), "--algo", algo, "--out", str(sol)]) == 0
        assert main(["verify", str(inst), str(sol)]) == 0, (i, algo)
    capsys.readouterr()


def test_gen_fig6d(tmp_path):
    out = tmp_path / "f.graph"
    assert main(["gen", "--family", "fig6d", "--out", str(out)]) == 0
    parsed = parse_instance(out.read_text())
    assert parsed.graph.m == 10 and parsed.graph.n == 7


def test_instance_print_parse_roundtrip(tmp_path):
    for spec in (
        GeneratorSpec("fig2"),
        GeneratorSpec("random", n=6, m=9, seed=4, cap_rule="random"),
        GeneratorSpec("hyper", n=6, m=4, seed=2),
    ):
        g = generate(spec)
        inst = Instance(graph=g, node_names=tuple(f"v{v}" for v in range(g.n)))
        text = format_instance(inst)
        again = parse_instance(text)
        assert again.graph == g
        assert format_instance(again) == text


def test_selfloop_file_roundtrip():
    text = "kind selfloop\nnode a\nnode b\nedge a a\nedge a b\nedge b b\n"
    inst = parse_instance(text)
    assert inst.graph.edges == ((0,), (0, 1), (1,))
    printed = format_instance(inst)
    assert parse_instance(printed).graph == inst.graph
    assert "edge a a" in printed and "edge b b" in printed


def test_binpack_parse(tmp_path):
    bp = parse_binpack(FIG5_BINPACK)
    assert bp.sizes == (1, 1, 3, 6, 8, 9)
    assert bp.bins == 3 and bp.capacity == 10


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("kind simple\nnode a\nedge a b\n")
    assert main(["solve", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err

    disconnected = tmp_path / "disc.graph"
    disconnected.write_text("kind simple\nnode a\nnode b\nnode c\nedge a b\n")
    assert main(["solve", str(disconnected)]) == 2


def test_bench_small(capsys):
    assert main(["bench", "--nodes", "12..24", "--steps", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert len(rows) == 3  # header plus two ladder sizes
    assert "dfs_ms" in rows[0]


def test_console_entry_point(fig2_file):
    proc = subprocess.run(
        [sys.executable, "-m", "starpart.cli", "solve", str(fig2_file)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "value 3"


def test_default_algo_solves_hypergraphs(tmp_path, capsys):
    from starpart import minimum_star_coloring

    path = tmp_path / "h.hyper"
    assert main(["gen", "--family", "hyper", "--n", "12", "--m", "10", "--seed", "3",
                 "--out", str(path)]) == 0
    expected = minimum_star_coloring(parse_instance(path.read_text()).graph).value
    capsys.readouterr()
    out = tmp_path / "h.sol"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == f"value {expected}"
    assert main(["verify", str(path), str(out), "--bound", str(expected)]) == 0


def test_capacitated_parse_builds_once_with_default_caps(monkeypatch):
    import starpart.instance_io as instance_io

    calls = []
    build = instance_io.build_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(instance_io, "build_graph", counted)
    # the loop written 'a a' counts once toward a's degree, so delta is 3
    loops = parse_instance(
        "kind selfloop\nnode a\nnode b cap=1\nnode c\n"
        "edge a a\nedge a a\nedge a b\nedge b c\n"
    )
    assert loops.graph.capacities == (3, 1, 3)
    multi = parse_instance(
        "kind multi\nnode a cap=0\nnode b\nnode c\nedge a b\nedge a b\nedge b c\n"
    )
    assert multi.graph.capacities == (0, 3, 3)
    assert len(calls) == 2


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, starpart.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def _instance_text(kind, nodes, edges):
    lines = [f"kind {kind}"] + [f"node {v}" for v in nodes] + [f"edge {a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def test_flow_solves_leave_numpy_and_scipy_unloaded(tmp_path):
    # every file runs at least one max flow; the first probe of each but the
    # capacitated one fails
    k5 = [(f"v{a}", f"v{b}") for a in range(5) for b in range(a + 1, 5)]
    path = [(f"v{v}", f"v{v + 1}") for v in range(4, 14)]
    files = {
        "k5path.graph": _instance_text("simple", [f"v{v}" for v in range(15)], k5 + path),
        "capped.graph": _instance_text(
            "simple", ["a cap=2", "b cap=1", "c cap=2", "d cap=2", "e cap=1"],
            "ab ac bc bd cd de ce ae".split(),
        ),
        "multi.graph": _instance_text("multi", "abcdef", "ab ab ac ad bc bd cd de ef".split()),
        "loops.graph": _instance_text("selfloop", "abcd", "aa bb ab bc cd ac bd ad".split()),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = (
        "import sys, starpart.cli\n"
        "for name, *extra in (('k5path.graph',), ('capped.graph', '--objective', 'ind'),\n"
        "                     ('multi.graph',), ('loops.graph',)):\n"
        "    rc = starpart.cli.main(['solve', sys.argv[1] + '/' + name, *extra])\n"
        "    print(rc, 'numpy' in sys.modules, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "value 3", "0 False False", "value 2", "0 False False",
        "value 3", "0 False False", "value 3", "0 False False",
    ]


def test_approx_leaves_numpy_and_scipy_unloaded(tmp_path):
    # 25 edges, past the weighted guard, so the numpy oracle stays out
    g = generate(GeneratorSpec("random", n=10, m=25, seed=3))
    lines = [f"node v{v} w={1 + v % 3}" for v in range(g.n)]
    lines += [f"edge v{a} v{b}" for a, b in g.edges]
    inst = tmp_path / "m25.graph"
    inst.write_text("kind simple\n" + "\n".join(lines) + "\n")
    code = (
        "import sys, starpart.cli\n"
        "for objective in ('wind', 'wstar'):\n"
        "    rc = starpart.cli.main(['approx', sys.argv[1], '--objective', objective])\n"
        "    print(rc, 'numpy' in sys.modules, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(inst)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if not line.startswith("value")] == ["0 False False"] * 2


def test_import_and_verify_leave_numpy_unloaded(tmp_path):
    inst = tmp_path / "path.graph"
    inst.write_text("kind simple\nnode a\nnode b\nnode c\nedge a b\nedge b c\n")
    sol = tmp_path / "path.sol"
    sol.write_text("owner 0 b\nowner 1 b\nvalue 1\n")
    code = (
        "import sys, starpart, starpart.cli\n"
        "print('numpy' in sys.modules)\n"
        "rc = starpart.cli.main(['verify', sys.argv[1], sys.argv[2]])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(inst), str(sol)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "ok value 1", "0 False"]


def test_each_command_loads_only_its_modules(tmp_path):
    # one fresh interpreter per command; no argv is a bare 'import starpart'
    paths = {name: str(tmp_path / name) for name in ("path.graph", "path.sol", "h.hyper", "m25.graph")}
    (tmp_path / "path.graph").write_text("kind simple\nnode a\nnode b\nnode c\nedge a b\nedge b c\n")
    (tmp_path / "path.sol").write_text("owner 0 b\nowner 1 b\nvalue 1\n")
    h = generate(GeneratorSpec("hyper", n=12, m=10, seed=3))
    (tmp_path / "h.hyper").write_text(
        format_instance(Instance(graph=h, node_names=tuple(f"v{v}" for v in range(h.n))))
    )
    g = generate(GeneratorSpec("random", n=10, m=25, seed=3))  # past the weighted guard
    lines = [f"node v{v} w={1 + v % 3}" for v in range(g.n)] + [f"edge v{a} v{b}" for a, b in g.edges]
    (tmp_path / "m25.graph").write_text("kind simple\n" + "\n".join(lines) + "\n")
    io = {"cli", "coloring", "errors", "graph", "instance_io"}
    solve = io | {"reductions", "flow_solver"}
    cases = [
        ([], set()),
        (["verify", paths["path.graph"], paths["path.sol"]], io),
        (["solve", paths["path.graph"]], solve),
        (["solve", paths["h.hyper"], "--algo", "dfs"], solve | {"dfs_solver"}),
        (["approx", paths["m25.graph"], "--objective", "wind"], io | {"weighted", "lp"}),
    ]
    code = (
        "import sys, starpart\n"
        "if sys.argv[1:]:\n"
        "    import starpart.cli\n"
        "    assert starpart.cli.main(sys.argv[1:]) == 0\n"
        "print(*sorted(m[len('starpart.'):] for m in sys.modules if m.startswith('starpart.')))\n"
    )
    for argv, expected in cases:
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.splitlines()[-1].split()) == expected, argv


@pytest.mark.parametrize("approx_objective, verify_objective", [("wind", "ind"), ("wstar", "star")])
def test_approx_out_verifies(tmp_path, capsys, approx_objective, verify_objective):
    inst = tmp_path / "weighted.graph"
    inst.write_text(
        "kind simple\nnode a w=2\nnode b w=3\nnode c w=1\nnode d w=4\n"
        "edge a b\nedge b c\nedge c d\nedge a d\nedge a c\n"
    )
    sol = tmp_path / "approx.sol"
    assert main(["approx", str(inst), "--objective", approx_objective, "--out", str(sol)]) == 0
    value = capsys.readouterr().out.splitlines()[0].split()[1]
    assert main(
        ["verify", str(inst), str(sol), "--objective", verify_objective, "--bound", value]
    ) == 0
    assert capsys.readouterr().out.strip() == f"ok value {value}"


@pytest.mark.parametrize("bad_owner", ["gadget", "third"])
def test_pullback_wind2wstar_rejects_non_endpoint_owner(tmp_path, capsys, bad_owner):
    inst = tmp_path / "tri.graph"
    inst.write_text(
        "kind simple\nnode a w=2\nnode b w=3\nnode c w=1\nedge a b\nedge b c\nedge a c\n"
    )
    red = tmp_path / "tri_red.graph"
    assert main(["reduce", "wind2wstar", str(inst), "--k", "3", "--out", str(red)]) == 0
    reduced = parse_instance(red.read_text())
    names = reduced.node_names
    owners = [names[nodes[0]] for nodes in reduced.graph.edges]
    # edge 0 is a-b: hand it to a gadget node, or to the original node c
    owners[0] = names[3] if bad_owner == "gadget" else "c"
    sol = tmp_path / "tri_red.sol"
    sol.write_text("".join(f"owner {e} {o}\n" for e, o in enumerate(owners)))
    back = tmp_path / "tri_back.sol"
    capsys.readouterr()
    assert main([
        "pullback", str(red), str(sol), "--map", str(red) + ".map.json", "--out", str(back),
    ]) == 2
    assert "not an endpoint" in capsys.readouterr().err
    assert not back.exists()


def test_verify_ind_rejects_multigraph_like_solve(tmp_path, capsys):
    inst = tmp_path / "multi.graph"
    inst.write_text("kind multi\nnode a\nnode b\nnode c\nedge a b\nedge a b\nedge b c\n")
    sol = tmp_path / "multi.sol"
    sol.write_text("owner 0 a\nowner 1 b\nowner 2 b\n")
    assert main(["solve", str(inst), "--objective", "ind"]) == 2
    solve_err = capsys.readouterr().err
    assert main(["verify", str(inst), str(sol), "--objective", "ind"]) == 2
    verify_err = capsys.readouterr().err
    assert "the indegree objective needs a simple graph" in verify_err
    assert verify_err == solve_err
    assert main(["verify", str(inst), str(sol)]) == 0  # the star objective still verifies


@pytest.mark.parametrize("argv", [
    ["solve", "INST", "--algo", "oracle"],
    ["solve", "INST", "--algo", "oracle", "--objective", "ind"],
    ["approx", "INST", "--objective", "wind"],
    ["approx", "INST", "--objective", "wstar"],
    ["reduce", "wind2wstar", "INST", "--k", "2"],
])
def test_weighted_commands_reject_binding_capacities(tmp_path, capsys, argv):
    inst = tmp_path / "capped.graph"
    inst.write_text(
        "kind simple\nnode a cap=0 w=2\nnode b w=1\nnode c w=1\nedge a b\nedge b c\nedge a c\n"
    )
    argv = [str(inst) if a == "INST" else a for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "weighted objectives carry no node capacities" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["capped.graph"]
