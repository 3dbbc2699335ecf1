"""Ingest parity: text parsing agrees with build_graph on the raw edges, and
malformed inputs keep their exception class, message and line number."""

import random

import pytest

from starpart import GeneratorSpec, GraphKind, build_graph, generate
from starpart.errors import ParseError
from starpart.instance_io import parse_instance, parse_solution


def _raw_edges(kind: str, n: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Member tuples as a file might write them: unordered, loops as (v, v)."""
    if kind == "hyper":
        m = min(rng.randint(n - 1, n + 2), n * (n - 1) // 2)
        g = generate(GeneratorSpec("hyper", n=n, m=m, max_edge_size=4, seed=rng.randrange(10**6)))
        raw = []
        for e in g.edges:
            members = list(e)
            if len(members) > 2 and rng.random() < 0.5:
                members.append(rng.choice(members))  # a repeated member collapses
            rng.shuffle(members)
            raw.append(tuple(members))
        return raw
    m = rng.randint(n - 1, n * (n - 1) // 2)
    g = generate(GeneratorSpec("random", n=n, m=m, seed=rng.randrange(10**6)))
    raw = [e if rng.random() < 0.5 else e[::-1] for e in g.edges]
    if kind == "multi":
        raw += [rng.choice(raw)[::-1] for _ in range(rng.randint(1, 4))]
    elif kind == "selfloop":
        loops = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        raw += [(v, v) for v in loops + loops[:1]]  # one node gets two loops
    rng.shuffle(raw)
    return raw


def _instance_text(kind, names, raw, caps, weights, rng) -> str:
    lines = [f"kind {kind}"]
    for v, name in enumerate(names):
        attrs = ""
        if caps.get(v) is not None:
            attrs += f" cap={caps[v]}"
        if weights.get(v) is not None:
            attrs += f"\tw={weights[v]}"
        lines.append(f"node {name}{attrs}")
    lines += ["edge  " + " ".join(names[v] for v in e) + "  " for e in raw]
    noisy = []
    for line in lines:
        if rng.random() < 0.1:
            noisy.append("   " if rng.random() < 0.5 else "# comment edge x y")
        noisy.append(line)
    eol = "\r\n" if rng.random() < 0.5 else "\n"
    return eol.join(noisy) + eol


@pytest.mark.parametrize("kind", ["simple", "multi", "selfloop", "hyper"])
def test_parse_matches_build_graph_on_raw_edges(kind):
    rng = random.Random(f"ingest:{kind}")
    for _ in range(25):
        n = rng.randint(3, 12)
        names = [f"{rng.choice('abxy')}{v}" for v in range(n)]
        raw = _raw_edges(kind, n, rng)
        caps = {v: rng.randint(0, 6) for v in range(n) if rng.random() < 0.4}
        weights = {v: rng.randint(1, 9) for v in range(n) if rng.random() < 0.4}
        text = _instance_text(kind, names, raw, caps, weights, rng)

        plain = build_graph(n, raw, GraphKind(kind))
        delta = max(len(inc) for inc in plain.incidence)
        expected = build_graph(
            n,
            raw,
            GraphKind(kind),
            [caps.get(v, delta) for v in range(n)] if caps else None,
            [weights.get(v, 1) for v in range(n)] if weights else None,
        )
        inst = parse_instance(text)
        assert inst.graph == expected
        assert inst.node_names == tuple(names)


def test_build_graph_rejects_numpy_ints_and_normalizes_other_edges():
    np = pytest.importorskip("numpy")
    with pytest.raises(ValueError, match="references unknown node"):
        build_graph(2, [(np.int64(0), np.int64(1))])
    assert build_graph(3, [[1, 0], (2, 1)]).edges == ((0, 1), (1, 2))


_HEAD = "kind simple\nnode a\nnode b\nnode c\n"

# (input, solution or None, exception class name, message, ParseError line)
MALFORMED = [
    ("edge a b\nkind simple\nnode a\nnode b\n", None,
     "ParseError", "line 1: kind line must come first", 1),
    ("# c\nnode a\n", None, "ParseError", "line 2: kind line must come first", 2),
    (_HEAD + "edge a d\n", None, "ParseError", "line 5: edge references undeclared node 'd'", 5),
    ("kind hyper\nnode a\nnode b\nnode c\nedge a b x\n", None,
     "ParseError", "line 5: edge references undeclared node 'x'", 5),
    (_HEAD + "edge a\n", None, "ParseError", "line 5: edge line needs at least two node names", 5),
    (_HEAD + "edge a b\nedge b c\nedge b a\n", None,
     "DuplicateEdgeInSimple", "edge (0, 1) appears more than once", None),
    (_HEAD + "edge a b\nedge c c\n", None,
     "SelfLoopInSimple", "loop at node 2 not allowed for kind simple", None),
    (_HEAD + "edge a b\nedge a b\nedge b b\nedge b c\n", None,
     "SelfLoopInSimple", "loop at node 1 not allowed for kind simple", None),
    ("kind multi\nnode a\nnode b\nnode c\nedge a b\nedge a b c\n", None,
     "ValueError", "edge (0, 1, 2) has more than two endpoints for kind multi", None),
    ("kind selfloop\nnode a\nnode b\nedge a a\nedge a b\nedge b a\n", None,
     "DuplicateEdgeInSimple", "edge (0, 1) appears more than once", None),
    ("kind hyper\nnode a\nnode b\nnode c\nnode d\nedge a b c\nedge b c d\n", None,
     "NonLinearHypergraph",
     "edges 0 and 1 share 2 nodes (1, 2); a linear hypergraph allows at most one", None),
    ("kind simple\nnode a\nnode b\nnode c\nnode d\nedge a b\nedge c d\n", None,
     "Disconnected", "node 2 is not reachable from node 0", None),
    (_HEAD + "edge a b\nvertex d\n", None, "ParseError", "line 6: unknown line tag 'vertex'", 6),
    (_HEAD + "kind multi\n", None, "ParseError", "line 5: duplicate kind line", 5),
    ("kind simple\nnode a cap=x\n", None, "ParseError", "line 2: not an integer: 'x'", 2),
    ("kind simple\r\n\r\n# x\r\nnode a\r\nnode b\r\nedge a z\r\n", None,
     "ParseError", "line 6: edge references undeclared node 'z'", 6),
    (None, "owner 0 a\nowner 1 b\nowner 0 b\n",
     "ParseError", "line 3: duplicate owner for edge 0", 3),
    (None, "owner 0 a\nowner 2 b\n", "ParseError", "line 2: edge index 2 out of range", 2),
    (None, "owner -1 a\n", "ParseError", "line 1: value -1 below minimum 0", 1),
    (None, "owner x a\n", "ParseError", "line 1: not an integer: 'x'", 1),
    (None, "owner 0 z\n", "ParseError", "line 1: unknown node name 'z'", 1),
    (None, "owner 0\n", "ParseError", "line 1: owner line needs an edge index and a node name", 1),
    (None, "# c\n\nowner 0 a b\n", "ParseError",
     "line 3: owner line needs an edge index and a node name", 3),
    (None, "owner 0 a\nvalue two\n", "ParseError", "line 2: not an integer: 'two'", 2),
    (None, "owner 0 a\nowners 1 b\n", "ParseError", "line 2: unknown line tag 'owners'", 2),
]


@pytest.mark.parametrize("text, solution, error, message, line", MALFORMED)
def test_malformed_input_errors(text, solution, error, message, line):
    with pytest.raises(Exception) as info:
        if solution is None:
            parse_instance(text)
        else:
            parse_solution(solution, parse_instance(_HEAD + "edge a b\nedge b c\n"))
    assert type(info.value).__name__ == error
    assert str(info.value) == message
    if isinstance(info.value, ParseError):
        assert info.value.line == line
