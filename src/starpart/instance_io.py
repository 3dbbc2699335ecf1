"""Line-oriented text formats for instances, solutions, and packings.

Instance files:
    # comment lines start with '#'
    kind simple|multi|selfloop|hyper
    node <name> [cap=<int>] [w=<int>]
    edge <name> <name> [<name> ...]

Solution files:
    owner <edge-index> <node-name>     (one per edge, indices 0-based)
    value <int|INFEASIBLE>

Bin-packing files:
    bins <K> <c>
    item <size>

Output ordering is the declaration order, so printed files are byte
stable and re-parse to field-identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .coloring import INFEASIBLE, PartialColoring
from .errors import ParseError
from .graph import Graph, GraphKind, build_graph, max_degree

if TYPE_CHECKING:  # parse_binpack imports it when called: parsing graphs needs no weighted code
    from .weighted import BinPackingInstance

_KIND_NAMES = {k.value: k for k in GraphKind}


@dataclass(frozen=True)
class Instance:
    """A graph plus the external node names, in declaration order."""

    graph: Graph
    node_names: tuple[str, ...]

    def name_to_id(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and parts[0][0] != "#":
            yield lineno, parts


def parse_instance(text: str) -> Instance:
    kind: GraphKind | None = None
    names: list[str] = []
    ids: dict[str, int] = {}
    caps: dict[int, int] = {}
    weights: dict[int, int] = {}
    edges: list[tuple[int, ...]] = []

    for lineno, parts in _content_lines(text):
        tag = parts[0]
        if tag == "edge":
            # Fast path: two declared names, emitted already normalized.
            # Anything else falls through to the checks below.
            if len(parts) == 3:
                a = ids.get(parts[1])
                b = ids.get(parts[2])
                if a is not None and b is not None:
                    edges.append((a, b) if a < b else (b, a) if b < a else (a,))
                    continue
            if kind is None:
                raise ParseError(lineno, "kind line must come first")
            if len(parts) < 3:
                raise ParseError(lineno, "edge line needs at least two node names")
            for name in parts[1:]:
                if name not in ids:
                    raise ParseError(lineno, f"edge references undeclared node {name!r}")
            edges.append(tuple(sorted({ids[name] for name in parts[1:]})))
        elif tag == "node":
            if kind is None:
                raise ParseError(lineno, "kind line must come first")
            if len(parts) < 2:
                raise ParseError(lineno, "node line needs a name")
            name = parts[1]
            if name in ids:
                raise ParseError(lineno, f"duplicate node name {name!r}")
            ids[name] = len(names)
            names.append(name)
            for token in parts[2:]:
                if token.startswith("cap="):
                    caps[ids[name]] = _parse_int(lineno, token[4:], minimum=0)
                elif token.startswith("w="):
                    weights[ids[name]] = _parse_int(lineno, token[2:], minimum=1)
                else:
                    raise ParseError(lineno, f"unknown node attribute {token!r}")
        elif tag == "kind":
            if kind is not None:
                raise ParseError(lineno, "duplicate kind line")
            if len(parts) != 2 or parts[1] not in _KIND_NAMES:
                raise ParseError(lineno, f"kind must be one of {sorted(_KIND_NAMES)}")
            kind = _KIND_NAMES[parts[1]]
        else:
            raise ParseError(lineno, f"unknown line tag {tag!r}")

    if kind is None:
        raise ParseError(1, "missing kind line")
    if not names:
        raise ParseError(1, "instance declares no nodes")

    weight_list = [weights.get(v, 1) for v in range(len(names))] if weights else None
    graph = build_graph(len(names), edges, kind, None, weight_list)
    if caps:  # unspecified capacities keep build_graph's default, the maximum degree
        delta = graph.capacities[0]
        graph = replace(graph, capacities=tuple(caps.get(v, delta) for v in range(graph.n)))
    return Instance(graph=graph, node_names=tuple(names))


def _parse_int(lineno: int, token: str, minimum: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(lineno, f"not an integer: {token!r}") from None
    if value < minimum:
        raise ParseError(lineno, f"value {value} below minimum {minimum}")
    return value


def format_instance(inst: Instance) -> str:
    g = inst.graph
    delta = max_degree(g)
    show_caps = any(c != delta for c in g.capacities)
    show_weights = any(w != 1 for w in g.weights)
    lines = [f"kind {g.kind.value}"]
    for v, name in enumerate(inst.node_names):
        attrs = ""
        if show_caps:
            attrs += f" cap={g.capacities[v]}"
        if show_weights:
            attrs += f" w={g.weights[v]}"
        lines.append(f"node {name}{attrs}")
    for nodes in g.edges:
        if len(nodes) == 1:  # loops print both endpoints
            nodes = (nodes[0], nodes[0])
        lines.append("edge " + " ".join(inst.node_names[v] for v in nodes))
    return "\n".join(lines) + "\n"


def parse_solution(text: str, inst: Instance) -> tuple[dict[int, int], int | float | None]:
    """Owners by edge index plus the declared value (None if absent)."""
    ids = inst.name_to_id()
    owners: dict[int, int] = {}
    value: int | float | None = None
    m = inst.graph.m
    for lineno, parts in _content_lines(text):
        tag = parts[0]
        if tag == "owner":
            # Fast path: a plain, in-range, new edge index and a known name;
            # anything else falls through to the checks below.
            if len(parts) == 3 and parts[1].isdecimal():
                e, o = int(parts[1]), ids.get(parts[2])
                if o is not None and e < m and e not in owners:
                    owners[e] = o
                    continue
            if len(parts) != 3:
                raise ParseError(lineno, "owner line needs an edge index and a node name")
            e = _parse_int(lineno, parts[1], minimum=0)
            if e >= m:
                raise ParseError(lineno, f"edge index {e} out of range")
            if e in owners:
                raise ParseError(lineno, f"duplicate owner for edge {e}")
            if parts[2] not in ids:
                raise ParseError(lineno, f"unknown node name {parts[2]!r}")
            owners[e] = ids[parts[2]]
        elif tag == "value":
            if len(parts) != 2:
                raise ParseError(lineno, "value line needs one token")
            value = INFEASIBLE if parts[1] == "INFEASIBLE" else _parse_int(lineno, parts[1], 0)
        else:
            raise ParseError(lineno, f"unknown line tag {tag!r}")
    return owners, value


def format_solution(inst: Instance, coloring: PartialColoring | None, value: int | float) -> str:
    lines = []
    if coloring is not None:
        for e, o in enumerate(coloring.owner):
            lines.append(f"owner {e} {inst.node_names[o]}")
    lines.append("value " + ("INFEASIBLE" if value == INFEASIBLE else str(int(value))))
    return "\n".join(lines) + "\n"


def parse_binpack(text: str) -> BinPackingInstance:
    from .weighted import BinPackingInstance

    bins = capacity = None
    sizes: list[int] = []
    for lineno, parts in _content_lines(text):
        if parts[0] == "bins":
            if len(parts) != 3:
                raise ParseError(lineno, "bins line needs a count and a capacity")
            bins = _parse_int(lineno, parts[1], minimum=2)
            capacity = _parse_int(lineno, parts[2], minimum=1)
        elif parts[0] == "item":
            if len(parts) != 2:
                raise ParseError(lineno, "item line needs a size")
            sizes.append(_parse_int(lineno, parts[1], minimum=1))
        else:
            raise ParseError(lineno, f"unknown line tag {parts[0]!r}")
    if bins is None or capacity is None:
        raise ParseError(1, "missing bins line")
    if not sizes:
        raise ParseError(1, "no items declared")
    return BinPackingInstance(sizes=tuple(sizes), bins=bins, capacity=capacity)
