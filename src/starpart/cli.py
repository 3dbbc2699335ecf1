"""Command line front end.

Subcommands: solve, verify, reduce, pullback, approx, gen, bench.
Exit codes: 0 solved or verified (an INFEASIBLE answer is a successful
solve), 1 verification failed, 2 input error, 3 internal invariant
breach.  The STARPART_SEED environment variable overrides the default
generator seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .coloring import (
    INFEASIBLE,
    PartialColoring,
    node_loads,
    orientation_to_owner,
    owner_to_orientation,
)
from .errors import StarPartError, UnsupportedKind
from .graph import GraphKind, build_graph
from .instance_io import (
    Instance,
    format_instance,
    format_solution,
    parse_binpack,
    parse_instance,
    parse_solution,
)
from .oracle import GeneratorSpec, generate
from .reductions import PendantReduction, _require_ind_kind, ind_to_star, recover_ind_solution, solve
from .weighted import (
    binpacking_to_wind,
    brute_force_weighted,
    extract_packing,
    gadget_transform,
    approx2_wind,
    approx4_wstar,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_INPUT
    try:
        return args.func(args)
    except (StarPartError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - invariant breaches
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starpart")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--algo", choices=["auto", "dfs", "flow", "oracle"], default="auto")
    p.add_argument("--objective", choices=["star", "ind"], default="star")
    p.add_argument("--out", help="write the solution file here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--objective", choices=["star", "ind"], default="star")
    p.add_argument("--bound", type=int)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="write a reduced instance plus a sidecar map")
    p.add_argument("kind", choices=["ind2star", "wind2wstar", "bp2wind"])
    p.add_argument("input")
    p.add_argument("--k", type=int, help="decision bound for wind2wstar")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("pullback", help="map a reduced solution back to the original")
    p.add_argument("reduced_instance")
    p.add_argument("solution")
    p.add_argument("--map", dest="sidecar", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("approx", help="run the weighted approximation algorithms")
    p.add_argument("instance")
    p.add_argument("--objective", choices=["wind", "wstar"], default="wind")
    p.add_argument("--out", help="write the solution file here")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--max-edge-size", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap-rule", choices=["random"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="race the two exact solvers on a size ladder")
    p.add_argument("--nodes", default="200..2000", help="size range a..b")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--edge-factor", type=float, default=2.0)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_bench)

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _default_seed(explicit) -> int:
    if explicit is not None:
        return explicit
    return int(os.environ.get("STARPART_SEED", "0"))


# --- solve -------------------------------------------------------------------


def cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    res = solve(inst.graph, args.objective, args.algo)
    print("value " + ("INFEASIBLE" if res.value == INFEASIBLE else str(int(res.value))))
    if args.out:
        _write(args.out, format_solution(inst, res.coloring, res.value))
    return EXIT_OK


# --- verify ------------------------------------------------------------------


def _fail(message: str) -> int:
    print(f"verification failed: {message}")
    return EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    g = inst.graph
    owners, declared = parse_solution(_read(args.solution), inst)
    if declared == INFEASIBLE:
        return _fail("solution declares INFEASIBLE; nothing to verify")
    missing = [e for e in range(g.m) if e not in owners]
    if missing:
        return _fail(f"missing owner for edge {missing[0]}")
    for e in range(g.m):
        if owners[e] not in g.edges[e]:
            return _fail(f"owner of edge {e} is not an endpoint")

    ind = args.objective == "ind"
    if ind:
        _require_ind_kind(g)
    counts = node_loads(g, owners, args.objective)
    for v in range(g.n):
        if counts[v] > g.capacities[v]:
            seen = f"has indegree {counts[v]}" if ind else f"sees {counts[v]} colors"
            return _fail(f"node {inst.node_names[v]} {seen} over capacity {g.capacities[v]}")
    unweighted = all(w == 1 for w in g.weights)
    per_node = counts if unweighted else node_loads(g, owners, args.objective, g.weights)

    value = max(per_node) if per_node else 0
    if args.verbose:
        for v in range(g.n):
            print(f"node {inst.node_names[v]} {per_node[v]}")
    if declared is not None and declared != value:
        return _fail(f"declared value {declared} but recomputed {value}")
    if args.bound is not None and value > args.bound:
        worst = inst.node_names[per_node.index(value)]
        return _fail(f"value {value} exceeds bound {args.bound} at node {worst}")
    print(f"ok value {value}")
    return EXIT_OK


# --- reduce / pullback ---------------------------------------------------------


def _unique_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def cmd_reduce(args) -> int:
    if args.kind == "ind2star":
        inst = parse_instance(_read(args.input))
        if inst.graph.kind is not GraphKind.SIMPLE:
            raise UnsupportedKind("ind2star expects a simple instance")
        red = ind_to_star(inst.graph)
        taken = set(inst.node_names)
        names = list(inst.node_names) + [
            _unique_name(name + "'", taken) for name in inst.node_names
        ]
        out_inst = Instance(graph=red.reduced, node_names=tuple(names))
        sidecar = {
            "reduction": "ind2star",
            "orig_nodes": list(inst.node_names),
            "orig_edges": inst.graph.m,
            "weights": list(inst.graph.weights),
        }
    elif args.kind == "wind2wstar":
        if args.k is None or args.k < 1:
            raise ValueError("wind2wstar needs --k >= 1")
        inst = parse_instance(_read(args.input))
        red = gadget_transform(inst.graph, inst.graph.weights, args.k)
        taken = set(inst.node_names)
        names = list(inst.node_names)
        suffixes = [".r1", ".r2", ".r3", ".r4", ".a", ".r1a", ".r2a", ".r3a", ".r4a"]
        for base in inst.node_names:
            names += [_unique_name(base + sfx, taken) for sfx in suffixes]
        out_inst = Instance(graph=red.reduced, node_names=tuple(names))
        sidecar = {
            "reduction": "wind2wstar",
            "orig_nodes": list(inst.node_names),
            "orig_edges": inst.graph.m,
            "weights": list(inst.graph.weights),
            "k": args.k,
            "M": red.big,
            "threshold": red.threshold,
        }
    elif args.kind == "bp2wind":
        bp = parse_binpack(_read(args.input))
        graph, threshold = binpacking_to_wind(bp)
        names = [f"i{j + 1}" for j in range(len(bp.sizes))] + [
            f"b{l + 1}" for l in range(bp.bins)
        ]
        out_inst = Instance(graph=graph, node_names=tuple(names))
        sidecar = {
            "reduction": "bp2wind",
            "sizes": list(bp.sizes),
            "bins": bp.bins,
            "capacity": bp.capacity,
            "threshold": threshold,
        }
    else:  # pragma: no cover - argparse enforces choices
        raise ValueError(args.kind)

    _write(args.out, format_instance(out_inst))
    _write(args.out + ".map.json", json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {args.out} and {args.out}.map.json")
    return EXIT_OK


def cmd_pullback(args) -> int:
    sidecar = json.loads(_read(args.sidecar))
    reduced = parse_instance(_read(args.reduced_instance))
    owners, declared = parse_solution(_read(args.solution), reduced)
    if declared == INFEASIBLE:
        raise ValueError("cannot pull back an INFEASIBLE solution")
    missing = [e for e in range(reduced.graph.m) if e not in owners]
    if missing:
        raise ValueError(f"reduced solution misses edge {missing[0]}")

    kind = sidecar.get("reduction")
    if kind in ("ind2star", "wind2wstar"):
        orig_names = sidecar["orig_nodes"]
        m = sidecar["orig_edges"]
        n = len(orig_names)
        red_graph = reduced.graph
        coloring = PartialColoring(tuple(owners[e] for e in range(red_graph.m)))
        # ind2star raised every original capacity by one; wind2wstar has none
        caps = [red_graph.capacities[v] - 1 for v in range(n)] if kind == "ind2star" else None
        orig = build_graph(
            n, red_graph.edges[:m], GraphKind.SIMPLE, capacities=caps, weights=sidecar.get("weights")
        )
        if kind == "ind2star":
            red = PendantReduction(original=orig, reduced=red_graph)
            orientation = recover_ind_solution(red, coloring)
        else:
            # raises ValueError, before anything is written, on a non-endpoint owner
            orientation = owner_to_orientation(orig, PartialColoring(coloring.owner[:m]))
        solution = orientation_to_owner(orig, orientation)  # owners are the tails
        value = max(node_loads(orig, solution.owner, "ind", orig.weights))
        _write(args.out, format_solution(Instance(orig, tuple(orig_names)), solution, value))
        print(f"value {value}")
        if kind == "wind2wstar" and value > sidecar["k"]:
            print(f"warning: pulled-back value {value} exceeds the bound {sidecar['k']}")
            return EXIT_VERIFY_FAILED
        return EXIT_OK

    if kind == "bp2wind":
        from .weighted import BinPackingInstance

        bp = BinPackingInstance(
            sizes=tuple(sidecar["sizes"]),
            bins=sidecar["bins"],
            capacity=sidecar["capacity"],
        )
        coloring = PartialColoring(tuple(owners[e] for e in range(reduced.graph.m)))
        assignment = extract_packing(bp, owner_to_orientation(reduced.graph, coloring))
        loads = [0] * bp.bins
        for j, l in enumerate(assignment):
            loads[l] += bp.sizes[j]
        lines = [f"assign i{j + 1} b{l + 1}" for j, l in enumerate(assignment)]
        _write(args.out, "\n".join(lines) + "\n")
        print("loads " + " ".join(str(x) for x in loads))
        if any(x > bp.capacity for x in loads):
            print(f"warning: a bin exceeds capacity {bp.capacity}")
            return EXIT_VERIFY_FAILED
        return EXIT_OK

    raise ValueError(f"unknown reduction kind {kind!r} in sidecar")


# --- approx ------------------------------------------------------------------


def cmd_approx(args) -> int:
    inst = parse_instance(_read(args.instance))
    g = inst.graph
    if args.objective == "wind":
        orientation, value = approx2_wind(g)
        coloring = orientation_to_owner(g, orientation)  # owners are the tails
        objective = "ind"
    else:
        coloring, value = approx4_wstar(g)
        objective = "star"
    print(f"value {value}")
    if args.out:
        _write(args.out, format_solution(inst, coloring, value))
    if g.m <= 24:
        optimum, _ = brute_force_weighted(g, g.weights, objective)
        print(f"optimum {optimum}")
        ratio = value / optimum if optimum else 1.0
        print(f"ratio {ratio:.3f}")
    return EXIT_OK


# --- gen / bench ---------------------------------------------------------------


def cmd_gen(args) -> int:
    spec = GeneratorSpec(
        family=args.family,
        n=args.n,
        m=args.m,
        max_edge_size=args.max_edge_size,
        seed=_default_seed(args.seed),
        cap_rule=args.cap_rule,
    )
    g = generate(spec)
    names = tuple(f"v{v + 1}" for v in range(g.n))
    text = format_instance(Instance(graph=g, node_names=names))
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        a, b = text.split("..", 1)
        return int(a), int(b)
    v = int(text)
    return v, v


def cmd_bench(args) -> int:
    lo, hi = _parse_range(args.nodes)
    steps = max(1, args.steps)
    sizes = sorted({round(lo + (hi - lo) * i / max(1, steps - 1)) for i in range(steps)})
    seed = _default_seed(args.seed)
    print(f"{'nodes':>8} {'edges':>8} {'dfs_ms':>10} {'flow_ms':>10} {'value':>6}")
    for n in sizes:
        m = min(int(args.edge_factor * n), n * (n - 1) // 2)
        g = generate(GeneratorSpec("random", n=n, m=m, seed=seed))
        t0 = time.perf_counter()
        r_dfs = solve(g, "star", "dfs")
        t1 = time.perf_counter()
        r_flow = solve(g, "star", "flow")
        t2 = time.perf_counter()
        if r_dfs.value != r_flow.value:
            print(
                f"internal error: solver disagreement at n={n}: "
                f"dfs={r_dfs.value} flow={r_flow.value}",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
        print(
            f"{n:>8} {m:>8} {1000 * (t1 - t0):>10.1f} {1000 * (t2 - t1):>10.1f} "
            f"{r_dfs.value:>6}"
        )
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
