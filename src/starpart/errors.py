"""Exception types shared across the package."""


class StarPartError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGraph(StarPartError):
    """A graph needs at least one node."""


class Disconnected(StarPartError):
    """Disconnected inputs are rejected rather than solved per component.

    The paper defines the problem on connected graphs, and ``closed_form``
    assumes connectivity: on the path 1-0-2 plus an isolated node 3 it
    reports 2, while the optimum is 1.  The check guards outside input,
    so it stays.
    """


class DuplicateEdgeInSimple(StarPartError):
    """A simple graph may contain each endpoint pair at most once."""


class SelfLoopInSimple(StarPartError):
    """A loop edge appeared in a graph kind that forbids loops."""


class NonLinearHypergraph(StarPartError):
    """Two hyperedges share more than one node.

    Carries the offending pair so callers can report it.
    """

    def __init__(self, edge_a: int, edge_b: int, shared: tuple[int, ...]):
        self.edge_a = edge_a
        self.edge_b = edge_b
        self.shared = shared
        super().__init__(
            f"edges {edge_a} and {edge_b} share {len(shared)} nodes {shared}; "
            "a linear hypergraph allows at most one"
        )


class IncompleteColoring(StarPartError):
    """An operation that needs a complete coloring received a partial one."""


class InvalidColoring(StarPartError):
    """A coloring violates an owner or capacity constraint."""


class UnsupportedKind(StarPartError):
    """The operation is not defined for this graph kind."""


class CapacitiesPresent(StarPartError):
    """The operation requires a graph without effective node capacities."""


class TooLarge(StarPartError):
    """The instance exceeds the brute-force enumeration guard."""


class NotPseudoforest(StarPartError):
    """A component has more edges than nodes where a pseudoforest is needed."""


class NoOutgoingEdge(StarPartError):
    """An item node of a packing orientation has no outgoing edge."""


class InvalidSpec(StarPartError):
    """A generator specification is malformed."""


class ParseError(StarPartError):
    """A text instance or solution file could not be parsed."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
