"""Loop distribution and vectorization (Allen-Kennedy-style codegen).

The classic consumer of exact direction vectors: given statements in a
shared loop nest, build the statement-level dependence graph, condense
it into strongly connected components, and recurse:

* an SCC with **no** internal dependence at or below the current level
  becomes a **vector statement** — every remaining loop dimension runs
  data-parallel;
* an SCC whose internal dependences are all carried *deeper* keeps the
  current loop **parallel** and recurses inward;
* an SCC with a dependence carried at the current level gets a
  **serial** loop; serializing it satisfies every edge whose direction
  at this level is ``<``, which is removed before recursing.

Distinct SCCs are *distributed*: each gets its own copy of the loop,
emitted in topological order of the condensation — exactly the
loop-distribution transformation, whose legality rests on the
dependence directions being exact.  Inexact analysis (extra "assumed"
dependence edges) directly translates into fused, serialized loops;
this module is where the paper's exactness pays off in generated code.

Statements must share an identical loop nest (the canonical
vectorization setting); see :func:`vectorize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analyzer import DependenceAnalyzer
from repro.core.graph import build_graph
from repro.ir.program import Program, Statement
from repro.system.depsystem import Direction

__all__ = [
    "vectorize",
    "VectorizationResult",
    "SerialLoop",
    "ParallelLoop",
    "VectorStatement",
    "ScalarStatement",
]


# -- result tree ----------------------------------------------------------------


@dataclass
class VectorStatement:
    """A statement whose remaining dimensions all run data-parallel."""

    stmt: Statement
    vector_levels: tuple[int, ...]

    def render(self, indent: int = 0) -> list[str]:
        dims = (
            ", ".join(self.stmt.nest[l].var for l in self.vector_levels)
            or "scalar"
        )
        return ["  " * indent + f"VECTOR[{dims}] {self.stmt.write} = ..."]


@dataclass
class ScalarStatement:
    """A statement emitted inside fully materialized loops."""

    stmt: Statement

    def render(self, indent: int = 0) -> list[str]:
        return ["  " * indent + f"{self.stmt.write} = ..."]


@dataclass
class SerialLoop:
    level: int
    var: str
    body: list = field(default_factory=list)

    def render(self, indent: int = 0) -> list[str]:
        out = ["  " * indent + f"DO {self.var} (serial)"]
        for node in self.body:
            out.extend(node.render(indent + 1))
        return out


@dataclass
class ParallelLoop:
    level: int
    var: str
    body: list = field(default_factory=list)

    def render(self, indent: int = 0) -> list[str]:
        out = ["  " * indent + f"DOALL {self.var} (parallel)"]
        for node in self.body:
            out.extend(node.render(indent + 1))
        return out


@dataclass
class VectorizationResult:
    """The distributed/vectorized program shape."""

    nodes: list
    depth: int

    def render(self) -> str:
        out: list[str] = []
        for node in self.nodes:
            out.extend(node.render())
        return "\n".join(out)

    def count(self, kind) -> int:
        total = 0

        def walk(nodes):
            nonlocal total
            for node in nodes:
                if isinstance(node, kind):
                    total += 1
                if isinstance(node, (SerialLoop, ParallelLoop)):
                    walk(node.body)

        walk(self.nodes)
        return total


# -- edge bookkeeping -------------------------------------------------------------


def _carried_at(vector: tuple[str, ...], level: int) -> bool:
    """Could this dependence be carried by loop ``level``?"""
    if level >= len(vector):
        return False
    if vector[level] == Direction.EQ:
        return False
    return all(
        vector[j] in (Direction.EQ, Direction.ANY) for j in range(level)
    )


def _satisfied_by_serial(vector: tuple[str, ...], level: int) -> bool:
    """A serial loop at ``level`` satisfies strictly-forward edges."""
    return level < len(vector) and vector[level] == Direction.LT


@dataclass(frozen=True)
class _Edge:
    src: int  # statement index
    dst: int
    vector: tuple[str, ...]


def _statement_edges(
    program: Program, analyzer: DependenceAnalyzer
) -> list[_Edge]:
    return [
        _Edge(src=src, dst=dst, vector=edge.vector)
        for src, dst, edge in build_graph(program, analyzer).statement_edges()
    ]


# -- Tarjan SCC + topological condensation ----------------------------------------


def _condense(nodes: list[int], edges: list[_Edge]) -> list[list[int]]:
    """SCCs of the subgraph on ``nodes``, in topological order."""
    node_set = set(nodes)
    adjacency: dict[int, list[int]] = {n: [] for n in nodes}
    for edge in edges:
        if edge.src in node_set and edge.dst in node_set:
            adjacency[edge.src].append(edge.dst)

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]

    def strongconnect(v: int) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in adjacency[v]:
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            scc = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                scc.append(w)
                if w == v:
                    break
            sccs.append(sorted(scc))

    for v in nodes:
        if v not in index:
            strongconnect(v)
    # Tarjan emits SCCs in reverse topological order.
    sccs.reverse()
    return sccs


# -- the codegen recursion -----------------------------------------------------------


def vectorize(
    program: Program, analyzer: DependenceAnalyzer | None = None
) -> VectorizationResult:
    """Distribute and vectorize a program whose statements share a nest."""
    if not program.statements:
        return VectorizationResult(nodes=[], depth=0)
    nest = program.statements[0].nest
    for stmt in program.statements:
        if stmt.nest != nest:
            raise ValueError(
                "vectorize() requires all statements to share one loop nest"
            )
    if analyzer is None:
        analyzer = DependenceAnalyzer()
    edges = _statement_edges(program, analyzer)
    stmts = list(range(len(program.statements)))

    def codegen(group: list[int], level: int, live: list[_Edge]) -> list:
        if level == nest.depth:
            ordered = _order_leaves(group, live)
            return [
                ScalarStatement(program.statements[s]) for s in ordered
            ]
        out = []
        for scc in _condense(group, live):
            internal = [
                e for e in live if e.src in set(scc) and e.dst in set(scc)
            ]
            if len(scc) == 1 and not any(
                e.src == e.dst == scc[0] for e in internal
            ):
                out.append(
                    VectorStatement(
                        program.statements[scc[0]],
                        tuple(range(level, nest.depth)),
                    )
                )
                continue
            if not any(_carried_at(e.vector, level) for e in internal):
                loop = ParallelLoop(level, nest[level].var)
                loop.body = codegen(scc, level + 1, internal)
            else:
                survivors = [
                    e
                    for e in internal
                    if not _satisfied_by_serial(e.vector, level)
                ]
                loop = SerialLoop(level, nest[level].var)
                loop.body = codegen(scc, level + 1, survivors)
            out.append(loop)
        return out

    return VectorizationResult(
        nodes=codegen(stmts, 0, edges), depth=nest.depth
    )


def _order_leaves(group: list[int], edges: list[_Edge]) -> list[int]:
    """Topological order of the (acyclic at leaf level) remaining edges.

    Falls back to program order on any residual cycle — program order
    is always a safe sequential schedule.
    """
    group_set = set(group)
    preds: dict[int, set[int]] = {n: set() for n in group}
    for edge in edges:
        if edge.src in group_set and edge.dst in group_set and edge.src != edge.dst:
            preds[edge.dst].add(edge.src)
    ordered: list[int] = []
    remaining = set(group)
    while remaining:
        ready = sorted(
            n for n in remaining if not (preds[n] & remaining)
        )
        if not ready:
            ordered.extend(sorted(remaining))
            break
        ordered.extend(ready)
        remaining -= set(ready)
    return ordered
