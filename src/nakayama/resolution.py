"""Resolution quiver of a Nakayama algebra.

The resolution quiver R has the same vertices 1..n as the cycle and one
arrow i -> f(i), where f(i) = i + c_i mod n (Gustafson's function): P_i has
socle S_{f(i)-1}.  Every vertex has out-degree one, so each connected
component contains exactly one oriented cycle, and the sum of the c_i over
a cycle is divisible by n; the quotient is the weight of the component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import NakayamaAlgebra


@dataclass(frozen=True)
class Component:
    vertices: frozenset[int]
    cycle: tuple[int, ...]
    weight: int


@dataclass(frozen=True)
class ResolutionQuiver:
    n: int
    f: tuple[int, ...]
    components: tuple[Component, ...]

    def target(self, i: int) -> int:
        return self.f[i - 1]

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(comp.weight for comp in self.components)

    @property
    def cycle_vertices(self) -> frozenset[int]:
        return frozenset(v for comp in self.components for v in comp.cycle)


def targets(kupisch: tuple[int, ...]) -> tuple[int, ...]:
    """Gustafson's function on every vertex of the Kupisch series: entry
    i-1 is the target of the arrow at i."""
    n = len(kupisch)
    return tuple((i + c) % n + 1 for i, c in enumerate(kupisch))


def _walk(kupisch: tuple[int, ...], f: tuple[int, ...]) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """One walk along f from each vertex that no earlier walk reached.

    Walks start in increasing order and run until they meet a vertex
    reached before.  A walk that meets its own path has closed a cycle,
    and its start is the least vertex of a new component; any other walk
    joins the component of the vertex it met.  Returns (walk, least,
    cycles): walk[v] is the start of the walk that reached v, least[i] is
    the least vertex of the component of the walk from i, and cycles holds,
    per component in the order of their least vertices, a vertex on its
    cycle and its weight, the sum of c over the cycle divided by n.
    """
    n = len(kupisch)
    walk = [0] * (n + 1)
    least = [0] * (n + 1)
    cycles = []
    for i in range(1, n + 1):
        if walk[i]:
            continue
        v = i
        while not walk[v]:
            walk[v] = i
            v = f[v - 1]
        if walk[v] != i:
            least[i] = least[walk[v]]
            continue
        least[i] = i
        total, u = kupisch[v - 1], f[v - 1]
        while u != v:
            total += kupisch[u - 1]
            u = f[u - 1]
        if total % n:
            raise AssertionError(
                f"the cycle through {v} has projective length sum {total}, not divisible by n={n}"
            )
        cycles.append((v, total // n))
    return walk, least, cycles


def weights(kupisch: tuple[int, ...], f: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """The weights of the components, ordered by least vertex, from one walk
    along f (`targets(kupisch)` unless given) that builds no component."""
    return tuple(w for _, w in _walk(kupisch, targets(kupisch) if f is None else f)[2])


def build(algebra: NakayamaAlgebra, f: tuple[int, ...] | None = None) -> ResolutionQuiver:
    """The resolution quiver: its components, ordered by least vertex, with
    their vertices and cycles, read off the walk of `weights` along f
    (unless given, the algebra's targets, computed once per algebra object:
    see `NakayamaAlgebra.fact`)."""
    c = algebra.kupisch
    if f is None:
        f = algebra.fact("targets", targets)
    walk, least, cycles = _walk(c, f)
    members: dict[int, list[int]] = {}
    for v in range(1, algebra.n + 1):
        # a component's least vertex comes first, so the keys are in order
        members.setdefault(least[walk[v]], []).append(v)
    components = []
    for vertices, (v, weight) in zip(members.values(), cycles):
        cycle = [v]
        while f[cycle[-1] - 1] != v:
            cycle.append(f[cycle[-1] - 1])
        start = cycle.index(min(cycle))
        components.append(
            Component(vertices=frozenset(vertices), cycle=tuple(cycle[start:] + cycle[:start]), weight=weight)
        )
    return ResolutionQuiver(n=algebra.n, f=f, components=tuple(components))


def leaves(rq: ResolutionQuiver) -> frozenset[int]:
    """Vertices that are not the target of any arrow."""
    return frozenset(range(1, rq.n + 1)) - frozenset(rq.f)


def to_dot(rq: ResolutionQuiver) -> str:
    """DOT digraph; cycle edges bold, one weight comment line per component."""
    lines = ["digraph resolution_quiver {"]
    for comp in rq.components:
        lines.append(f"  // component {min(comp.vertices)}: weight {comp.weight}")
    for i in range(1, rq.n + 1):
        lines.append(f'  {i} [label="{i}"];')
    cycle_vertices = rq.cycle_vertices
    for i in range(1, rq.n + 1):
        style = " [style=bold]" if i in cycle_vertices else ""
        lines.append(f"  {i} -> {rq.target(i)}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
