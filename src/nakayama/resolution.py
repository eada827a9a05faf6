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


def build(algebra: NakayamaAlgebra) -> ResolutionQuiver:
    """The resolution quiver, from one walk along f per unlabelled vertex.

    The walk from vertex i runs until it meets a vertex already labelled
    with a component, or closes a cycle on its own path; either way every
    vertex on the path joins that component.  Vertices are started in
    increasing order, so a component is first reached from its least
    vertex, and the components come out ordered by their least vertex.
    """
    n = algebra.n
    c = algebra.kupisch
    f = targets(c)
    label = [-1] * (n + 1)  # component index of each vertex, -1 while unvisited
    members: list[list[int]] = []
    cycles: list[tuple[tuple[int, ...], int]] = []  # (cycle, weight) per component
    for i in range(1, n + 1):
        new = len(members)
        path = []
        v = i
        while label[v] < 0:
            label[v] = new
            path.append(v)
            v = f[v - 1]
        if label[v] == new:  # the walk closed a cycle on its own path
            cycle = path[path.index(v):]
            start = cycle.index(min(cycle))
            cycle = tuple(cycle[start:] + cycle[:start])
            total = sum(c[u - 1] for u in cycle)
            if total % n != 0:
                raise AssertionError(
                    f"cycle {cycle} has projective length sum {total}, not divisible by n={n}"
                )
            cycles.append((cycle, total // n))
            members.append(path)
        else:
            for u in path:
                label[u] = label[v]
            members[label[v]].extend(path)
    components = tuple(
        Component(vertices=frozenset(vertices), cycle=cycle, weight=weight)
        for vertices, (cycle, weight) in zip(members, cycles)
    )
    return ResolutionQuiver(n=n, f=f, components=components)


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
