"""Seeded R-MAT graphs and the files the workloads read.

R-MAT (Chakrabarti, Zhan, Faloutsos, SDM 2004) with the Graph500
quadrant probabilities a, b, c = .57, .19, .19: each edge picks one
quadrant per bit of the vertex index.  Vertex labels are then permuted,
as Graph500 does, so hubs and isolated vertices are spread over the index
range instead of clustering at low and high indices.
"""

from __future__ import annotations

import random

A, B, C = 0.57, 0.19, 0.19


def rmat_edges(scale: int, edge_factor: int, rng: random.Random) -> list:
    """edge_factor * 2**scale directed samples (u, v); duplicates and
    self-loops are kept, callers pick the version they need."""
    n = 1 << scale
    ab, abc = A + B, A + B + C
    draw = rng.random
    edges = []
    for _ in range(edge_factor * n):
        u = v = 0
        for _bit in range(scale):
            r = draw()
            u <<= 1
            v <<= 1
            if r < A:
                pass
            elif r < ab:
                v |= 1
            elif r < abc:
                u |= 1
            else:
                u |= 1
                v |= 1
        edges.append((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def directed(samples) -> list:
    """Distinct directed edges, sorted; self-loops kept."""
    return sorted(set(samples))


def undirected(samples, loops: bool = True) -> list:
    """Distinct undirected edges as (min, max) pairs, sorted."""
    out = {(min(u, v), max(u, v)) for u, v in samples if loops or u != v}
    return sorted(out)


def ring(n: int) -> list:
    """Undirected cycle 0-1-...-(n-1)-0 as (min, max) pairs."""
    return [(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)]


def weighted(edges, rng: random.Random) -> list:
    """Attach an integer weight from 1 to 9 to every edge."""
    return [(u, v, rng.randint(1, 9)) for u, v in edges]


def write_tsv(path, edges) -> int:
    """Write `u v` or `u v w` lines; returns the bytes written."""
    text = "".join("\t".join(map(str, e)) + "\n" for e in edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text)


def mirrored(edges) -> list:
    """Both directions of every undirected edge, self-loops once, keeping
    any weight."""
    out = []
    for e in edges:
        out.append(tuple(e))
        if e[0] != e[1]:
            out.append((e[1], e[0], *e[2:]))
    return out


def dimension(edges) -> int:
    """Vertex count the sgk edge-list reader infers: 1 + largest index."""
    return 1 + max(max(e[0], e[1]) for e in edges)
