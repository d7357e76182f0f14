"""Combinatorial types of marked trees, their face structure, and the
Petersen link of the 5-marked moduli space.

Run with:  python3 demos/02_types_and_link.py
"""

from tropmod import (
    CombinatorialType,
    contract,
    count_rays,
    enumerate_types,
    link_graph,
    resolutions,
    to_tree,
    valence_profile,
)

print("== enumeration ==")
for n in (4, 5, 6, 7):
    facets = enumerate_types(n, n - 3)
    print(f"n={n}: {len(facets):5d} trivalent types, {count_rays(n):3d} rays")
print()

print("== a type and its realization ==")
caterpillar = CombinatorialType.of(5, [(4, 5), (3, 4, 5)])
print("type:", caterpillar.text, "| valences:", valence_profile(caterpillar))
tree = to_tree(caterpillar)
for i, v in enumerate(tree.vertices):
    print(f"  vertex {i}: leaves {sorted(v.leaves)}, {len(v.splits)} bounded edge(s)")
print()

print("== faces and resolutions ==")
ray = contract(caterpillar, min(caterpillar.splits, key=lambda s: s.key))
print("contracting one edge gives the face:", ray.text, valence_profile(ray))
print("its three resolutions:")
for rho in resolutions(ray):
    print("  ", rho.text)
print()

print("== the link of the origin for n=5 ==")
graph = link_graph(5)
print(f"{len(graph.vertices)} vertices, {len(graph.edges)} edges, degrees {set(graph.degrees())}")
print("this is the Petersen graph; each edge is one of the 15 quadrants:")
for (a, b), quadrant in list(zip(graph.edges, graph.quadrants))[:5]:
    va = next(iter(graph.vertices[a].splits)).text
    vb = next(iter(graph.vertices[b].splits)).text
    print(f"  ray {va} -- ray {vb}   via {quadrant.text}")
print("  ...")
