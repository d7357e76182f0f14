"""Exact balancing and local smoothness certificates for the moduli fan.

At every codimension-1 face the weighted primitive directions of the
adjacent facets must sum into the span of the face; the integral refinement
(integer span + saturated local lattice) certifies smoothness.  Each verdict
carries a witness that a few lines of exact integer arithmetic re-check, so
a "balanced" verdict is a proof.

Run with:  python3 demos/04_balancing_certificates.py
"""

from tropmod import (
    CombinatorialType,
    WeightedFan,
    check_balanced,
    check_smooth_local,
    direction_vector,
    enumerate_types,
    moduli_fan,
    span_witness,
    verify_witness,
)

print("== the full fan is balanced ==")
for n in (4, 5, 6):
    reports = check_balanced(moduli_fan(n))
    print(f"n={n}: {len(reports)} codim-1 faces, all balanced:",
          all(r.balanced for r in reports))
print()

print("== one face in detail (the n=4 origin) ==")
rep = check_balanced(moduli_fan(4))[0]
face = rep.face
for extra, weight in zip(rep.extra_splits, rep.weights):
    cone = CombinatorialType(face.labels, (*face.splits, extra))
    print(f"  facet {cone.text}: weight {weight}, direction {direction_vector(face, extra)}")
print("  weighted sum:", rep.weighted_sum, "-> balanced:", rep.balanced)
print()

print("== a deliberately broken fan fails ==")
rays = {next(iter(t.splits)).key: t for t in enumerate_types(4, 1)}
broken = WeightedFan.of(4, ((rays[(3, 4)], 1), (rays[(2, 4)], 1)))
rep = check_balanced(broken)[0]
print("  two of the three rays only: sum =", rep.weighted_sum,
      "-> balanced:", rep.balanced)
print("  the face has no splits, so the residual is the sum itself:",
      span_witness(rep.face, rep.weighted_sum)[1])
print()

print("== local smoothness (integral refinement) ==")
for n in (4, 5, 6):
    taus = enumerate_types(n, n - 4)
    reports = [check_smooth_local(n, t) for t in taus]
    print(f"n={n}: {len(taus)} codim-1 types, all smooth:",
          all(r.smooth for r in reports),
          "- witnesses verified:", all(verify_witness(r) for r in reports))
print()

print("== the witness at one codim-1 type ==")
rep = check_smooth_local(6, enumerate_types(6, 2)[0])
print("  face", rep.face.text, "- coefficients of its splits:", rep.witness)
print("  minor columns:", rep.minor)
print()
print("Each face split has a quartet coordinate where its direction is +-1 and")
print("every other face direction is 0, so the coefficients are forced, and they")
print("are integers: the sum is in the integer span iff the recombination is")
print("exact.  Saturation: those columns plus two coordinates of the quartet at")
print("the 4-valent vertex give a square minor of determinant +-1.")
