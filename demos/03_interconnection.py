"""
Coupling certified delay systems through their ports
====================================================

Port interconnection u = F y + w stacks any number of systems into one.
A skew F shuffles power between the parts without creating any, so
certificates survive; a symmetric positive F injects energy and eventually
breaks the combined certificate.  Both effects are visible directly in the
smallest eigenvalue of the aggregated block condition.  A ring of three
cells is decided flat, from its parts, and nested, as a closed pair coupled
to the third cell, with the same verdict.
"""

import numpy as np

from phdelay import (
    DelayPHSystem,
    certify_interconnection,
    classify_feedback,
    interconnect,
)

cell = DelayPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], Z=[[1.0]],
                     G=[[1.0]], tau=1.0, theta=[[1.0]])

# a gyrator: my output drives your input and vice versa, with opposite signs
F = np.array([[0.0, 1.0], [-1.0, 0.0]])
print(f"coupling class: {classify_feedback(F)}")

closed = interconnect(cell, cell, F)
print(f"closed loop: n = {closed.n}, m = {closed.m}")
print("J =")
print(closed.J)
print("R =")
print(closed.R)

cert = certify_interconnection(cell, cell, F)
print(f"verdict: {cert.verdict}, min eigenvalue {cert.min_eigenvalue:.3f}")
print()

# symmetric positive feedback u = c*y pumps energy in; the pair tolerates
# it up to c = 3/4 and not an ounce more
print("  c    class             verdict    min eig")
for c in (0.25, 0.5, 0.75, 0.8, 1.0):
    Fc = c * np.eye(2)
    cert = certify_interconnection(cell, cell, Fc)
    print(f" {c:4.2f}  {classify_feedback(Fc):16s}  {cert.verdict:9s}"
          f"  {cert.min_eigenvalue:+.4f}")
print()

# dissipative coupling (negative feedback) only ever helps
Fd = np.array([[-0.5, 1.0], [-1.0, -0.5]])
cert = certify_interconnection(cell, cell, Fd)
print(f"dissipative coupling: {classify_feedback(Fd)} -> {cert.verdict} "
      f"(min eigenvalue {cert.min_eigenvalue:.3f})")
print()

# a ring of three cells: each passes power on to the next, skew again
ring = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
flat = certify_interconnection(cell, cell, cell, ring)
# nested: close the first pair, then couple it to the third cell through
# the rest of the ring
rest = ring.copy()
rest[:2, :2] = 0.0
nested = certify_interconnection(interconnect(cell, cell, ring[:2, :2]), cell, rest)
print(f"ring of three, flat:   {flat.verdict} (min eigenvalue {flat.min_eigenvalue:.3f})")
print(f"ring of three, nested: {nested.verdict} (min eigenvalue {nested.min_eigenvalue:.3f})")
