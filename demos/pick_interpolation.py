"""Interpolation with a derivative pinned at the origin.

Given nodes and target values, pick_check decides whether some function in
the constrained algebra (f'(0) = 0) matches the data with norm at most one.
Feasibility comes back with a representing measure on generator parameters;
infeasibility comes back with a separating functional.
"""

import numpy as np

from neilcone import kernels
from neilcone.cone import pick_check

# Data manufactured from a single test function: certainly interpolable.
lam = 0.25 * np.exp(2j * np.pi * 3 / 32)
nodes = (0.0, 0.5, -0.5, 0.3j)
targets = kernels.test_fn(lam, np.array(nodes, dtype=complex))

print("nodes:  ", " ".join("%.3g%+.3gj" % (z.real, z.imag)
                           for z in map(complex, nodes)))
print("targets:", " ".join("%.3f%+.3fj" % (v.real, v.imag) for v in targets))
print()

got = pick_check(nodes, targets)
print("full generator family:", got.status,
      "(residual %.2e)" % got.residual)
if got.measure is not None:
    for point, block in zip(got.measure.grid, got.measure.blocks):
        tr = float(np.real(np.trace(block)))
        if tr > 1e-8:
            print("  mass %.4f at %s" % (tr, point))
print()

# The same data against only the squaring generators z^2 and z^3: the
# mass that explained the data above is no longer available, and a
# certificate of impossibility appears instead.  np.inf is the parameter of
# z^2, and 0 that of z^3.
restricted = pick_check(nodes, targets, restriction=(np.inf, 0.0))
print("restricted to the z^2 / z^3 generators:", restricted.status)
if restricted.certificate is not None:
    print("  certificate violation %.4e" % restricted.certificate.violation)
    print("  grid margin           %+.2e" % restricted.certificate.grid_margin)
