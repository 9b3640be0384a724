"""Build commuting contractions X, Y with X^3 = Y^2 that break von Neumann.

The squaring generators z^2 and z^3 alone cannot explain the kernel of the
test function at mu = 2/5.  The separating functional for that failure
feeds a finite-dimensional representation in which multiplication by z^2
and z^3 gives the pair, and the test function itself becomes a multiplier
of norm visibly above one.
"""

import numpy as np

from neilcone import gns, linalg
from neilcone.cone import ConeProblem, default_grid, dual_search
from neilcone.kernels import DEFAULT_SAMPLES, sigma_kernel, test_fn

samples = DEFAULT_SAMPLES
mu = 0.4
witness = test_fn(mu, samples.array())
# np.inf is the generator z^2 and 0 the generator z^3.
problem = ConeProblem(
    samples, 1, default_grid(), sigma_kernel(witness[:, None, None], samples),
    generator_restriction=(np.inf, 0.0))

print("searching for a functional separating the mu=2/5 kernel from the")
print("two squaring generators ...")
cert = dual_search(problem)
if cert is None:
    print("no certificate; the construction does not launch")
    raise SystemExit(1)
print("  violation %.4e" % cert.violation)
print()

x, y, report = gns.build_noxy(samples, cert.w, witness)
print("pair on a rank-%d space:" % report.rank)
print("  |X|   = %.6f" % report.x_norm)
print("  |Y|   = %.6f" % report.y_norm)
print("  |XY - YX|   = %.2e" % report.commutator_norm)
print("  |X^3 - Y^2| = %.2e" % report.relation_gap)
print("  witness multiplier norm = %.6f" % report.witness_norm)
print()

f = np.linalg.matrix_power  # direct confirmation, outside the report
print("check: |X^3 - Y^2| recomputed = %.2e"
      % linalg.op_norm(f(x, 3) - y @ y))
print("the witness acts with norm > 1 although |X|, |Y| <= 1: the pair")
print("admits no joint unitary dilation compatible with the relation.")
