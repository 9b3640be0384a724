"""Why the compression pair needs its own dilation theorem.

A cyclic shift U models multiplication on the circle; compressing U^2 and
U^3 to the span of e_0 and e_2..e_K gives commuting contractions X, Y with
X^3 = Y^2.  The subspace is invariant for U^2 but not for U^3: the vector
e_3 is orthogonal to everything U^2 reaches, yet U^3 e_0 lands on it
exactly.  So no argument that only dilates U^2 can recover Y.
"""

import numpy as np

from neilcone import dilation

report = dilation.no_T_obstruction(window=8)
print("window K=%d, subspace spans e_0 and e_2..e_%d"
      % (report.window, report.window))
print("  max |<U^2 h, e_3>| over the subspace: %.2e" % report.max_overlap)
print("  <U^3 e_0, e_3> = %s" % report.cube_overlap)
print()

# The compression itself is faithful on low-degree words: build it
# explicitly and compare X^a Y^b against the compressed powers of U.
u, _, embed = dilation.truncated_shift(window=8)
x = embed.conj().T @ np.linalg.matrix_power(u, 2) @ embed
y = embed.conj().T @ np.linalg.matrix_power(u, 3) @ embed

check = dilation.cc_dilation_verify(x, y, u, embed, n_max=5)
print("compression check against powers of the shift:")
for degree, dev in check.deviations:
    print("  degree %d   deviation %.2e" % (degree, dev))
print("  commutator %.2e   relation gap %.2e"
      % (check.commutator_norm, check.relation_gap))
