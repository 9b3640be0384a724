"""A functional's margins are the norms of its representation, exactly.

Every PSD matrix W over the sample set induces an inner product on
functions and hence a representation by multiplication operators.  The
eigenvalue margin of W - D* W D against a generator diagonal D decides,
sign for sign, whether that generator acts as a contraction.  The second
identity ties the 2x2 amplification deficiency to a plain trace pairing.
"""

import numpy as np

from neilcone import gns, kernels, linalg
from neilcone.kernels import DEFAULT_SAMPLES

samples = DEFAULT_SAMPLES
x = samples.array()
rng = np.random.default_rng(3)


def tag(p):
    return "infinity" if np.isinf(p) else str(p)

# a full-rank Gram: margins of the identity part keep everything contractive
w = np.eye(len(x), dtype=complex)
space = gns.build_gns(w, samples)
print("W = identity:")
for lam in (np.inf, 0.3, -0.5j):
    psi = kernels.test_fn(lam, x)
    d = np.diag(psi)
    margin = linalg.herm_eigvals_batch((w - d.conj().T @ w @ d)[None])[0, 0]
    norm = gns.rep_norm(space, gns.mult_operator(space, psi))
    print("  %-12s margin %+.4f   multiplier norm %.6f" % (tag(lam), margin, norm))
print()

# a lopsided Gram: one generator's margin goes negative and exactly that
# multiplier climbs above one
v = rng.standard_normal((len(x), 2)) + 1j * rng.standard_normal((len(x), 2))
w = v @ v.conj().T + 1e-6 * np.eye(len(x))
w *= len(x) / np.real(np.trace(w))
space = gns.build_gns(w, samples)
print("W = rank-2 + ridge (nearly degenerate):")
for lam in (np.inf, 0.3, -0.5j):
    psi = kernels.test_fn(lam, x)
    d = np.diag(psi)
    margin = linalg.herm_eigvals_batch((w - d.conj().T @ w @ d)[None])[0, 0]
    norm = gns.rep_norm(space, gns.mult_operator(space, psi))
    print("  %-12s margin %+.4f   multiplier norm %.6f" % (tag(lam), margin, norm))
print("  (the near-degenerate Gram inflates violating norms; the margin's")
print("   sign is what tracks contractivity, and every negative margin")
print("   above pairs with a norm past one)")
print()

# deficiency identity: <(I - A*A)h, h> for the amplified multiplier equals
# trace(W Sigma-hat) for the function's defect kernel
mb = kernels.MatrixBlaschke(0.3 + 0.2j, -0.4, kernels.DEFAULT_UNITARY)
f_vals = kernels.f_eval(mb, x)
space2 = gns.build_gns(np.kron(w, np.eye(2)) / 2.0, samples, block_dim=2)
t = gns.amplified_deficiency(space2, f_vals)
gap = gns.deficiency_matches_kernel(space2, f_vals)
print("amplified deficiency t = %+.6f, trace-pairing gap %.1e" % (t, gap))
