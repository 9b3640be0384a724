"""Certify that the two-zero matrix product sits outside the test-function cone.

The product has Blaschke zeros at +1/2 and -1/2 mixed by the normalized
Hadamard unitary, so it is inner and contractive against every single test
function.  The dual search below finds a functional that is nonnegative on
all generator kernels yet strictly negative on the product's kernel, and
the representation built from that functional exhibits the 2x2 amplification
dipping past norm one.  The search is one small sum-of-squares solve, so
the full run takes a few seconds.
"""

import time

import numpy as np

from neilcone.cone import (ConeProblem, default_grid, dual_search,
                           validate_certificate)
from neilcone.gns import amplified_deficiency, build_gns, rep_norm_sweep
from neilcone.kernels import (DEFAULT_SAMPLES, DEFAULT_UNITARY,
                              MatrixBlaschke, diagonality_test, f_eval,
                              sigma_kernel, test_fn)


def main():
    samples = DEFAULT_SAMPLES
    mb = MatrixBlaschke(0.5, -0.5, DEFAULT_UNITARY)
    print("zeros:          +1/2, -1/2")
    print("mixing unitary: normalized Hadamard")
    print("degenerate diagonal mixing?", diagonality_test(mb))
    print()

    f_vals = f_eval(mb, samples.array())
    target = sigma_kernel(f_vals, samples)
    problem = ConeProblem(samples, 2, default_grid(), target)
    print("searching for a separating functional over the whole disk ...")
    t0 = time.monotonic()
    cert = dual_search(problem)
    print("  done in %.1fs" % (time.monotonic() - t0))
    if cert is None:
        print("no certificate found; nothing to report")
        return
    print("  grid margin  %+.3e   (>= 0 means positive on every generator)"
          % cert.grid_margin)
    print("  violation    %+.6e   (< 0 means negative on the target)"
          % cert.violation)
    print()

    report = validate_certificate(cert, problem)
    print("audit over %d parameters (search grid and dense rings):"
          % report.grid_size)
    print("  worst margin %+.3e at %s" % (report.worst_margin,
                                          report.worst_point))
    print("  boundary modulus estimate %.3f" % report.modulus_estimate)
    print()

    space = build_gns(cert.w, samples, block_dim=2)
    lam_grid = problem.audit_grid
    values = test_fn(lam_grid[:, None], samples.array())
    norms = rep_norm_sweep(space, values)
    k = int(np.argmax(norms))
    print("representation on a rank-%d space:" % space.rank)
    print("  max multiplier norm over %d test functions: %.9f (at %s)"
          % (len(lam_grid), float(norms[k]), lam_grid[k]))

    t = amplified_deficiency(space, f_vals)
    print("  2x2 amplification deficiency t = %+.6e" % t)
    print("  certificate violation          = %+.6e" % cert.violation)
    print()
    print("every scalar multiplier stays contractive, yet t < 0 forces the")
    print("amplified norm above one: the representation is contractive but")
    print("not completely contractive.")


if __name__ == "__main__":
    main()
