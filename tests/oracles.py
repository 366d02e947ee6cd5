"""Reference computations the tests compare the package against."""

import numpy as np


def fd_jacobian(gamma, ctx):
    """Full central-difference jacobian of the fit residual at gamma, every
    coefficient differenced on its own: node times at a tenth of the node
    gap, the others at 1e-7 of their magnitude (at least 1e-7)."""
    is_time = np.zeros(gamma.size, dtype=bool)
    for s in ctx.template.coefficient_layout()[0]:
        is_time[s.times] = True
    J = np.empty((ctx.target.size, gamma.size))
    for i in range(gamma.size):
        h = ctx.min_node_gap / 10.0 if is_time[i] else 1e-7 * max(1.0, abs(gamma[i]))
        gp, gm = gamma.copy(), gamma.copy()
        gp[i] += h
        gm[i] -= h
        J[:, i] = ((ctx.target - ctx.synthesize(gp)) - (ctx.target - ctx.synthesize(gm))) / (2 * h)
    return J
