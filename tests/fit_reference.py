"""Test-side reference for the fit's box start.

:func:`tsui.fitting._box_start` scores its candidates on a table of
unit-scale coefficients, as 10 log10(a . (1, 2 lam, lam^2)), in bounded
chunks.  :func:`grid_box_start` takes the same start the long way: the
clipped map and the whole 25 x 21 grid evaluated at once through
:func:`tsui.metrology.joint_variance`, one (526, n) array, and the lowest
chi^2 by ``np.argmin``.  It takes the same arguments, so a test can put it
in the fit's place and compare.
"""

import numpy as np

from tsui import fitting
from tsui.metrology import joint_variance


def grid_box_start(b, shapes, basis, lam, y, sigma, lower, upper, offset):
    """Chart start (u, v, scale_db) of the clipped map or the best grid
    point, whichever has the lower chi^2; ``basis`` is unused."""
    eta_c = float(np.clip(shapes[0, 1] if len(shapes) else upper[1], lower[1], upper[1]))
    if fitting._face_gain(b, eta_c, offset) == 1.0:
        eta_c = lower[1]
    gain = min(fitting._face_gain(b, eta_c, offset), upper[0])
    grid = np.meshgrid(
        np.sqrt(np.geomspace(fitting._GRID_FLOOR, upper[0] - lower[0], fitting._GRID_GAINS)),
        np.sqrt(np.linspace(0.0, upper[1] - lower[1], fitting._GRID_ETAS)),
        indexing="ij",
    )
    clipped = np.sqrt([gain, eta_c] - lower[:2])
    roots = np.vstack([clipped, np.column_stack([v.ravel() for v in grid])])
    gain, eta_c = (lower[:2, None] + roots.T**2)[..., None]
    model = 10.0 * np.log10(joint_variance(gain, eta_c - offset, eta_c, lam))
    weights = sigma**-2.0 / np.sum(sigma**-2.0)
    scale_db = np.clip((y - model) @ weights, lower[2], upper[2])
    best = np.argmin(np.sum(((model + scale_db[:, None] - y) / sigma) ** 2, axis=1))
    return np.append(roots[best], scale_db[best])
