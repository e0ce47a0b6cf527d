"""Independent oracles for the flow evaluator.

* :func:`reference_loads` — every pair routed by materializing
  :class:`~repro.routing.path.Path` objects and accumulating loads link
  by link in pure Python: slow but obviously correct.  It checks
  :func:`repro.flow.loads.link_loads`.
* :func:`loop_mloads` — one :func:`~repro.flow.loads.link_loads` call
  per permutation.  It checks the stacked
  :func:`repro.flow.loads.permutation_mloads`, which must give the same
  floats bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.flow.loads import link_loads
from repro.flow.metrics import max_link_load
from repro.traffic.permutations import permutation_matrix


def reference_loads(xgft, scheme, tm):
    loads = np.zeros(xgft.n_links)
    s_arr, d_arr, amounts = tm.network_pairs()
    for s, d, amount in zip(s_arr, d_arr, amounts):
        rs = scheme.route(int(s), int(d))
        for path, frac in zip(rs.paths(xgft), rs.fractions):
            for link in path.links:
                loads[link] += amount * frac
    return loads


def loop_mloads(xgft, scheme, perms) -> np.ndarray:
    return np.array([
        max_link_load(link_loads(xgft, scheme, permutation_matrix(p)))
        for p in np.atleast_2d(perms)
    ])
