"""Analysis layer: parameter sweeps, the paper's claim tables, and table rendering.

The row builders of the claim tables live in :mod:`repro.analysis.claims`.
"""

from .studies import (
    connectivity_convergence_study,
    diameter_study,
    equilibrium_census_study,
    fairness_study,
    hypercube_study,
    max_poa_study,
    max_pos_study,
    poa_spectrum_study,
    regularity_study,
    ring_path_lower_bound_study,
)
from .tables import format_table, format_value, merge_rows

__all__ = [
    "equilibrium_census_study",
    "fairness_study",
    "poa_spectrum_study",
    "diameter_study",
    "regularity_study",
    "hypercube_study",
    "connectivity_convergence_study",
    "ring_path_lower_bound_study",
    "max_poa_study",
    "max_pos_study",
    "format_table",
    "format_value",
    "merge_rows",
]
