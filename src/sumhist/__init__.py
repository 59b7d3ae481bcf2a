"""Finite groupoid convolution algebras, positive-type states, grid histories,
and sum-over-histories propagators with exact oracle checks."""

from .algebra import (GroupoidMeasure, MeasureError, adjoint_matrix, convolve,
                      counting_measure, delta_element, inner, integrate,
                      involute, left_regular, modular_function, unit_element)
from .action import (ANCHORED, EUCLIDEAN, INCREMENTAL, REAL_PHASE, HistoryState,
                     Lagrangian, NormalizationError, StateSpec, SymmetryError,
                     action, asymmetric_morphisms, check_symmetry,
                     classical_restriction, energy_lagrangian,
                     energy_lagrangian_from_metric, family_certificate,
                     family_form_matrix, family_form_value, family_gns_vector,
                     full_interval_family, state_from_lagrangian,
                     uniform_state_spec, zero_lagrangian)
from .geometry import CircleLattice, LineLattice
from .groupoid import (CompositionError, FiniteGroupoid, GroupoidFormatError,
                       InvalidGroupError, UNDEFINED, ValidationReport, Violation,
                       builtin_groupoid, cyclic_groupoid, group_groupoid,
                       load_groupoid_file, pair_groupoid, product_with_group,
                       resolve_groupoid, save_groupoid_file, validate_axioms)
from .histories import (FUTURE, PAST, ChainError, GridError, History,
                        HistoryWord, TimeGrid, accumulated, change_reference,
                        compose_histories, count_histories, enumerate_histories,
                        from_links, invert_history, link_walks, links_of,
                        reduce_word, restrict, total_histories, trivial_history)
from .propagator import (ConvergenceRow, PropagatorTable, SliceConfig,
                         VelocityPath, circle_convergence, circle_propagator,
                         circle_propagators, errors_decrease,
                         finite_propagator, fsum_complex, gaussian_recursion,
                         history_to_velocity_path, image_sum_circle_kernel,
                         lattice_line_propagator, line_convergence,
                         line_kernel, propagator_table, reproducing_residual,
                         sliced_line_propagator, sliced_line_propagators,
                         transfer_matrix, transfer_oracle_table,
                         transfer_power, velocity_form_propagator,
                         velocity_path_to_history)
from .states import (FactorizedForm, PhaseState, PositivityCertificate,
                     certify_positive_type, gns_matrix, gns_norm_sq,
                     gns_vector, is_normalized, positivity_form, state_value)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
