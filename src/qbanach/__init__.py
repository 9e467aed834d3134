"""Numerical laboratory for quasi-(2,beta)-normed spaces: concrete norm
families with randomized axiom verification, the equivalent p-norm envelope,
a fixed-point iteration engine with certified error bounds, the radical
functional equation's continuous solution family, and end-to-end
hyperstability experiments."""

from .envelope import (EnvelopeResult, check_p_triangle, envelope_norm, envelope_norm_rows,
                       theta)
from .fixedpoint import (Branch, IterationSpec, ScalarErrorFn, apply_T, epsilon_star, iterate,
                         load_sample_grid)
from .hyperstab import (ErrorComponent, ErrorModel, ExperimentConfig, ExpansionTable,
                        HyperstabConstants, compute_Qm, constants, expand_T_power,
                        find_M0, radical_iteration_spec, run_experiment, sequences,
                        theorem_bound)
from .radical import (EquationParams, InadmissiblePairError, NoExactSolutionError,
                      Term, VectorFunction, check_structure, make_solution,
                      real_root, residual)
from .spaces import (AxiomReport, SpaceDescriptor, check_axioms, cross_2norm,
                     estimate_kappa, eval_norm, lp_cross, power_space,
                     scaled_space, space_from_dict)

__version__ = "0.1.0"
