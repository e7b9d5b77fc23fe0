"""sepwit: entanglement witnesses for bosons, fermions, and
distinguishable subsystems via separability-eigenvalue optimization."""

from .tensor import (MATRIX_CAP, PERM_CAP, VECTOR_CAP, DensityOperator,
                     Permutation, SpaceConfig, StateVector, Statistics,
                     apply_permutation, basis_product_vector, flatten_index,
                     hermiticity_defect, partial_trace_first, product_vector,
                     project, project_operator, projector_matrix,
                     subspace_dimension, symmetrize_operator, unflatten_index)
from .decompositions import (BosonProductDecomposition, BosonSlater,
                             FermionSlater, SchmidtDecomposition,
                             boson_product_decompose, numerical_rank, schmidt,
                             slater_boson, slater_fermion, takagi_skew,
                             takagi_symmetric)
from .operators import (LowRankObservable, SectorObservable,
                        interference_observable, rank_one_observable,
                        sector_observable)
from .solver import (InterferenceAnalysis, Partition, SevalueProblem,
                     SevalueSolution, SupremumResult, all_partitions,
                     analytic_interference, analytic_rank_one,
                     brute_force_bound, partitions_into, solve_sup_g,
                     sweep_solve, transform_solution, transformed_observable,
                     verify_second_form)
from .witness import (Witness, WitnessForm, WitnessVerdict, build_k_witness,
                      build_witness, detect, expectation,
                      schmidt_number_bound, sector_deviation, witness_matrix)
from .states import (GhzFamily, appendix_b_states, dephased_ghz,
                     detection_threshold, fig1_bound, fig1_state_family,
                     ghz_expectation, ghz_state, noisy_state, sinc)
from . import errors

__version__ = "0.1.0"
