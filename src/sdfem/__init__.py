"""Streamline diffusion FEM with bilinear elements on Shishkin meshes for
singularly perturbed convection-diffusion problems."""

__version__ = "0.1.0"

from .analysis import (
    DiscreteFunction,
    ErrorReport,
    interpolant,
    layer_integral_oracle,
    pointwise_error_grid,
    rate,
    sd_norm_discrete,
)
from .discretization import QuadratureRule, SparseSystem, assemble_system
from .harness import ExperimentConfig, TableArtifact, emit_table, run_experiment, run_single
from .mesh import Axis1D, AxisSpec, InvalidSpec, RegionSel, ShishkinMesh2D, build_axis, build_mesh
from .problem import PROBLEMS, ExactSolution, NoExactSolution, ProblemSpec, make_benchmark
from .solver import Preconditioner, SolveMethod, SolveStats, SolverConfig, solve
from .stabilization import DeltaField, DeltaVariant, admissible_cstar
