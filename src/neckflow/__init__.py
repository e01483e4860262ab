"""neckflow: energy-minimizing solver and verification harness for the
nonlinear perfect-conductivity problem with two closely spaced inclusions.

The package solves the p-Dirichlet minimization with floating inclusion
potentials on graded meshes of the perforated domain, extracts neck fluxes
and gradients, and verifies the small-separation asymptotics (blow-up rates,
potential-gap scaling, and the closed-form neck constant) numerically.
"""

from .geometry import (
    INC1, INC2, OUTER, Circle, ConstantPotential, GapProfile, Geometry,
    LinearPotential, NeckPoint, PolyPotential, build_annulus,
    build_parabola_example, build_symmetric_disc_example, build_table_example,
    gap_width, load_geometry_config, model_gap_width,
)
from .meshing import (TriMesh, check_mesh, generate, generate_neck_strip,
                      load_mesh, save_mesh)
from .solver import (SolveConfig, Solution, assemble_energy, solve,
                     uniqueness_probe)
from .analysis import (GradientProbe, annulus_circle_flux, cross_section_flux,
                       decay_fit, gradient_probe, holder_quotient_scan,
                       holder_scan, max_gradient, write_probe_csv)
from .asymptotics import (CRITICAL, SUB, SUPER, AsymptoticPrediction, Regime,
                          blowup_scale, extrapolate_flux,
                          extrapolated_window_rows, fit_ugap_limit,
                          gap_constant, lower_bound_region, neck_integral,
                          neck_integral_limit, predict_expansion)
from .harness import (SweepReport, SweepSpec, compare_prediction, run_case,
                      run_sweep, solve_decay_fixture)
from .errors import (BranchError, FitError, GeometryError, MeshCapacityError,
                     MeshError, NeckflowError, QuadratureError, SolverError)

__version__ = "0.1.0"
