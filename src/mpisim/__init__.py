"""Field-free-line magnetic particle imaging: forward models, system
matrices, LSQR reconstruction and a filtered-back-projection baseline."""

from .errors import (ConfigError, HashMismatchError, MissingInputError,
                     MpiSimError, ResourceCapError, UnsupportedTopologyError)
from .fields import (MU0, FieldEvaluator, FieldModel, LineLocus, SHTerm,
                     TimeModulation, build_topology, eval_field, eval_field_dt,
                     eval_harmonic_polynomial, eval_spherical_harmonic,
                     ffl_locus, ffp_position, lfv_mask, load_field_coefficients,
                     perturb_field, write_field_coefficients)
from .magnetization import (LangevinParams, MagnetizationApprox, build_approx,
                            langevin, langevin_derivative, l1_functional, mbar,
                            mbar_prime, mbar_second, nodes_equidistant,
                            nodes_l1_optimal, sup_second_derivative)
from .phantom import (ConcentrationGrid, build_disc_phantom, empty_grid,
                      line_profile, load_grid, save_grid, save_pgm)
from .forward import (AcquisitionConfig, ReceiveCoil, SignalTrace, add_noise,
                      apply_highpass, coil_along, load_trace_bin,
                      load_trace_csv, save_trace_bin, save_trace_csv,
                      simulate_general, simulate_parallel, simulate_piecewise)
from .sysmat import (SystemMatrix, apply_highpass_rows, build_system_matrix,
                     config_hash, load_system_matrix, save_system_matrix,
                     stack_coils)
from .recon import (LsqrOptions, LsqrResult, lsqr_solve, nrmse, optimal_scale,
                    profile_compare)
from .fbp import (ScanGeometry, Sinogram, fbp_reconstruct, radon_transform,
                  signal_to_sinogram, subtract_edge_baseline, zero_pad)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
