"""Recoil diffusion and motional decoherence of nanoparticles that emit
surface adsorbates or outgas into vacuum.

The library evaluates, from a particle geometry and a spectral flux
density of emitted atoms: the 6x6 ro-translational momentum diffusion
tensor, the thermophoresis-like force and torque, localization rates of
spatio-orientational coherences, emission-rate estimates from empirical
outgassing data, and a Monte Carlo kick simulator that validates the
diffusive predictions.
"""

__version__ = "0.1.0"

from .constants import HBAR, KB, TORR_L_PER_CM2_S
from .decoherence import (CoherenceRow, DecoherenceQuadrature, LocalizationRate,
                          PosePair, coherence_map, localization_rate)
from .errors import (AngleOutOfRange, CoincidentPoints, ConfigError,
                     DegenerateMesh, DesorbError, NegativeEnergy, NonFinite,
                     NotUnit, QuadratureNotConverged, ZeroNorm)
from .flux import (CosineDirection, CosineLaw, EmissionSample, FixedDirection,
                   Isotropic, IsotropicDirection, SingleSite, TabulatedFlux,
                   flux_eval, outgas_rate, total_rate)
from .geometry import (BodySpec, Box, Cylinder, Mesh, Sphere, SurfaceQuadrature,
                       build_quadrature, cube_mesh, read_obj, surface_moment)
from .moments import (AngularQuadrature, Diffusion6, EnergyQuadrature,
                      ForceTorque6, analytic_cosine_tensor, diffusion_tensor,
                      force_torque, predict_moments, spectral_momentum_moments,
                      transport)
from .montecarlo import (ComparisonReport, EnsembleMoments,
                         compare_to_prediction, simulate_ensemble)
from .rotations import (Pose, momentum_from_energy, polar_project,
                        random_rotation, rotation_from_w, skew,
                        w_from_rotations)
from .rng import stream
from .spectra import MaxwellBoltzmannFlux, Monoenergetic, TabulatedSpectrum
from .amplitudes import (DesorptionJump, SourceSpec, TabulatedAmplitude,
                         amplitude_norms, desorption_jump_from_flux,
                         free_green, jump_magnitude_squared,
                         radial_amplitude_extraction, read_amplitude_csv,
                         transparent_amplitude, transparent_site_flux)
