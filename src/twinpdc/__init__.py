"""Twin-beam parametric downconversion: simulation and analysis toolkit.

Builds the joint spectral amplitude of a pulsed type-II waveguide source
from its dispersion data, quantifies the twin-beam indistinguishability
(Schmidt modes, spectral overlap), models photon bunching degraded by
multi-photon emission, and estimates source figures of merit from gated
count records, with a Monte Carlo click simulator as the estimators' oracle.
"""
from .dispersion import DeviceSpec, delta_k, device_spec, pm_tilt_deviation
from .jsa import (FilterSpec, FrequencyGrid, JointAmplitude, PumpSpec, apply_filter,
                  build_jsa, fwhm, jsi_linewidth, marginals, pm_function, pump_envelope)
from .schmidt import (SchmidtData, decompose, delay_compensated_overlap, density_overlap,
                      gain_for_mean_n, mode_means, schmidt_spectral_overlap,
                      spectral_overlap)
from .twinstats import (CountRecord, DetectionSpec, KlyshkoEstimate, MeanPhotonEstimate,
                        VisibilityPoint, fringe_curve, glauber, klyshko, mean_n_from_cross,
                        rate_extrema, visibility_approx, visibility_from_rates,
                        visibility_full)
from .montecarlo import (SimConfig, efficiency_sweep, equal_mode_spectrum,
                         exact_click_probabilities, extrapolate_zero_power, simulate)
from .fit import FitResult, fit_overlap, model_visibility

__version__ = "0.1.0"
