"""Photon-pair statistics of a single laser-driven Ca+ ion.

The package models the eight levels of the S1/2, P1/2 and D3/2
manifolds under two-laser drive, and follows the polarization-resolved
397 nm fluorescence three ways: master-equation correlation functions,
steady-state excitation spectra, and Monte Carlo click streams with a
matching coincidence correlator and fitting layer.
"""

__version__ = "0.1.0"

from .params import (ExperimentParams, PRESETS, TWO_PI, format_angle,
                     get_preset, parse_angle)
from .atom import (TRANSITIONS, Transition, build_hamiltonian,
                   build_liouvillian, liouvillian_coefficients,
                   polarization_components, transition_amplitudes,
                   zeeman_shifts)
from .dynamics import Model, NumericalError
from .correlations import (CorrelationCurve, ErrorModel, SpectrumCurve,
                           default_grid, default_spectrum_grid, emission_rate,
                           excitation_spectrum, find_dips, g2_conditioned,
                           g2_pair, g2_total, mean_photon_number,
                           pair_probability, purity, purity_curve,
                           raman_positions, read_table_csv,
                           short_time_exponent, write_table_csv)
from .trajectory import (ClickStream, DetectionConfig, DetectorChannel,
                         detect, ideal_pair_config, simulate_emissions)
from .streams import (StreamFormatError, load_stream, read_stream,
                      save_stream, write_stream)
from .correlator import (CorrelatorConfig, Correlogram,
                         conditioned_g2_estimate, correlate,
                         correlate_brute_force)
from .fitting import DataSet, FitResult, fit_g2_joint, fit_spectrum

__all__ = [
    "ExperimentParams", "PRESETS", "TWO_PI", "format_angle", "get_preset",
    "parse_angle",
    "TRANSITIONS", "Transition", "build_hamiltonian", "build_liouvillian",
    "liouvillian_coefficients", "polarization_components",
    "transition_amplitudes", "zeeman_shifts",
    "Model", "NumericalError",
    "CorrelationCurve", "ErrorModel", "SpectrumCurve",
    "default_grid", "default_spectrum_grid", "emission_rate",
    "excitation_spectrum", "find_dips", "g2_conditioned", "g2_pair",
    "g2_total", "mean_photon_number", "pair_probability", "purity",
    "purity_curve", "raman_positions", "read_table_csv",
    "short_time_exponent", "write_table_csv",
    "ClickStream", "DetectionConfig", "DetectorChannel", "detect",
    "ideal_pair_config", "simulate_emissions",
    "StreamFormatError", "load_stream", "read_stream", "save_stream",
    "write_stream",
    "CorrelatorConfig", "Correlogram", "conditioned_g2_estimate",
    "correlate", "correlate_brute_force",
    "DataSet", "FitResult", "fit_g2_joint", "fit_spectrum",
]
