"""Point scatterers on flat tori: spectra, Green's sums, secular roots,
eigenfunction functionals and reproducible Monte Carlo."""

from .errors import (
    ArtifactConflictError,
    DegenerateExtensionError,
    NonSPrimeError,
    NumericError,
    OnSpectrumError,
    OutOfRangeError,
    ValidationError,
)
from .greens import ShellSums, SpectralParameter, TruncationPolicy
from .lattice import (
    FOUR_PI_SQ,
    GapTriple,
    SpectrumTable,
    annulus_points,
    bad_set_test,
    enumerate_spectrum,
    shell_vectors,
)
from .measure import FourierField, Observable, assemble_field
from .scatterer import NewEigenvalue, ScattererConfig, find_new_eigenvalues
from .sprime import SPrimeParams, SPrimeWindow, build_window
from .harness import TrialSpec, run_trials, sample_positions

__all__ = [
    "FOUR_PI_SQ",
    "ArtifactConflictError",
    "DegenerateExtensionError",
    "FourierField",
    "GapTriple",
    "NewEigenvalue",
    "NonSPrimeError",
    "NumericError",
    "Observable",
    "OnSpectrumError",
    "OutOfRangeError",
    "SPrimeParams",
    "SPrimeWindow",
    "ScattererConfig",
    "ShellSums",
    "SpectralParameter",
    "SpectrumTable",
    "TrialSpec",
    "TruncationPolicy",
    "ValidationError",
    "annulus_points",
    "assemble_field",
    "bad_set_test",
    "build_window",
    "enumerate_spectrum",
    "find_new_eigenvalues",
    "run_trials",
    "sample_positions",
    "shell_vectors",
]
