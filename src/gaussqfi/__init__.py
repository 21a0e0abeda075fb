"""Quantum Fisher information for Gaussian probes of Gaussian unitary channels."""

from .core import (
    GaussianState,
    complex_to_real,
    complex_to_real_matrix,
    k_matrix,
    mean_photon_number,
    real_to_complex,
    real_to_complex_matrix,
    state_from_dict,
    state_from_json,
    state_to_dict,
    state_to_json,
    symplectic_eigenvalues,
    validate_moments,
    validate_state,
)
from .symplectic import (
    GeneratorW,
    SymplecticMatrix,
    WilliamsonForm,
    bloch_messiah,
    displacement_shift,
    exp_generator,
    symplectic_residual,
    williamson,
)
from .channels import (
    ChannelSpec,
    channel_from_dict,
    channel_shift,
    channel_symplectic,
    channel_to_dict,
    combined_channel,
    custom_channel,
    mix_channel,
    phase_channel,
    squeeze_channel,
    twomode_squeeze_channel,
)
from .qfi import (
    PMatrix,
    ProbeState,
    QfiBreakdown,
    p_matrix,
    qfi_unitary,
    temperature_factors,
)
from .probes import (
    OneModeProbeParams,
    TwoModeProbeParams,
    one_mode_probe_on_two,
)
from . import formulas

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
