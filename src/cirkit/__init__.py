"""cirkit: channel sounding, PDP analysis and cluster-based channel simulation.

The pipeline runs measurement-side (sound a channel with a prime-length
Zadoff-Chu base sequence, ``zadoff_chu``, tiled by ``build_sounding_signal``;
estimate impulse responses by that same sequence, average them into a power
delay profile, extract delay spread / K-factor / cluster count) and
simulation-side (configure a stochastic cluster-delay-line generator from the
extracted parameters and emit CIR datasets plus measured-vs-simulated
comparisons).
"""

from .__about__ import __version__
from .analysis import (
    ChannelParameters,
    ComparisonReport,
    PowerDelayProfile,
    compare_pdps,
    estimate_noise_floor,
    extract_parameters,
    noise_threshold,
    normalize_pdp,
)
from .channel_apply import SyntheticChannel, add_awgn, apply_channel
from .errors import (
    BadMagicError,
    BadVersionError,
    CorruptFileError,
    EmptyProfileError,
    FileFormatError,
    InternalConsistencyError,
    MissingSidecarError,
    SizeMismatchError,
    ValidationError,
)
from .gbsm import (
    PRESETS,
    ScenarioConfig,
    config_from_parameters,
    generate_dataset,
    simulate_pdp,
)
from .io import (
    Dataset,
    IqReader,
    read_config,
    read_dataset,
    read_pdp_csv,
    write_config,
    write_iq,
    write_pdp_csv,
    write_report,
)
from .signal import IqSignal, circular_cross_correlate, is_prime, zadoff_chu
from .sounder import (
    CleanedCapture,
    build_sounding_signal,
    estimate_pdp,
    mitigate_artifacts,
    synchronize,
)

__all__ = [
    "__version__",
    "BadMagicError",
    "BadVersionError",
    "ChannelParameters",
    "CleanedCapture",
    "ComparisonReport",
    "CorruptFileError",
    "Dataset",
    "EmptyProfileError",
    "FileFormatError",
    "InternalConsistencyError",
    "IqReader",
    "IqSignal",
    "MissingSidecarError",
    "PRESETS",
    "PowerDelayProfile",
    "ScenarioConfig",
    "SizeMismatchError",
    "SyntheticChannel",
    "ValidationError",
    "add_awgn",
    "apply_channel",
    "build_sounding_signal",
    "circular_cross_correlate",
    "compare_pdps",
    "config_from_parameters",
    "estimate_noise_floor",
    "estimate_pdp",
    "extract_parameters",
    "generate_dataset",
    "is_prime",
    "mitigate_artifacts",
    "noise_threshold",
    "normalize_pdp",
    "read_config",
    "read_dataset",
    "read_pdp_csv",
    "simulate_pdp",
    "synchronize",
    "write_config",
    "write_iq",
    "write_pdp_csv",
    "write_report",
    "zadoff_chu",
]
