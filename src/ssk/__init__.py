"""ssk: direction-informed multi-channel target speech separation toolkit.

Room/array simulation, convolutional STFT features (LPS, IPD, AF, DPR),
oracle and heuristic time-frequency masks, delay-and-sum beamforming, and
SI-SDR evaluation binned by inter-speaker angle difference.
"""

from .geometry import (DirectionGrid, MicArray, PairSelection, SourceDirection,
                       angle_difference, circular_array, min_angle_difference,
                       tdoa)
from .metrics import EvalRecord, EvalReport, aggregate, si_sdr, si_sdri
from .room_sim import (MixtureScene, RIRSet, RoomConfig, estimate_t60,
                       render_mixture, sample_scene, simulate_rir, simulate_rirs)
from .separation import (Mask, MaskKind, apply_mask, das_beamform,
                         directional_mask, oracle_mask)
from .spatial_features import (DasFilterbank, FeatureStack, angle_feature,
                               assemble_features, das_filterbank, dpr, dpr_all,
                               ipd, multichannel_stft, nearest_direction)
from .spectral import (ComplexSpectrogram, StftConfig, build_kernel, istft, lps,
                       stft)

__version__ = "0.1.0"
