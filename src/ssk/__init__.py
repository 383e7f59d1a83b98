"""ssk: direction-informed multi-channel target speech separation toolkit.

Room/array simulation, convolutional STFT features (LPS, IPD, AF, DPR),
oracle and heuristic time-frequency masks, delay-and-sum beamforming, and
SI-SDR evaluation binned by inter-speaker angle difference. Import the
submodules (``ssk.cli``, ``ssk.pipeline``, ``ssk.spatial_features``, ...)
directly; the package itself re-exports nothing.
"""

__version__ = "0.1.0"
