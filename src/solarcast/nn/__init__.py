"""Minimal from-scratch neural framework: 1-D convolution, dense and
LSTM layers with analytic backward passes, Adam, and finite-difference
gradient verification. Arrays are plain float64 numpy ndarrays of rank
at most 3 (batch, length, channels). Public names and submodules are
imported on first access, as the package's are."""

from .. import _resolver

# every public name, by the module that defines it
__getattr__, __all__ = _resolver(__name__, globals(), {
    "adam": "Adam",
    "flat": "FlatParams",
    "gradcheck": "finite_difference_gradients max_relative_error",
    "layers": "avg_pool_backward avg_pool_forward conv1d_backward conv1d_forward dense_backward "
              "dense_forward relu",
    "lstm": "lstm_cell_backward lstm_cell_forward lstm_sequence_backward lstm_sequence_forward",
    "networks": "CnnNetwork ConvSpec LstmNetwork LstmSpec",
    "training": "NeuralModel nn_forecast train_cnn train_lstm train_networks",
})
