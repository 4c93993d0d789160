"""Minimal from-scratch neural framework: 1-D convolution, dense and
LSTM layers with analytic backward passes, Adam, and finite-difference
gradient verification. Arrays are plain float64 numpy ndarrays of rank
at most 3 (batch, length, channels)."""

from .adam import Adam
from .flat import FlatParams
from .gradcheck import finite_difference_gradients, max_relative_error
from .layers import (
    avg_pool_backward,
    avg_pool_forward,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    relu,
)
from .lstm import (
    lstm_cell_backward,
    lstm_cell_forward,
    lstm_sequence_backward,
    lstm_sequence_forward,
)
from .networks import CnnNetwork, ConvSpec, LstmNetwork, LstmSpec
from .training import NeuralModel, nn_forecast, train_cnn, train_lstm

__all__ = [
    "Adam",
    "CnnNetwork",
    "ConvSpec",
    "FlatParams",
    "LstmNetwork",
    "LstmSpec",
    "NeuralModel",
    "avg_pool_backward",
    "avg_pool_forward",
    "conv1d_backward",
    "conv1d_forward",
    "dense_backward",
    "dense_forward",
    "finite_difference_gradients",
    "lstm_cell_backward",
    "lstm_cell_forward",
    "lstm_sequence_backward",
    "lstm_sequence_forward",
    "max_relative_error",
    "nn_forecast",
    "relu",
    "train_cnn",
    "train_lstm",
]
