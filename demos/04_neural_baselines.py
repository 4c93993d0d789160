"""Train the from-scratch CNN and LSTM baselines.

Both consume windows of the 4 most recent samples. The CNN sees lag-1
differences of the standardized signal (one 16-kernel convolution, then
dense 16 -> 8 -> 1) and its predictions are rebuilt by adding the last
observed value back. The LSTM (32 units, dense 8 -> 1) sees the
standardized signal directly. Training is plain numpy: analytic
backprop, Adam, seeded shuffling, fully deterministic.

Run:  python3 demos/04_neural_baselines.py    (about a minute)
"""

import os

import numpy as np

from solarcast import generate_synthetic, split, summarize, summary_table
from solarcast.nn import (
    ConvSpec,
    LstmSpec,
    finite_difference_gradients,
    max_relative_error,
    nn_forecast,
    train_cnn,
    train_lstm,
)
from solarcast.nn.networks import CnnNetwork
from solarcast.nn.training import mse_loss
from solarcast.io import write_text
from solarcast.svgplot import render_line_chart

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

series = generate_synthetic(days=60, regime="mixed", seed=17)
train, test = split(series, 0.70)

# sanity first: analytic gradients of a small CNN vs central differences
network = CnnNetwork(spec=ConvSpec(kernel_count=3, fc1_units=4, fc2_units=3), seed=1)
rng = np.random.default_rng(1)
x, y = rng.standard_normal((8, 4, 1)), rng.standard_normal(8)
pred, cache = network.forward_with_cache(x)
analytic = network.backward(cache, mse_loss(pred, y)[1])
numeric = finite_difference_gradients(lambda: mse_loss(network.predict(x), y)[0],
                                      network.params)
print(f"gradient check, max relative error: "
      f"{max_relative_error(analytic, numeric):.2e}")

print("\ntraining CNN (30 epochs) and LSTM (100 epochs) per horizon...")
reports = []
curves = []
for horizon in (1, 3, 6):
    cnn = train_cnn(train, spec=ConvSpec(), horizon=horizon, seed=3)
    lstm = train_lstm(train, spec=LstmSpec(), horizon=horizon, seed=3)
    reports += [nn_forecast(cnn, test), nn_forecast(lstm, test)]
    if horizon == 1:
        curves = [
            ("cnn", np.arange(1, len(cnn.loss_curve) + 1), np.array(cnn.loss_curve)),
            ("lstm", np.arange(1, len(lstm.loss_curve) + 1), np.array(lstm.loss_curve)),
        ]
        print(f"  h=1 final training loss: cnn {cnn.loss_curve[-1]:.5f}, "
              f"lstm {lstm.loss_curve[-1]:.5f}")

print("\n" + summary_table(summarize(reports), step=test.step))

chart = os.path.join(OUT, "loss_curves.svg")
svg = render_line_chart(curves, title="Training loss, 1-step models",
                        x_label="epoch", y_label="MSE (model target domain)")
write_text(chart, (svg,))
print(f"wrote {chart}")
