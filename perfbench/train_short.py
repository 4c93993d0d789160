"""Train the CNN and LSTM baselines for a few epochs through the public
library and save them as ``cnn.model`` and ``lstm.model``.

The backtest workload only runs these models forward, and inference
cost does not depend on how long a network trained, so a short
training keeps its set-up cheap. The split and horizons are the CLI
``fit`` defaults.

    python3 perfbench/train_short.py --data DATA --seed 7 --epochs 2 --out DIR
"""

from __future__ import annotations

import argparse
import os
from dataclasses import replace

from solarcast import load_csv, save_nn_models, split
from solarcast.nn import ConvSpec, LstmSpec, train_cnn, train_lstm

HORIZONS = (1, 3, 6)
TRAIN_FRACTION = 0.70


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    train, _ = split(load_csv(args.data), TRAIN_FRACTION)
    cnn_spec = replace(ConvSpec(), epochs=args.epochs)
    lstm_spec = replace(LstmSpec(), epochs=args.epochs)
    save_nn_models(
        [train_cnn(train, spec=cnn_spec, horizon=h, seed=args.seed) for h in HORIZONS],
        os.path.join(args.out, "cnn.model"),
    )
    save_nn_models(
        [train_lstm(train, spec=lstm_spec, horizon=h, seed=args.seed) for h in HORIZONS],
        os.path.join(args.out, "lstm.model"),
    )


if __name__ == "__main__":
    main()
