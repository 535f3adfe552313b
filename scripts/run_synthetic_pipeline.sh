#!/usr/bin/env bash
# End-to-end pipeline on the bundled synthetic market data: prepare the
# dataset, train the four single-layer architectures with the
# hyperparameters in the profile, compare them, and export plot data.
# It runs no hyperparameter search; `grnn hpo` does that.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${OUT:-out/synthetic}
REPEATS=${REPEATS:-10}
CFG=profiles/synthetic-market.ini

python scripts/make_synthetic_data.py --kind market --out data/synthetic

grnn prepare --config "$CFG" --out "$OUT"
for arch in lstm1 gru1 gru-lstm1 lstm-gru1; do
    grnn train --config "$CFG" --arch "$arch" --repeats "$REPEATS" --out "$OUT"
done
grnn compare --config "$CFG" --out "$OUT"
grnn report --config "$CFG" --arch lstm1 --out "$OUT"
