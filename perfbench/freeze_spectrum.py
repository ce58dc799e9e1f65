"""Regenerate device_spectrum.json, the frozen Schmidt spectrum of the bundled device.

The estimators workload feeds these coefficients to the Monte Carlo, so it
neither pays for the 2048-point SVD nor changes when `decompose` changes.

Run from the repository root:  PYTHONPATH=src python3 perfbench/freeze_spectrum.py
"""
import json
import platform
from pathlib import Path

import numpy as np

from twinpdc import build_jsa, decompose
from twinpdc import config as cfgmod

OUT = Path(__file__).resolve().parent / "device_spectrum.json"


def main():
    cfg = cfgmod.load_config(cfgmod.default_config_path())
    jsa = build_jsa(cfgmod.device_from_config(cfg), cfgmod.pump_from_config(cfg),
                    cfgmod.grid_from_config(cfg), cfgmod.approximation_from_config(cfg))
    sd = decompose(jsa)
    record = {
        "provenance": ("twinpdc.decompose(build_jsa(...)) on the bundled default.cfg: "
                       f"{jsa.grid.n_s}x{jsa.grid.n_i} grid, "
                       f"{cfgmod.approximation_from_config(cfg)} phasematching, "
                       "default rank cutoff"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mode_number": sd.mode_number,
        "truncation_residual": sd.truncation_residual,
        "coefficients": [float(x) for x in sd.coefficients],
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(sd.coefficients)} coefficients, K = {sd.mode_number:.4f}, to {OUT}")


if __name__ == "__main__":
    main()
