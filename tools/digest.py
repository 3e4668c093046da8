"""Print a sha256 digest of every file a fixed run leaves in a workspace.

    python3 tools/digest.py WORKSPACE

Run from the root of a source checkout; the package is imported from
``src/`` and the benchmark's ``build_workspace`` from ``perfbench/``. The
script builds the benchmark's desk workspace in WORKSPACE (gen-data, fit and
train at the pinned seeds, 2 epochs; WORKSPACE is emptied first), then runs

    latentaxes evaluate --workspace WORKSPACE --n 1024 --csv --seed 100
    latentaxes edit --workspace WORKSPACE --latents WORKSPACE/edit_in.npy \\
        --attribute 2 --target 1.5 --out WORKSPACE/edited.npy

on the first 300 rows of ``latents.npy``, and prints one ``<sha256>  <file>``
line per file, sorted by name, then one ``<sha256>  report.json:<method>``
line per method block of the report (its JSON, as ``json.dumps`` writes it
with sorted keys), so that a change confined to one method shows the other
bit-identical, then one ``<sha256>  model:<net>`` line per net of the model
``load_model`` reads (its ``flat`` buffer widened to float64, which keeps
every value exactly), so that a change of the model files' storage format or
of the width they are read in shows whether the weights kept their bits. Two
checkouts gave bit-identical outputs when their lines match;
``report.json`` records the workspace path, so run both on the same path and
the same machine.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from latentaxes.training import load_model  # noqa: E402
from workloads import DESK, EVAL_SEED, build_workspace, cli_run  # noqa: E402

EDIT_ROWS = 300


def run(argv):
    code, text = cli_run(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited with {code}: {text.strip()}")


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    ws = Path(argv[0]).resolve()
    build_workspace(ws, DESK)
    run(["evaluate", "--workspace", ws, "--n", DESK.eval_n, "--csv",
         "--seed", EVAL_SEED])
    np.save(ws / "edit_in.npy", np.load(ws / "latents.npy")[:EDIT_ROWS])
    run(["edit", "--workspace", ws, "--latents", ws / "edit_in.npy",
         "--attribute", 2, "--target", 1.5, "--out", ws / "edited.npy"])
    for path in sorted(ws.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    methods = json.loads((ws / "report.json").read_text())["methods"]
    for name, block in methods.items():
        text = json.dumps(block, sort_keys=True).encode()
        print(f"{hashlib.sha256(text).hexdigest()}  report.json:{name}")
    model, _ = load_model(ws)
    for name in ("encoder", "decoder"):
        flat = getattr(model, name).flat.astype(np.float64).tobytes()
        print(f"{hashlib.sha256(flat).hexdigest()}  model:{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
