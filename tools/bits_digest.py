"""sha256 over everything the kernels compute, split per phase.

Trains every neural method of ``repro.baselines.registry`` for three
epochs on a 60-shop marketplace and hashes the loss trajectory
(``train``), the validation losses (``val``), the final weights
(``state``), ``Trainer.predict_raw`` on the test batch (``predict``) and
the ``inference_mode`` forward of a 4-ego union (``infer``).  Each model
row prints the sha256 of the whole row (``all``) and one 8-hex digest
per phase; the last line is the ``DIGEST`` over all rows.  Two trees
that compute the same bits print the same ``DIGEST``.  Pin BLAS to one
thread; about 2 s per tree::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python tools/bits_digest.py             # this tree
    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python tools/bits_digest.py TREE OUT.npz

``OUT.npz`` (optional) saves every hashed prediction and loss array,
so two runs can be diffed element by element when a phase moves.
"""

import hashlib
import sys
from pathlib import Path

tree = Path(sys.argv[1] if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent).resolve()
sys.path.insert(0, str(tree / "src"))

import numpy as np  # noqa: E402

from repro.baselines.registry import create_model  # noqa: E402
from repro.data import (  # noqa: E402
    MarketplaceConfig, build_dataset, build_marketplace)
from repro.graph.sampling import ego_subgraphs  # noqa: E402
from repro.nn import engine  # noqa: E402
from repro.serving.batching import build_disjoint_batch  # noqa: E402
from repro.training import TrainConfig, Trainer  # noqa: E402

METHODS = ("LogTrans", "GAT", "GraphSage", "Geniepath", "STGCN", "GMAN",
           "MTGNN", "Gaia", "Gaia w/o ITA", "Gaia w/o FFL", "Gaia w/o TEL")
PHASES = ("train", "val", "state", "predict", "infer")

market = build_marketplace(MarketplaceConfig(num_shops=60, seed=11))
dataset = build_dataset(market, train_fraction=0.6, val_fraction=0.2)
total = hashlib.sha256()
saved = {}
print(f"{'':8s} {'':14s} {'all':16s} " + " ".join(f"{p:8s}" for p in PHASES))
for name in METHODS:
    row = hashlib.sha256()
    parts = {p: hashlib.sha256() for p in PHASES}

    def feed(phase, data):
        row.update(data)
        parts[phase].update(data)

    model = create_model(name, dataset, seed=3, channels=8)
    trainer = Trainer(model, dataset, TrainConfig(
        epochs=3, min_epochs=3, patience=3))
    history = trainer.fit()   # trace + planned replays + validation
    feed("train", np.asarray(history.train_loss).tobytes())
    feed("val", np.asarray(history.val_loss).tobytes())
    for key, value in sorted(model.state_dict().items()):
        feed("state", key.encode() + np.ascontiguousarray(value).tobytes())
    predict = trainer.predict_raw(dataset.test)
    feed("predict", np.ascontiguousarray(predict).tobytes())
    egos = ego_subgraphs(dataset.graph, [0, 7, 23, 41], 2)
    union = build_disjoint_batch(egos, dataset.test)
    model.eval()
    with engine.inference_mode():   # the gateway's forward
        out = model(union.batch, union.graph)
    feed("infer", np.ascontiguousarray(out.data).tobytes())
    print(f"float64  {name:14s} {row.hexdigest()[:16]} "
          + " ".join(parts[p].hexdigest()[:8] for p in PHASES))
    total.update(row.digest())
    saved[name + "/train"] = np.asarray(history.train_loss)
    saved[name + "/val"] = np.asarray(history.val_loss)
    saved[name + "/predict"] = np.asarray(predict)
    saved[name + "/infer"] = np.asarray(out.data)
print("DIGEST", total.hexdigest())
if len(sys.argv) > 2:
    np.savez(sys.argv[2], **saved)
