"""
Training the four classifiers and scoring held-out windows
==========================================================

Everything downstream of feature extraction: standardize on train
statistics, fit kNN / decision tree / random forest / MLP, and count a
confusion matrix on the test partition.
"""
import tempfile
from pathlib import Path

import numpy as np

from driverid import FeatureConfig, SegmentationConfig, clean, evaluate, generate_trip, make_profiles
from driverid.models import save_model, load_model
from driverid.pipeline import build_datasets, train_model

profiles = make_profiles(5, "easy", seed=11)
trips = []
for i, profile in enumerate(profiles):
    trip, _ = generate_trip(profile, 2.0 * 3600, 2.0, driver_id=f"driver{i + 1:02d}")
    trips.append(clean(trip))

seg = SegmentationConfig(window_minutes=5, overlap_fraction=0.5, train_fraction=0.7)
bundle = build_datasets(trips, seg, FeatureConfig())
print(f"{len(bundle.train)} train windows, {len(bundle.test)} test windows, "
      f"{bundle.train.n_features} feature dims")

for kind in ("knn", "dtree", "rforest"):
    model = train_model(kind, bundle.train, seed=1, standardizer=bundle.standardizer)
    rep = evaluate(model, bundle.test)
    print(f"{kind:>8}: accuracy {rep.accuracy:.3f}")

mlp_params = dict(hidden_layers=(32,), learning_rate=0.15, max_epochs=600, early_stop_patience=80)
mlp = train_model("mlp", bundle.train, mlp_params, seed=1, standardizer=bundle.standardizer)
rep = evaluate(mlp, bundle.test)
print(f"{'mlp':>8}: accuracy {rep.accuracy:.3f} (trained {mlp.params.epochs_run} epochs)")

print("\nconfusion (rows true, cols predicted):")
print(rep.confusion)
recalls = ", ".join(
    f"{c}={r:.2f}" for c, r in zip(rep.class_list, rep.per_class_recall) if not np.isnan(r)
)
print("per-class recall:", recalls)

# models persist as a versioned JSON header plus an .npz of their arrays, and round-trip exactly
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "mlp.json"
    save_model(mlp, path)
    reloaded = load_model(path)
same = (evaluate(reloaded, bundle.test).accuracy == rep.accuracy)
print("\nsave/load round trip preserves predictions:", same)
