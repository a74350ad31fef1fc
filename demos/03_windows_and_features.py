"""
Windowing and the statistical feature set
=========================================

Cleaned trips split chronologically (early 70% trains, the rest tests),
then each span is cut into overlapping fixed-length windows, held as one
(windows, 6, samples) array per span. A window becomes one feature row:
100 trimmed-histogram bins per channel plus means, variances, deltas to
the previous window, and the 15 channel correlations — 633 dimensions in
total.
"""
from driverid import (
    FeatureConfig,
    SegmentationConfig,
    clean,
    extract_sequence,
    fit_standardizer,
    apply_standardizer,
    generate_trip,
    make_profiles,
    segment_trip,
)
from driverid.features import feature_schema

profile = make_profiles(2, "easy", seed=5)[0]
trip, _ = generate_trip(profile, 3600, 2.0, driver_id="demo03")
cleaned = clean(trip)

seg = SegmentationConfig(window_minutes=5, overlap_fraction=0.5, train_fraction=0.7)
train_windows, test_windows = segment_trip(cleaned, seg)  # one WindowBatch per span
print(f"{len(train_windows)} train windows, {len(test_windows)} test windows")
print(f"train batch channels: {train_windows.channels.shape} (windows, channels, samples)")
print(
    f"first window: [{train_windows.start_t[0]:.1f}, {train_windows.end_t[0]:.1f}) s, "
    f"{train_windows.channels.shape[2]} samples/channel"
)

cfg = FeatureConfig()  # all five families, 100 bins, central 95% trim
block = extract_sequence(train_windows, cfg)  # one FeatureBlock: a row per window
print(f"\nfeature vector dimension: {block.values.shape[1]}")
families = {}
for fam, _, _ in feature_schema(cfg):
    families[fam] = families.get(fam, 0) + 1
print("dimensions per family:", families)

standardizer = fit_standardizer([block])
z = apply_standardizer(standardizer, block.values)
print(f"standardized train matrix: mean {z.mean():.2e}, per-dim variance ~{z.var(axis=0).mean():.3f}")

test_block = extract_sequence(test_windows, cfg)
z_test = apply_standardizer(standardizer, test_block.values)
print(f"test matrix transformed with train statistics only: shape {z_test.shape}")
