"""Seeded synthetic trip generator with ground-truth stop and gap annotations.

Trips are built in a vehicle frame (x longitudinal, y lateral, z vertical
carrying gravity), as an idle-cruise baseline plus acceleration, braking
and turning events shaped by a driver profile, then rotated into a random
device orientation. Road texture rides on the vertical axis and is scaled
so that driving regions always vary beyond the stop-detection band, while
inserted stops hold the channels nearly constant. Short brake-dive and
pull-away ramps frame every stop so its boundaries stay sharp.

Everything derives from the profile seed: the same profile always yields
the same trip, sample for sample. Driving events are drawn in blocks and
added in one array pass, with the draws and sums of one event at a time.
A stop or gap longer than the trip has room for is left out.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .ingest import Trip
from .preprocess import GRAVITY

EASY_MAX_PROFILES = 12
GUARD_SECONDS = 2.0         # brake-dive / pull-away ramp framing each stop
GUARD_LIFT = 1.5            # vertical offset at the stop boundary, m/s^2
STOP_EDGE_MARGIN = 30.0     # keep stops away from trip edges, seconds
STOP_CLEARANCE = 20.0       # minimum driving time between stops, seconds


@dataclass(frozen=True)
class DriverProfile:
    accel_aggressiveness: float   # peak acceleration-event magnitude, m/s^2
    brake_harshness: float        # peak braking-event magnitude, m/s^2
    turn_rate_scale: float        # peak yaw rate during turns, rad/s
    event_rate: float             # driving events per minute
    noise_sigma: float            # per-channel Gaussian noise std
    stop_frequency: float         # stops per hour
    stop_duration_range: tuple[float, float] = (8.0, 40.0)
    # behavioral couplings: cornering speed, brake/throttle pitch response,
    # and how long this driver's maneuvers last
    lateral_g_per_yaw: float = 9.0
    pitch_coupling: float = 0.05
    event_duration_scale: float = 1.0
    # vehicle signature: fast vertical ride texture, in noise-sigma units
    # (one driver per car, so suspension response identifies the pair)
    ride_texture: float = 2.0
    # device signature: constant MEMS sensor offsets, one phone per driver
    accel_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    gyro_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        for name in (
            "accel_aggressiveness",
            "brake_harshness",
            "turn_rate_scale",
            "event_rate",
            "noise_sigma",
            "stop_frequency",
            "lateral_g_per_yaw",
            "pitch_coupling",
            "event_duration_scale",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.ride_texture < 0:
            raise ValueError("ride_texture must be nonnegative")
        lo, hi = self.stop_duration_range
        if lo > hi or lo < 0:
            raise ValueError("stop_duration_range must be ordered and nonnegative")


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground truth recorded while generating one trip."""

    stop_intervals: tuple[tuple[float, float], ...]  # half-open [start, end)
    gap_intervals: tuple[tuple[float, float], ...]
    profile: DriverProfile
    device_rotation: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "stop_intervals": [list(iv) for iv in self.stop_intervals],
            "gap_intervals": [list(iv) for iv in self.gap_intervals],
            "profile": asdict(self.profile),
            "device_rotation": (
                self.device_rotation.tolist() if self.device_rotation is not None else None
            ),
        }


def make_profiles(n: int, separation: str = "easy", seed: int = 0) -> list[DriverProfile]:
    """Build n driver profiles, deterministically from the seed.

    `easy` lays acceleration and braking magnitudes on ladders spaced at
    least three noise sigmas apart pairwise (the spacing every downstream
    separability check relies on); `hard` draws every parameter from
    overlapping ranges.
    """
    if n < 2:
        raise ValueError("need at least 2 driver profiles")
    if separation not in ("easy", "hard"):
        raise ValueError("separation must be 'easy' or 'hard'")
    if separation == "easy" and n > EASY_MAX_PROFILES:
        raise ValueError(
            f"cannot space {n} easy profiles; maximum is {EASY_MAX_PROFILES}"
        )
    rng = np.random.default_rng(seed)
    child_seeds = [int(ss.generate_state(1)[0]) for ss in np.random.SeedSequence(seed).spawn(n)]

    def biases(i: int, accel_step: float, gyro_step: float):
        accel = rng.standard_normal(3)
        accel *= accel_step * (i + 1) / np.linalg.norm(accel)
        gyro = rng.standard_normal(3)
        gyro *= gyro_step * (i + 1) / np.linalg.norm(gyro)
        return tuple(accel), tuple(gyro)

    profiles = []
    if separation == "easy":
        sigma = 0.22
        ranks = [rng.permutation(n) for _ in range(8)]
        for i in range(n):
            accel_bias, gyro_bias = biases(i, 0.02, 0.008)
            profiles.append(
                DriverProfile(
                    accel_aggressiveness=1.3 + 1.00 * float(ranks[0][i]),
                    brake_harshness=1.2 + 0.95 * float(ranks[1][i]),
                    turn_rate_scale=0.22 + 0.14 * float(ranks[2][i]),
                    event_rate=2.2 + 0.50 * float(ranks[3][i]),
                    noise_sigma=sigma,
                    # sparse stops: long windows must survive the no-break rule
                    stop_frequency=float(rng.uniform(0.2, 0.6)),
                    lateral_g_per_yaw=5.0 + 1.1 * float(ranks[4][i]),
                    pitch_coupling=0.03 + 0.010 * float(ranks[5][i]),
                    event_duration_scale=0.75 + 0.05 * float(ranks[6][i]),
                    ride_texture=1.4 + 0.15 * float(ranks[7][i]),
                    accel_bias=accel_bias,
                    gyro_bias=gyro_bias,
                    seed=child_seeds[i],
                )
            )
    else:
        for i in range(n):
            accel_bias, gyro_bias = biases(i % 4, 0.02, 0.006)
            profiles.append(
                DriverProfile(
                    accel_aggressiveness=float(rng.uniform(1.5, 2.8)),
                    brake_harshness=float(rng.uniform(1.4, 2.6)),
                    turn_rate_scale=float(rng.uniform(0.25, 0.60)),
                    event_rate=float(rng.uniform(2.5, 4.5)),
                    noise_sigma=float(rng.uniform(0.20, 0.30)),
                    stop_frequency=float(rng.uniform(1.0, 3.0)),
                    lateral_g_per_yaw=float(rng.uniform(7.0, 11.0)),
                    pitch_coupling=float(rng.uniform(0.03, 0.08)),
                    event_duration_scale=float(rng.uniform(0.85, 1.15)),
                    ride_texture=float(rng.uniform(1.8, 2.2)),
                    accel_bias=accel_bias,
                    gyro_bias=gyro_bias,
                    seed=child_seeds[i],
                )
            )
    return profiles


def generate_trip(
    profile: DriverProfile,
    duration_s: float,
    rate_hz: float = 2.0,
    driver_id: str = "synthetic",
    device_rotation: bool = True,
    missing_rate_per_hour: float = 0.0,
    missing_duration_range: tuple[float, float] = (1.0, 6.0),
) -> tuple[Trip, SyntheticTruth]:
    """Generate one labeled trip plus its ground truth.

    Sample count is round(duration_s * rate_hz). Inserted stops hold all
    channels at their rest values with noise_sigma/10 jitter; optional
    missing-value runs (off by default) blank random channels in driving
    regions and are recorded as gap intervals.
    """
    if duration_s < 60:
        raise ValueError("duration_s must be at least 60 seconds")
    rng = np.random.default_rng(profile.seed)
    n = int(round(duration_s * rate_hz))
    t = np.arange(n) / rate_hz
    sigma = profile.noise_sigma

    data = np.zeros((n, 6))
    data[:, 0] = _wobble(t, rng, [(1.1 * sigma, 8.3), (0.7 * sigma, 27.1)])
    data[:, 1] = _wobble(t, rng, [(0.9 * sigma, 11.7)])
    # road texture rides on the vertical axis; the 6.7 s component alone is
    # sized to keep every 6 s driving window outside the stop band even
    # after moving-average smoothing attenuates the fast ones (well-spread
    # periods, close pairs would beat into dead stretches)
    data[:, 2] = GRAVITY + _wobble(
        t, rng, [(profile.ride_texture * sigma, 2.9), (4.0 * sigma, 6.7), (1.3 * sigma, 19.3)]
    )
    # sample-to-sample rattle: alternating sign, so no smooth driving event
    # can flatten the raw magnitude series into the stop-detection band
    parity = 1.0 if rng.uniform() < 0.5 else -1.0
    data[:, 2] += 2.4 * sigma * parity * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    data[:, 3] = _wobble(t, rng, [(0.5 * sigma, 9.1)])
    data[:, 4] = _wobble(t, rng, [(0.5 * sigma, 13.9)])
    data[:, 5] = _wobble(t, rng, [(0.4 * sigma, 17.3)])

    _add_events(data, t, profile, rng, rate_hz)
    data += rng.standard_normal((n, 6)) * sigma

    stop_spans = _place_stops(profile, duration_s, rng)
    stop_intervals = []
    for start_s, dur_s in stop_spans:
        start = int(round(start_s * rate_hz))
        count = int(round(dur_s * rate_hz))
        _stamp_stop(data, start, count, profile, rng, rate_hz)
        stop_intervals.append((start / rate_hz, (start + count) / rate_hz))

    rotation = None
    if device_rotation:
        rotation = _random_rotation(rng)
        data[:, 0:3] = data[:, 0:3] @ rotation.T
        data[:, 3:6] = data[:, 3:6] @ rotation.T
    # constant sensor offsets live in the device frame
    data[:, 0:3] += np.asarray(profile.accel_bias)
    data[:, 3:6] += np.asarray(profile.gyro_bias)

    gap_intervals = _inject_gaps(
        data, t, rng, rate_hz, missing_rate_per_hour, missing_duration_range,
        duration_s, stop_intervals,
    )

    trip = Trip(driver_id, t, data, rate_hz)
    truth = SyntheticTruth(
        stop_intervals=tuple(stop_intervals),
        gap_intervals=tuple(gap_intervals),
        profile=profile,
        device_rotation=rotation,
    )
    return trip, truth


def _wobble(t, rng, components) -> np.ndarray:
    """Sum of sines with random phases; amplitude zero stays exactly zero."""
    out = np.zeros_like(t)
    for amplitude, period in components:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        if amplitude > 0:
            out += amplitude * np.sin(2.0 * np.pi * t / period + phase)
    return out


def _bump(n_samples: int) -> np.ndarray:
    """Raised-cosine event envelope in (0, 1]."""
    tau = (np.arange(n_samples) + 0.5) / n_samples
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * tau))


def _add_events(data, t, profile, rng, rate_hz) -> None:
    """Add acceleration, braking and turn events to DATA in place, with the
    draws and the sums of adding one event at a time."""
    minutes = t[-1] / 60.0 if t.size else 0.0
    n_events = rng.poisson(profile.event_rate * minutes)
    if n_events == 0:
        return
    n = data.shape[0]
    # an event draws start, duration, kind and scale, then a turn's sign; 4 draws
    # per unread event at a time leave the generator where single draws would
    blocks, turns, firsts, at = [], [], [], 0  # turns[i]: draw i >= 0.70; firsts: event starts
    while len(firsts) < n_events:
        size = 5 if at + 2 < len(turns) and turns[at + 2] else 4
        if at + size > len(turns):
            blocks.append(rng.random(max(1, 4 * (n_events - len(firsts)) - (len(turns) - at))))
            turns += (blocks[-1] >= 0.70).tolist()
            continue
        firsts.append(at)
        at += size
    u, f = np.concatenate(blocks), np.array(firsts)
    start = (n * u[f]).astype(np.intp)
    dur = np.rint((2.0 + 2.0 * u[f + 1]) * profile.event_duration_scale * rate_hz).astype(np.intp)
    length = np.minimum(n, start + np.maximum(dur, 2)) - start
    kind = (u[f + 2] >= 0.35).astype(np.intp) + (u[f + 2] >= 0.70)  # acceleration, braking, turn
    scale, turn = 0.75 + 0.5 * u[f + 3], kind == 2
    sign = np.ones(len(f))
    sign[turn] = np.where(u[f[turn] + 4] < 0.5, 1.0, -1.0)
    aa, bh, pc = profile.accel_aggressiveness, profile.brake_harshness, profile.pitch_coupling
    yaw = profile.turn_rate_scale
    # each kind's two channels and products, multiplied left to right as one
    # event at a time does; no channel takes both of an event's products
    products = (
        ((0, 0, 5), sign * np.array([aa, -bh, yaw])[kind] * scale),
        ((4, 4, 1), sign * np.array([pc * aa, -(1.2 * pc * bh), profile.lateral_g_per_yaw])[kind]
         * np.where(turn, yaw * scale, scale)),
    )
    bumps = {k: _bump(k) for k in set(length.tolist())}
    env = np.concatenate([bumps[k] for k in length.tolist()])
    rows = np.arange(env.size) + np.repeat(start - (np.cumsum(length) - length), length)
    for channels, amplitude in products:
        np.add.at(data, (rows, np.repeat(np.array(channels)[kind], length)), np.repeat(amplitude, length) * env)


def _place_stops(profile, duration_s, rng) -> list[tuple[float, float]]:
    """Non-overlapping (start_s, duration_s) stop spans, clear of trip edges."""
    hours = duration_s / 3600.0
    n_stops = int(rng.poisson(profile.stop_frequency * hours))
    lo, hi = profile.stop_duration_range
    spans: list[tuple[float, float]] = []
    for _ in range(n_stops):
        dur = float(rng.uniform(lo, hi))
        if duration_s - STOP_EDGE_MARGIN - dur < STOP_EDGE_MARGIN:
            continue  # no room between the edge margins: leave this stop out
        for _attempt in range(40):
            start = float(rng.uniform(STOP_EDGE_MARGIN, duration_s - STOP_EDGE_MARGIN - dur))
            ok = all(
                start + dur + STOP_CLEARANCE <= s or s + d + STOP_CLEARANCE <= start
                for s, d in spans
            )
            if ok:
                spans.append((start, dur))
                break
    return sorted(spans)


def _stamp_stop(data, start, count, profile, rng, rate_hz) -> None:
    """Overwrite a stop plateau plus the guard ramps framing it."""
    n = data.shape[0]
    stop_slice = slice(start, min(n, start + count))
    k = stop_slice.stop - stop_slice.start
    jitter = rng.standard_normal((k, 6)) * (profile.noise_sigma / 10.0)
    data[stop_slice] = jitter
    data[stop_slice, 2] += GRAVITY

    guard_n = max(2, int(round(GUARD_SECONDS * rate_hz)))
    brake = max(2.0, profile.brake_harshness)
    accel = max(2.0, profile.accel_aggressiveness)
    # entry ramp peaks at the stop boundary; exit ramp mirrors it
    entry = slice(max(0, start - guard_n), start)
    ramp_in = np.linspace(1.0 / guard_n, 1.0, entry.stop - entry.start)
    data[entry] = rng.standard_normal((entry.stop - entry.start, 6)) * (profile.noise_sigma / 10.0)
    data[entry, 0] += -brake * ramp_in
    data[entry, 2] += GRAVITY + GUARD_LIFT * ramp_in

    exit_ = slice(stop_slice.stop, min(n, stop_slice.stop + guard_n))
    ramp_out = np.linspace(1.0, 1.0 / guard_n, exit_.stop - exit_.start)
    data[exit_] = rng.standard_normal((exit_.stop - exit_.start, 6)) * (profile.noise_sigma / 10.0)
    data[exit_, 0] += accel * ramp_out
    data[exit_, 2] += GRAVITY + GUARD_LIFT * ramp_out


def _inject_gaps(
    data, t, rng, rate_hz, rate_per_hour, duration_range, duration_s, stop_intervals
) -> list[tuple[float, float]]:
    if rate_per_hour <= 0:
        return []
    n = data.shape[0]
    n_gaps = int(rng.poisson(rate_per_hour * duration_s / 3600.0))
    lo, hi = duration_range
    blocked = [(s - GUARD_SECONDS - 2.0, e + GUARD_SECONDS + 2.0) for s, e in stop_intervals]
    gaps: list[tuple[float, float]] = []
    for _ in range(n_gaps):
        dur = float(rng.uniform(lo, hi))
        if duration_s - 5.0 - dur < 5.0:
            continue  # no room for this gap: leave it out
        for _attempt in range(40):
            start_s = float(rng.uniform(5.0, duration_s - 5.0 - dur))
            end_s = start_s + dur
            clear = all(end_s <= b0 or start_s >= b1 for b0, b1 in blocked)
            clear = clear and all(end_s <= g0 - 2.0 or start_s >= g1 + 2.0 for g0, g1 in gaps)
            if clear:
                start = int(round(start_s * rate_hz))
                count = max(1, int(round(dur * rate_hz)))
                channels = rng.choice(6, size=int(rng.integers(1, 3)), replace=False)
                data[start : min(n, start + count), channels] = np.nan
                gaps.append((start / rate_hz, min(n, start + count) / rate_hz))
                break
    return sorted(gaps)


def _random_rotation(rng) -> np.ndarray:
    """Uniform-ish random rotation from a random axis and angle."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
