"""The three workloads' inputs, generated from the benchmark's seed alone.

Every camera and grid cell is a Figure 9 cell (seed 0, 1200 s), so each
served stream and each swept cell has a frozen digest in the ``fig9``
section of ``tests/reference/digests_float64.json`` to check against.
Draws are stratified: every seed serves the same (system, model pair)
combinations in the same admission order and the same number of
low- and high-drift scenarios; the seed assigns the scenarios (and, for
serve-paced, jitters the admission times).  One seed's work is then close
to another's, so the spread between runs measures the program, not the
draw.
"""

from __future__ import annotations

import random

#: Figure 9's six systems, three model pairs and six scenarios.
FIG9_SYSTEMS = (
    "OrinLow-Ekya",
    "OrinHigh-Ekya",
    "OrinHigh-EOMU",
    "DaCapo-Ekya",
    "DaCapo-Spatial",
    "DaCapo-Spatiotemporal",
)
DACAPO_SYSTEMS = FIG9_SYSTEMS[3:]
FIG9_PAIRS = ("resnet18_wrn50", "vit_b32_b16", "resnet34_wrn101")
FIG9_SCENARIOS = ("S1", "S2", "S3", "S4", "S5", "S6")
DURATION_S = 1200.0

#: serve-eager: cameras, all on one geometry (resnet18_wrn50).
EAGER_CAMERAS = 8
#: serve-paced: cameras (20 windows each: 200 latency samples, so the
#: p95 has 10 beyond it), served as consecutive sessions of equal size --
#: two half-size journals and two stretches of the machine's time, so
#: one slow compaction or a burst of CPU steal moves the tail less --,
#: their pacing, and each session's admission spread.
PACED_CAMERAS = 10
PACED_SESSIONS = 2
PACED_SPEEDUP = 60.0
PACED_SPREAD_S = 5.0
#: Workers for the two multi-process workloads.
PACED_BACKEND = "queue:2"
SWEEP_BACKEND = "process:2"
WORKERS = 2
WINDOW_S = 60.0

WORKLOADS = ("serve-eager", "serve-paced", "sweep-grid")


def fig9_key(system: str, pair: str, scenario: str) -> str:
    """The cell's key in the reference file's ``fig9`` section."""
    return f"{system}|{pair}|{scenario}|seed0|{DURATION_S:.0f}s"


def _scenarios(rng: random.Random, total: int) -> list:
    """Every scenario once per round; the remainder split evenly between
    the low-drift half (S1-S3) and the high-drift half (S4-S6)."""
    rounds, extra = divmod(total, len(FIG9_SCENARIOS))
    half = len(FIG9_SCENARIOS) // 2
    draws = list(FIG9_SCENARIOS) * rounds
    draws += rng.sample(FIG9_SCENARIOS[:half], extra - extra // 2)
    draws += rng.sample(FIG9_SCENARIOS[half:], extra // 2)
    return draws


def _cameras(rng: random.Random, total: int, pairs: tuple) -> list:
    """``total`` distinct cells in a fixed (system, pair) order that
    interleaves systems and pairs; the seed assigns the scenarios."""
    systems = DACAPO_SYSTEMS
    combos = [
        (systems[(i + i // len(systems)) % len(systems)], pairs[i % len(pairs)])
        for i in range(total)
    ]
    scenarios = _scenarios(rng, total)
    while True:
        rng.shuffle(scenarios)
        cells = [combo + (scenario,) for combo, scenario in zip(combos, scenarios)]
        if len(set(cells)) == total:
            return cells


def eager_cameras(seed: int) -> list[tuple[str, str, str]]:
    rng = random.Random(f"serve-eager:{seed}")
    return _cameras(rng, EAGER_CAMERAS, ("resnet18_wrn50",))


def paced_sessions(seed: int) -> list[list[tuple[tuple[str, str, str], float]]]:
    """Per session, its cameras with their admission offsets (seconds
    after the session's start).

    Admissions are evenly staggered over :data:`PACED_SPREAD_S`, and the
    offsets' phases within the window period (``WINDOW_S / speedup``)
    follow a golden-ratio sequence from a seed-chosen start, so cameras
    that are live at the same time have their windows arrive evenly
    spread over the period instead of in bursts.  Without this the
    latency would mostly measure how the seed's random offsets happened
    to line up.
    """
    rng = random.Random(f"serve-paced:{seed}")
    cameras = _cameras(rng, PACED_CAMERAS, FIG9_PAIRS)
    size = PACED_CAMERAS // PACED_SESSIONS
    period = WINDOW_S / PACED_SPEEDUP
    step = PACED_SPREAD_S / size
    sessions = []
    for first in range(0, PACED_CAMERAS, size):
        rotation = rng.random()
        offsets = []
        for index in range(size):
            phase = (rotation + index * _GOLDEN) % 1.0
            base = index * step
            offsets.append(base + ((phase * period - base) % period))
        sessions.append(list(zip(cameras[first:first + size], offsets)))
    return sessions


#: The golden-ratio conjugate: consecutive multiples stay evenly spread.
_GOLDEN = (5 ** 0.5 - 1) / 2


def sweep_spec(seed: int) -> dict:
    """The sweep-grid cells as a sweep spec, axis orders permuted by seed.

    The spec expands axes in order, so permuting each axis's values
    permutes the order in which the cells are planned and submitted;
    results do not depend on it.
    """
    rng = random.Random(f"sweep-grid:{seed}")

    def shuffled(values):
        values = list(values)
        rng.shuffle(values)
        return values

    return {
        "sweep": {
            "name": "perfbench_fig9",
            "title": "Figure 9 grid (benchmark order)",
            "cell": "system",
        },
        "axes": {
            "systems": shuffled(FIG9_SYSTEMS),
            "pairs": shuffled(FIG9_PAIRS),
            "scenarios": shuffled(FIG9_SCENARIOS),
            "seeds": [0],
            "durations": [DURATION_S],
        },
        "aggregate": {
            "group_by": ["pair", "system"],
            "percentiles": [50, 90],
            "metrics": ["accuracy", "drop_rate", "retrain_s", "label_s"],
        },
    }


def sweep_cells(seed: int) -> list[tuple[str, str, str]]:
    spec = sweep_spec(seed)["axes"]
    return [
        (system, pair, scenario)
        for system in spec["systems"]
        for pair in spec["pairs"]
        for scenario in spec["scenarios"]
    ]
