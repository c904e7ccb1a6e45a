"""Scenario configuration: typed flat key-value files with dotted sections.

Example config::

    # hospital room, default QoS
    channel.a = 19.2
    channel.noise_figure = 10
    energy.eps_p = 20e-12
    qos.r0 = 15e3
    qos.n_s = 24
    solver.n_t_max = 8190
    distances = 1.0:10.0:0.1
    strategies = 1:2616, 2:2616, 4:2616, 16:2616, 32:2616
    seed = 1
    shadowing = off

Unknown keys and malformed values are rejected with the offending key path,
so sweeps stay reproducible from the file alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, is_dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Iterator

from .channel import ChannelParams
from .energy import EnergyParams
from .errors import ConfigError, is_bool, is_int
from .frame import PSDU_CODE, VALID_N_CPB
from .metrics import LinkModel, QosSpec
from .optimizer import N_T_MAX_LIMIT, SolverConfig

# A range expands to at most MAX_RANGE_STEPS + 1 distances; the count is
# checked before the tuple is built, so a tiny step cannot exhaust memory.
MAX_RANGE_STEPS = 100_000
DEFAULT_DISTANCES: tuple[float, ...] = tuple(round(1.0 + 0.1 * i, 9) for i in range(91))
# Fixed benchmark strategies: lowest/highest burst orders plus two mid modes,
# all at the 2616-bit frame the static comparisons use.
DEFAULT_STRATEGIES: tuple[tuple[int, int], ...] = (
    (1, 2616), (2, 2616), (4, 2616), (16, 2616), (32, 2616),
)


@dataclass(frozen=True)
class Scenario:
    """Everything a sweep needs: models, QoS, solver knobs, grid and seed."""

    channel: ChannelParams = ChannelParams()
    energy: EnergyParams = EnergyParams()
    qos: QosSpec = QosSpec()
    solver: SolverConfig = SolverConfig()
    distances: tuple[float, ...] = DEFAULT_DISTANCES
    strategies: tuple[tuple[int, int], ...] = DEFAULT_STRATEGIES
    seed: int = 0
    shadowing: bool = False
    uniform_section_ber: bool = False
    integration_per_pulse: bool = False

    def __post_init__(self):
        if not is_int(self.seed):
            raise ConfigError("seed", f"must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")
        if not is_bool(self.shadowing):
            raise ConfigError("shadowing", f"must be a bool, got {self.shadowing!r}")
        self.link_model()           # LinkModel checks the two model.* flags
        if not self.distances:
            raise ConfigError("distances", "must not be empty")
        # A repeated distance or strategy would give rows that cannot be told
        # apart; the seen sets keep both checks linear in the count.
        seen = set()
        for d in self.distances:
            try:
                valid = not is_bool(d) and math.isfinite(d) and d > 0
            except OverflowError:        # an int too large for a float
                valid = False
            except TypeError:
                raise ConfigError("distances", f"distances must be numbers, got {d!r}") from None
            if not valid:
                raise ConfigError("distances", f"distances must be finite and > 0, got {d}")
            if d in seen:
                raise ConfigError("distances", f"duplicate distance {d}")
            seen.add(d)
        seen = set()
        for pair in self.strategies:
            try:
                n_cpb, n_t = pair
            except (TypeError, ValueError):
                raise ConfigError("strategies", f"each strategy must be an (n_cpb, n_t) pair, "
                                                f"got {pair!r}") from None
            if not (is_int(n_cpb) and n_cpb in VALID_N_CPB):
                raise ConfigError("strategies", f"n_cpb must be one of {VALID_N_CPB}, got {n_cpb}")
            if not (is_int(n_t) and PSDU_CODE.n <= n_t <= N_T_MAX_LIMIT):
                raise ConfigError("strategies", f"static n_t must be an integer in "
                                                f"[{PSDU_CODE.n}, {N_T_MAX_LIMIT}], got {n_t}")
            if (n_cpb, n_t) in seen:
                raise ConfigError("strategies", f"duplicate static strategy {n_cpb}:{n_t}")
            seen.add((n_cpb, n_t))

    def link_model(self) -> LinkModel:
        return LinkModel(
            channel=self.channel,
            energy=self.energy,
            uniform_section_ber=self.uniform_section_ber,
            integration_per_pulse=self.integration_per_pulse,
        )

    def shadowing_draws(self) -> tuple[float, ...]:
        """One chi per distance in config order: the first len(distances) of chis."""
        return tuple(islice(self.chis(), len(self.distances)))

    def chis(self) -> Iterator[float]:
        """The shadowing draws, one at a time, as they are taken: zeros when
        shadowing is off, else sigma times the standard normal quantile of
        u = random.Random(seed).random(), a sequence Python keeps across
        versions (an exact u = 0.0 is drawn again).  statistics is imported
        only here, as it loads fractions and decimal, a few ms of a cold start."""
        if not self.shadowing:
            return repeat(0.0)
        from statistics import NormalDist
        rng, quantile = random.Random(int(self.seed)), NormalDist().inv_cdf
        uniforms = filter(None, iter(rng.random, None))     # u = 0.0 has no quantile
        return (self.channel.sigma * quantile(u) for u in uniforms)


# --------------------------------------------------------------------------
# config file parsing


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ConfigError(key, f"expected on|off, got {raw!r}")


def _parse_distances(key: str, raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(key, f"range syntax is start:stop:step, got {raw!r}")
        start, stop, step = (_parse_float(key, p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ConfigError(key, f"range bounds must be finite, got {raw!r}")
        if step <= 0:
            raise ConfigError(key, f"range step must be > 0, got {step}")
        if stop < start:
            raise ConfigError(key, f"range stop must be >= start, got {raw!r}")
        span = (stop - start) / step              # inf when the quotient overflows
        if span > MAX_RANGE_STEPS:
            raise ConfigError(key, f"a range may take at most {MAX_RANGE_STEPS} steps, "
                                   f"got {raw!r}")
        count = int(round(span)) + 1
        if start + (count - 1) * step > stop + 1e-9 * step:
            count = int(span + 1e-9) + 1
        return tuple(round(start + i * step, 9) for i in range(count))
    return tuple(_parse_float(key, p) for p in raw.split(",") if p.strip())


def _parse_strategies(key: str, raw: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(key, f"strategy syntax is n_cpb:n_t, got {item!r}")
        a, b = item.split(":", 1)
        pairs.append((_parse_int(key, a.strip()), _parse_int(key, b.strip())))
    if not pairs:
        raise ConfigError(key, "expected at least one n_cpb:n_t pair")
    return tuple(pairs)


# Each section key sets a field of one of Scenario's section dataclasses and
# is parsed by the type of the field's default; the top-level keys set the
# Scenario field named after their last dotted part.
_PARSE_BY_TYPE = {float: _parse_float, int: _parse_int}
_SECTIONS = {f.name: type(f.default) for f in fields(Scenario) if is_dataclass(f.default)}
_KEYS = {
    f"{section}.{f.name}": _PARSE_BY_TYPE[type(f.default)]
    for section, cls in _SECTIONS.items() for f in fields(cls)
} | {
    "seed": _parse_int,
    "shadowing": _parse_bool,
    "distances": _parse_distances,
    "strategies": _parse_strategies,
    "model.uniform_section_ber": _parse_bool,
    "model.integration_per_pulse": _parse_bool,
}


def parse_scenario(text: str, source: str = "<config>") -> Scenario:
    given: dict[str, dict[str, object]] = {section: {} for section in _SECTIONS}
    top: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}", f"expected key = value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")
        prefix, _, name = key.rpartition(".")
        target = given.get(prefix, top)
        if name in target:
            raise ConfigError(key, "duplicate key")
        target[name] = _KEYS[key](key, raw)

    for section, cls in _SECTIONS.items():
        top[section] = cls(**given[section])
    return Scenario(**top)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")     # drops a leading BOM
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    return parse_scenario(text, source=str(path))
