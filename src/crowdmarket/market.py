"""Market model: configuration, worker populations, and stochastic job outcomes.

A market instance is described by a :class:`MarketConfig` (global bounds and
design parameters) plus a :class:`PopulationRecipe` (how the ``n`` workers are
partitioned into groups and which parameter ranges each group draws from).
Worker job-completion times are log-normal with a known mean and configurable
log-scale shape; times to failure are exponential.

Both objects can be read from a plain-text ``key = value`` config file, see
:func:`load_config` for the schema.

Each worker draws its outcomes from its own stream (:func:`outcome_streams`),
``BLOCK`` at a time: a log-normal block and then an exponential block.  Worker
``i``'s ``k``-th outcome (counting from 0, over the jobs that give it work) is
element ``k mod BLOCK`` of its ``k // BLOCK``-th block, so it depends only on
the seed, ``i`` and ``k``, never on which other workers were active.
:class:`OutcomeBlocks` holds the current blocks and :func:`sample_outcome`
serves one job from them.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import _LIST_MAX, _as_list

__all__ = [
    "InvalidConfig",
    "InvalidRecipe",
    "MarketConfig",
    "WorkerProfile",
    "PopulationGroup",
    "PopulationRecipe",
    "validate_config",
    "sample_population",
    "jct_location",
    "BLOCK",
    "OutcomeBlocks",
    "sample_outcome",
    "population_streams",
    "outcome_streams",
    "load_config",
]


class InvalidConfig(ValueError):
    """A market or estimator configuration violates one of its invariants."""


class InvalidRecipe(ValueError):
    """A population recipe is inconsistent with its market configuration."""


Bounds = tuple[float, float]


@dataclass(frozen=True)
class MarketConfig:
    """Global parameters of one market instance.

    ``delta`` is the length of the failure-observation window opened at the
    start of each allocated task; it must sit strictly below the smallest
    possible mean time to failure.
    """

    n: int
    T: int
    D: float
    epsilon: float
    delta: float
    cost_bounds: Bounds
    rho_bounds: Bounds
    beta_bounds: Bounds
    sigma_log: float = 0.25
    seed: int = 0


@dataclass(frozen=True)
class WorkerProfile:
    """Ground truth of one simulated worker: cost, mean JCT, mean TTF."""

    id: int
    cost: float
    mjct: float
    mttf: float


@dataclass(frozen=True)
class PopulationGroup:
    """One homogeneous slice of the population; ranges may be degenerate."""

    count: int
    cost_range: Bounds
    rho_range: Bounds
    beta_range: Bounds


@dataclass(frozen=True)
class PopulationRecipe:
    groups: tuple[PopulationGroup, ...]

    @property
    def total(self) -> int:
        return sum(g.count for g in self.groups)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidConfig(message)


def validate_config(cfg: MarketConfig) -> MarketConfig:
    """Return ``cfg`` unchanged if every invariant holds, else raise InvalidConfig.
    ``sigma_log`` is bounded so that a completion draw nine log-scale deviations
    below the smallest mean's location (one draw in about 10^19) does not
    underflow to 0.0, a time that no estimator can learn from."""
    for name, value in vars(cfg).items():
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise InvalidConfig(f"{name} must be finite, got {value}")
    c_lo, c_hi = cfg.cost_bounds
    r_lo, r_hi = cfg.rho_bounds
    b_lo, b_hi = cfg.beta_bounds
    _check(cfg.n >= 1, f"worker count must be >= 1, got {cfg.n}")
    _check(cfg.T >= 0, f"job count must be >= 0, got {cfg.T}")
    _check(0 < c_lo <= c_hi, f"cost bounds must satisfy 0 < lo <= hi, got [{c_lo}, {c_hi}]")
    # A job's totals are at most c_hi and a run's at most T * c_hi: keep them finite.
    half = sys.float_info.max / 2
    _check(
        max(cfg.T, 1) <= half / c_hi,
        f"cost_max times the job count must be at most {half:.6g}, got {c_hi} and {cfg.T} jobs",
    )
    _check(0 < r_lo <= r_hi, f"rho bounds must satisfy 0 < lo <= hi, got [{r_lo}, {r_hi}]")
    _check(0 < b_lo <= b_hi, f"beta bounds must satisfy 0 < lo <= hi, got [{b_lo}, {b_hi}]")
    _check(0 < cfg.epsilon < 1, f"epsilon must lie strictly in (0, 1), got {cfg.epsilon}")
    _check(cfg.D > 0, f"deadline must be positive, got {cfg.D}")
    _check(
        0 < cfg.delta < b_lo,
        f"observation window delta must satisfy 0 < delta < beta lower bound, "
        f"got delta={cfg.delta}, beta_lo={b_lo}",
    )
    _check(cfg.sigma_log >= 0, f"sigma_log must be >= 0, got {cfg.sigma_log}")
    _check(
        jct_location(r_lo, cfg.sigma_log) - 9 * cfg.sigma_log >= math.log(5e-324),
        f"sigma_log={cfg.sigma_log} draws completion times that underflow to 0.0 at rho_min={r_lo}",
    )
    _check(cfg.seed >= 0, f"seed must be >= 0, got {cfg.seed}")
    return cfg


def _validate_recipe(cfg: MarketConfig, recipe: PopulationRecipe) -> None:
    if recipe.total != cfg.n:
        raise InvalidRecipe(f"recipe covers {recipe.total} workers, config says n={cfg.n}")
    for gi, g in enumerate(recipe.groups):
        if g.count <= 0:
            raise InvalidRecipe(f"group {gi}: count must be positive, got {g.count}")
        for name, (lo, hi), bounds in (
            ("cost", g.cost_range, cfg.cost_bounds),
            ("rho", g.rho_range, cfg.rho_bounds),
            ("beta", g.beta_range, cfg.beta_bounds),
        ):
            if not lo <= hi:
                raise InvalidRecipe(f"group {gi}: {name} range [{lo}, {hi}] is inverted")
            if lo < bounds[0] or hi > bounds[1]:
                raise InvalidRecipe(
                    f"group {gi}: {name} range [{lo}, {hi}] exceeds config bounds "
                    f"[{bounds[0]}, {bounds[1]}]"
                )


def population_streams(cfg: MarketConfig) -> np.random.Generator:
    """Dedicated RNG stream for population sampling: the master seed's first
    child (the workers' outcome streams are the next ``n``)."""
    return np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])


def outcome_streams(cfg: MarketConfig) -> list[np.random.Generator]:
    """One independent outcome stream per worker.

    Streams are spawned from the master seed, so changing which workers get
    allocated (and hence how many draws each stream serves) never perturbs
    another worker's sequence.  This is what makes paired bid-deviation
    comparisons exact.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n + 1)
    return [np.random.default_rng(c) for c in children[1:]]


def sample_population(cfg: MarketConfig, recipe: PopulationRecipe) -> list[WorkerProfile]:
    """Draw the worker population; deterministic given ``cfg.seed``.

    One call draws three standard uniforms ``u`` per worker (cost, mjct, mttf),
    each scaled as ``Generator.uniform`` does, to ``lo + (hi - lo) * u`` over
    the group's range: the values of three scalar ``uniform`` draws per worker.
    """
    validate_config(cfg)
    _validate_recipe(cfg, recipe)
    u = iter(population_streams(cfg).random(3 * cfg.n).tolist())
    workers: list[WorkerProfile] = []
    for g in recipe.groups:
        ranges = (g.cost_range, g.rho_range, g.beta_range)
        (c, dc), (r, dr), (b, db) = [(float(lo), float(hi) - float(lo)) for lo, hi in ranges]
        for _ in range(g.count):
            cost, mjct, mttf = c + dc * next(u), r + dr * next(u), b + db * next(u)
            workers.append(WorkerProfile(len(workers), cost, mjct, mttf))
    return workers


def jct_location(mjct: float, sigma_log: float) -> float:
    """Log-scale location of the log-normal with mean exactly ``mjct`` and
    log-scale shape ``sigma_log``: ``ln mjct - sigma_log**2 / 2``."""
    return math.log(mjct) - 0.5 * sigma_log * sigma_log


BLOCK = 256  # outcome draws per worker per refill


class OutcomeBlocks:
    """The current outcome block of every worker.

    Row ``i`` of ``jct`` holds worker ``i``'s log-normal completion-time draws
    (location ``location[i]``, see :func:`jct_location`, shape ``sigma_log``),
    and row ``i`` of ``failed`` whether each of its exponential times to
    failure (mean ``mttf[i]``) fell inside the observation window ``delta``;
    a time to failure is only ever compared with ``delta``.  ``cursor[i]``
    counts the draws worker ``i`` has taken from its block.  A spent block is
    refilled from ``streams[i]``: ``BLOCK`` log-normals, then ``BLOCK``
    exponentials.

    For up to ``_LIST_MAX`` workers ``jct``, ``failed`` and ``cursor`` are
    lists, and each refilled block is read through ``tolist()``; above, they
    are (n, ``BLOCK``) arrays and an array of cursors.  The draws are the
    same, and ``failed`` holds bools in both forms.  ``_checked`` holds the
    bytes of the last fractions :func:`sample_outcome` accepted in the array
    form.
    """

    def __init__(
        self,
        streams: list[np.random.Generator],
        location: list[float],
        mttf: list[float],
        *,
        sigma_log: float,
        delta: float,
    ) -> None:
        n = len(streams)
        if len(location) != n or len(mttf) != n:
            raise ValueError("streams, location and mttf need one entry per worker")
        self.streams = streams
        self.location = location
        self.mttf = mttf
        self.sigma_log = sigma_log
        self.delta = delta
        self._lists = n <= _LIST_MAX
        if self._lists:
            self.jct, self.failed = [None] * n, [None] * n  # filled at the first refill
            self.cursor = [BLOCK] * n  # every block starts spent
        else:
            self.jct = np.empty((n, BLOCK))
            self.failed = np.empty((n, BLOCK), dtype=bool)
            self.cursor = np.full(n, BLOCK, dtype=np.intp)
            self._ids = np.arange(n)  # viewed by a range of ids
            self._first_cell = np.arange(0, n * BLOCK, BLOCK)  # each block's, flat
        self._checked = None  # the bytes of the last fractions the array form accepted

    def refill(self, workers: list[int]) -> None:
        """Draw a fresh block for each listed worker and rewind its cursor."""
        streams, location, mttf, sigma_log, delta = (
            self.streams, self.location, self.mttf, self.sigma_log, self.delta
        )
        jct_rows, failed_rows, cursor, lists = self.jct, self.failed, self.cursor, self._lists
        for i in workers:
            rng = streams[i]
            jct = rng.lognormal(location[i], sigma_log, BLOCK)
            failed = rng.exponential(mttf[i], BLOCK) < delta
            if lists:
                jct, failed = jct.tolist(), failed.tolist()
                cursor[i] = 0
            jct_rows[i], failed_rows[i] = jct, failed
        if not lists:
            cursor[workers] = 0


def _check_ids(workers, n: int) -> None:
    """Raise ValueError unless ``workers`` lists distinct integer worker ids
    in ``[0, n)``, and a range of them has step 1.  An id is a Python or
    numpy int, not a float or a bool; an array's dtype says so.  The cheap
    checks of ``_check_listed`` and ``_worker_index`` fall back on this one
    when they fail, so ids listed out of order pass here."""
    if type(workers) is range:
        if workers.step != 1:
            raise ValueError(f"a range of worker ids must have step 1, got {workers}")
    elif isinstance(workers, np.ndarray):
        if workers.size and workers.dtype.kind not in "iu":
            raise ValueError(f"worker ids must be integers, got dtype {workers.dtype}")
    elif not all(type(w) is int or isinstance(w, np.integer) for w in workers):
        raise ValueError(f"worker ids must be integers, got {workers!r}")
    ids = sorted(workers)
    if ids and not (0 <= ids[0] and ids[-1] < n):
        raise ValueError(f"worker ids must lie in [0, {n})")
    if any(map(operator.eq, ids, ids[1:])):
        raise ValueError("worker ids must be distinct")


def _check_listed(workers, n: int, *values) -> None:
    """The list form's check of the listed workers: ValueError unless they
    are ids as ``_check_ids`` takes them, then unless each of ``values`` has
    one entry per listed worker, the array form's order.  The cheap check,
    increasing Python ints below ``n``, falls back on ``_check_ids``."""
    if type(workers) is range:
        _check_ids(workers, n)
    else:
        last = -1
        for w in workers:
            if not (type(w) is int and last < w < n):  # the type first: "a" < 0 raises
                _check_ids(workers, n)
                break
            last = w
    for v in values:
        if len(v) != len(workers):
            raise ValueError("need one entry per listed worker")


def _worker_index(workers, ids: np.ndarray):
    """The array form's index of the listed workers into per-worker state,
    and their ids as an array, given ``ids = np.arange(n)``.  A range (a run
    of ids) gives a slice and a view of ``ids``, so the state is read and
    updated through views; anything else gives its id array twice.  Raises
    ValueError unless the ids are distinct integers in ``[0, n)``."""
    n = ids.size
    if type(workers) is range:
        lo, hi = workers.start, workers.stop
        if not (workers.step == 1 and lo >= 0 and hi <= n):
            _check_ids(workers, n)
        return slice(lo, hi), ids[lo:hi]
    workers = np.asarray(workers)
    if workers.dtype != np.intp:
        _check_ids(workers, n)  # the full check: a float or bool id raises
        workers = workers.astype(np.intp)
    if workers.size and not (
        workers[0] >= 0 and workers[-1] < n and not np.count_nonzero(workers[1:] <= workers[:-1])
    ):
        _check_ids(workers, n)
    return workers, workers


def sample_outcome(blocks: OutcomeBlocks, workers, fractions):
    """Sample one job's outcome for each worker in ``workers``: distinct ids
    in ``[0, n)``, or a ``range`` of them with step 1; else ValueError.

    Worker ``i = workers[k]``, with job fraction ``fractions[k]``, takes the
    next draw of its block in ``blocks``, refilling the block first when it is
    spent.  Returns ``(tau, seen, failed)``: each listed worker's completion
    time ``fraction * jct``, a list of Python floats when ``blocks`` holds
    lists (up to ``_LIST_MAX`` workers), else a float64 array; the workers
    whose work reached the observation window (``tau >= delta``), in listed
    order; and whether each of those windows saw a failure.  ``seen`` and
    ``failed`` are lists of ints and bools in both forms.  In the array form
    a range's cursors advance in place through a view, and its cells are
    read through slices; an id array's are gathered and scattered; the
    draws are the same.  The array form also keeps the bytes of the last
    fractions that passed the check in ``blocks`` and checks only fractions
    whose bytes differ, so a repeating plan's are checked once; the key is
    the bytes, not the array, which its owner may still write into.
    """
    if blocks._lists:
        return _sample_lists(blocks, _as_list(workers), _as_list(fractions))
    fractions = np.asarray(fractions, dtype=float)
    index, ids = _worker_index(workers, blocks._ids)
    if fractions.shape != ids.shape:
        raise ValueError("need one entry per listed worker")
    key = fractions.tobytes()  # a repeating plan's fractions are checked once
    if key != blocks._checked:
        # ceil is 1 exactly on (0, 1]; NaN fails
        if np.count_nonzero(np.ceil(fractions) == 1.0) != fractions.size:
            raise ValueError("fractions must lie in (0, 1]")
        blocks._checked = key
    pos = blocks.cursor[index]  # a view for a range
    spent = pos == BLOCK
    if np.count_nonzero(spent):
        blocks.refill(ids[spent].tolist())
        pos[spent] = 0
    cells = blocks._first_cell[index] + pos
    pos += 1
    if type(index) is not slice:  # an id array's pos is a gather
        blocks.cursor[index] = pos
    tau = fractions * blocks.jct.take(cells)
    observed = (tau >= blocks.delta).nonzero()[0]
    if not observed.size:  # at n = 400 most jobs observe no window
        return tau, [], []
    return tau, ids[observed].tolist(), blocks.failed.take(cells[observed]).tolist()


def _sample_lists(blocks: OutcomeBlocks, workers, fractions: list):
    """``sample_outcome`` on the list form, one worker at a time; the checks
    run before any cursor moves."""
    cursor, delta = blocks.cursor, blocks.delta
    _check_listed(workers, len(cursor), fractions)
    for f in fractions:
        if not 0.0 < f <= 1.0:  # NaN fails
            raise ValueError("fractions must lie in (0, 1]")
    tau, seen, failed = [], [], []
    for i, f in zip(workers, fractions):
        pos = cursor[i]
        if pos == BLOCK:
            blocks.refill([i])
            pos = 0
        cursor[i] = pos + 1
        x = f * blocks.jct[i][pos]
        tau.append(x)
        if x >= delta:
            seen.append(i)
            failed.append(blocks.failed[i][pos])
    return tau, seen, failed


# Rows formatted per write, so memory stays flat however long the columns
# are; larger chunks write no faster and hold more strings at once.
_CSV_CHUNK = 256


def _bits(column):
    """An array column's dtype and bytes, None for a list or range."""
    if isinstance(column, np.ndarray):
        return column.dtype, memoryview(np.ascontiguousarray(column)).cast("B")
    return None


def _write_csv(path: str | Path, columns: dict) -> None:
    """Write ``columns``, header name to column (an array, list or range;
    all of one length), as CSV.  Each field is the ``repr`` of its Python
    scalar (an array chunk's ``tolist``), which is what ``csv.writer``
    writes for a float or an int; rows end in CRLF, and no field is quoted.
    An array bit for bit equal to an earlier one (same dtype and bytes, so
    -0.0 is not 0.0) reuses that column's strings instead of formatting them."""
    values = list(columns.values())
    keys = [_bits(c) for c in values]
    first = [i if key is None else keys.index(key) for i, key in enumerate(keys)]
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        f.write(",".join(columns) + "\r\n")
        for lo in range(0, len(values[0]), _CSV_CHUNK):
            hi, fields = lo + _CSV_CHUNK, []
            for c, j in zip(values, first):
                if j < len(fields):  # bit-equal to column j
                    fields.append(fields[j])
                else:
                    fields.append(list(map(repr, _as_list(c[lo:hi]))))
            f.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


# --- plain-text config files -------------------------------------------------

_SCALAR_KEYS = {
    "n": int,
    "jobs": int,
    "deadline": float,
    "epsilon": float,
    "delta": float,
    "sigma_log": float,
    "seed": int,
    "cost_min": float,
    "cost_max": float,
    "rho_min": float,
    "rho_max": float,
    "beta_min": float,
    "beta_max": float,
}
_OPTIONAL_KEYS = ("sigma_log", "seed")  # MarketConfig's defaults fill them in
_ESTIMATOR_KEYS = {"alpha": float, "u_rho": float, "u_beta": float}
_KEY_TYPES = {**_SCALAR_KEYS, **_ESTIMATOR_KEYS}
# A scalar key sets the MarketConfig field of its own name, except the two
# renamed here and the bounds: <name>_min and <name>_max set <name>_bounds.
_FIELDS = {"jobs": "T", "deadline": "D"}
_BOUNDS = ("cost", "rho", "beta")
_GROUP_FIELDS = ("count", "cost", "rho", "beta")


def _parse_range(raw: str, where: str) -> Bounds:
    try:
        values = [float(part) for part in raw.split()]
    except ValueError as exc:
        raise InvalidConfig(f"{where}: expected numbers, got {raw!r}") from exc
    if len(values) == 1:
        return (values[0], values[0])
    if len(values) == 2:
        return (values[0], values[1])
    raise InvalidConfig(f"{where}: expected one or two numbers, got {raw!r}")


def load_config(path: str | Path) -> tuple[MarketConfig, PopulationRecipe, dict[str, float]]:
    """Read a market config and population recipe from a key/value file.

    Scalar keys: ``n``, ``jobs``, ``deadline``, ``epsilon``, ``delta``,
    ``sigma_log``, ``seed``, ``cost_min``/``cost_max``, ``rho_min``/``rho_max``,
    ``beta_min``/``beta_max``.  Worker groups use ``group.<i>.count`` plus
    ``group.<i>.cost``, ``group.<i>.rho`` and ``group.<i>.beta``, each either a
    single number or a ``lo hi`` pair.  Optional estimator overrides ``alpha``,
    ``u_rho`` and ``u_beta`` are returned in the third element.  Lines starting
    with ``#`` and blank lines are ignored.  A key may be set only once.
    """
    path = Path(path)
    if not path.is_file():
        raise InvalidConfig(f"config file not found: {path}")
    scalars: dict[str, float | int] = {}
    estimator: dict[str, float] = {}
    groups: dict[int, dict[str, str]] = {}
    seen: dict[str, int] = {}  # key -> line that set it
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("group."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _GROUP_FIELDS:
                raise InvalidConfig(f"{path}:{lineno}: unknown group key {key!r}")
            try:
                idx = int(parts[1])
            except ValueError as exc:
                raise InvalidConfig(f"{path}:{lineno}: bad group index in {key!r}") from exc
            key = f"group.{idx}.{parts[2]}"
        first = seen.setdefault(key, lineno)
        if first != lineno:
            raise InvalidConfig(f"{path}: key {key!r} is set on lines {first} and {lineno}")
        if key in _KEY_TYPES:
            try:
                typed = _KEY_TYPES[key](value)
            except ValueError as exc:
                raise InvalidConfig(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
            (estimator if key in _ESTIMATOR_KEYS else scalars)[key] = typed
        elif key.startswith("group."):
            groups.setdefault(idx, {})[parts[2]] = value
        else:
            raise InvalidConfig(f"{path}:{lineno}: unknown key {key!r}")

    missing = [k for k in _SCALAR_KEYS if k not in scalars and k not in _OPTIONAL_KEYS]
    if missing:
        raise InvalidConfig(f"{path}: missing keys: {', '.join(missing)}")

    # Each scalar already has its key's type; MarketConfig's defaults fill in
    # the optional keys left out.
    fields = {_FIELDS.get(key, key): value for key, value in scalars.items()}
    for name in _BOUNDS:
        fields[f"{name}_bounds"] = (fields.pop(f"{name}_min"), fields.pop(f"{name}_max"))
    cfg = MarketConfig(**fields)

    if not groups:
        raise InvalidConfig(f"{path}: no population groups defined")
    parsed_groups = []
    for idx in sorted(groups):
        g = groups[idx]
        for fieldname in _GROUP_FIELDS:
            if fieldname not in g:
                raise InvalidConfig(f"{path}: group.{idx} is missing {fieldname}")
        try:
            count = int(g["count"])
        except ValueError as exc:
            raise InvalidConfig(f"{path}: bad value for group.{idx}.count: {g['count']!r}") from exc
        parsed_groups.append(
            PopulationGroup(
                count=count,
                cost_range=_parse_range(g["cost"], f"group.{idx}.cost"),
                rho_range=_parse_range(g["rho"], f"group.{idx}.rho"),
                beta_range=_parse_range(g["beta"], f"group.{idx}.beta"),
            )
        )
    recipe = PopulationRecipe(groups=tuple(parsed_groups))

    validate_config(cfg)
    _validate_recipe(cfg, recipe)
    return cfg, recipe, estimator
