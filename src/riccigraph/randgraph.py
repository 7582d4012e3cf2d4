"""Seeded random-graph samplers and curvature ensemble experiments.

Samplers condition on a marked edge being present and are driven by a
counter-based generator (Philox) with per-replicate substreams derived from
(seed, replicate index), so serial and parallel runs of an experiment see
identical graphs.  Regime descriptors encode the known limits of kappa(a,b)
for G(n,p) and bipartite G(n,n,p); the classifier maps an (n, p) pair to a
regime only when the scaling tests are unambiguous, and refuses otherwise.
"""

from __future__ import annotations

import csv
import io
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import girth6_kappa, ricci_auto
from .errors import GraphInputError, RegimeUndeterminedError
from .graph import MAX_EDGES, MAX_VERTEX_ID, CoreNeighborhood, Graph, core_neighborhood
from .rationals import format_rational

DEFAULT_SIZE_BUDGET = 250_000
DEFAULT_REFERENCE_SAMPLES = 100_000
# every row stays in memory (about 512 B each) until the report is built
MAX_REPLICATES = 100_000

# spawn key reserved for auxiliary streams (replicate indices stay below 2^32)
_AUX_STREAM = 1 << 32


def _generator(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


def replicate_seed(seed: int, replicate: int) -> int:
    """Substream seed for one replicate; stable under serial or parallel order."""
    words = np.random.SeedSequence(
        entropy=seed, spawn_key=(replicate,)
    ).generate_state(2, np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def _bernoulli_indices(rng: np.random.Generator, count: int, p: float) -> np.ndarray:
    """Positions in [0, count) hit by independent Bernoulli(p) trials.

    Uses geometric gap lengths, so the work is proportional to the number of
    successes rather than to count.
    """
    if count <= 0 or p <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1:
        return np.arange(count, dtype=np.int64)
    chunks = []
    pos = -1
    while True:
        est = max(16, int((count - pos) * p * 1.1) + 16)
        # a gap past count ends the stream; capping it keeps cumsum from wrapping
        gaps = np.minimum(rng.geometric(p, size=est), count + 1).astype(np.int64)
        positions = pos + np.cumsum(gaps)
        take = positions[positions < count]
        chunks.append(take)
        if len(take) < len(positions):
            break
        pos = int(positions[-1])
    return np.concatenate(chunks)


def _check_sample_size(vertices: int, pairs: int, p: float) -> None:
    if vertices > MAX_VERTEX_ID + 1:
        raise GraphInputError(f"{vertices} vertices exceed the limit of {MAX_VERTEX_ID + 1}")
    if pairs * p > MAX_EDGES:
        raise GraphInputError(
            f"expected {pairs * p:.4g} edges exceed the sampler limit of {MAX_EDGES}"
        )


def _unpack_pairs(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # pair index k = j(j-1)/2 + i with 0 <= i < j; float estimate of j fixed
    # up by at most one step either way
    j = ((1 + np.sqrt(8 * ks.astype(np.float64) + 1)) / 2).astype(np.int64)
    j = np.where(j * (j - 1) // 2 > ks, j - 1, j)
    j = np.where((j + 1) * j // 2 <= ks, j + 1, j)
    i = ks - j * (j - 1) // 2
    return i, j


def _sample_marked(vertices, pairs, p, seed, unpack, mark) -> Graph:
    # the conditioned-sampler body: `unpack` maps Bernoulli pair indices to
    # endpoint arrays, and the marked edge is appended to them
    _check_sample_size(vertices, pairs, float(p))
    us, vs = unpack(_bernoulli_indices(_generator(seed), pairs, float(p)))
    return Graph.from_arrays(vertices, np.append(us, mark[0]), np.append(vs, mark[1]))


def sample_gnp(n: int, p: float, seed: int, mark: tuple[int, int]) -> Graph:
    """G(n, p) conditioned on the marked edge being present."""
    a, b = mark
    if not 0 <= float(p) <= 1:
        raise GraphInputError(f"edge probability {p} outside [0, 1]")
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise GraphInputError(f"marked edge ({a}, {b}) invalid for {n} vertices")
    return _sample_marked(n, n * (n - 1) // 2, p, seed, _unpack_pairs, mark)


def sample_bipartite(m: int, n: int, p: float, seed: int, mark: tuple[int, int]) -> Graph:
    """Bipartite G(m, n, p) on sides {0..m-1} and {m..m+n-1}, marked edge present."""
    a, b = mark
    if not 0 <= float(p) <= 1:
        raise GraphInputError(f"edge probability {p} outside [0, 1]")
    if not (0 <= a < m and m <= b < m + n):
        raise GraphInputError(
            f"marked edge ({a}, {b}) must join the left side [0, {m}) "
            f"to the right side [{m}, {m + n})"
        )
    return _sample_marked(m + n, m * n, p, seed, lambda ks: (ks // n, m + ks % n), mark)


def sample_tree_limit(lam: float, replicates: int, seed: int) -> list[Fraction]:
    """Draws of -2(1 - 1/(1+X1) - 1/(1+X2))_+ with X1, X2 independent Poisson(lam)."""
    if lam <= 0:
        raise GraphInputError("lambda must be positive")
    rng = _generator(seed, spawn_key=(_AUX_STREAM,))
    x1 = rng.poisson(lam, size=replicates)
    x2 = rng.poisson(lam, size=replicates)
    cache: dict[tuple[int, int], Fraction] = {}
    out = []
    for u, v in zip(x1.tolist(), x2.tolist()):
        key = (u, v)
        val = cache.get(key)
        if val is None:
            val = girth6_kappa(1 + u, 1 + v)
            cache[key] = val
        out.append(val)
    return out


def ecdf_distance(xs, ys) -> Fraction:
    """Exact sup-distance between the empirical CDFs of two value lists."""
    if not xs or not ys:
        raise GraphInputError("empirical CDF distance needs nonempty samples")
    cx, cy = Counter(xs), Counter(ys)
    n1, n2 = len(xs), len(ys)
    acc1 = acc2 = 0
    best = Fraction(0)
    for v in sorted(set(cx) | set(cy)):
        acc1 += cx[v]
        acc2 += cy[v]
        diff = abs(Fraction(acc1, n1) - Fraction(acc2, n2))
        if diff > best:
            best = diff
    return best


@dataclass(frozen=True)
class RegimeLimit:
    """Limit descriptor.  lam stands in for the reserved word lambda."""

    kind: str
    value: Fraction | None = None
    lam: float | None = None
    regime: str | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "tree_distribution", "isolated_edge"):
            raise GraphInputError(f"unknown limit kind {self.kind!r}")
        if self.kind == "constant" and self.value is None:
            raise GraphInputError("constant limit needs a value")
        if self.kind == "tree_distribution" and self.lam is None:
            raise GraphInputError("tree-distribution limit needs lambda")


def _exact_probability(p) -> Fraction:
    if isinstance(p, Fraction):
        return p
    if isinstance(p, int):
        return Fraction(p)
    return Fraction(str(p))


def regime_limit(model: str, n: int, p) -> RegimeLimit:
    """Classify (n, p) into a limit regime via the scalings np, np^2, n^2 p^3.

    The decision bands are deliberately separated; scalings falling between
    them raise RegimeUndeterminedError rather than guess.
    """
    if model not in ("gnp", "bipartite"):
        raise GraphInputError(f"unknown model {model!r}")
    pf = float(p)
    s1 = n * pf
    s2 = n * pf * pf
    s3 = n * n * pf**3
    if model == "gnp":
        bands = (
            ("f", pf >= 0.25),
            ("a", s1 < 0.05),
            ("b", 0.5 <= s1 <= 8 and s2 < 0.1),
            ("c", s1 > 20 and s3 < 0.2),
            ("d", s3 > 20 and s2 < 0.1),
            ("e", s2 > 20 and pf < 0.05),
        )
    else:
        bands = (
            ("a", s1 < 0.05),
            ("b", 0.5 <= s1 <= 8 and s2 < 0.1),
            ("c", s1 > 20 and s2 < 0.1),
            ("d", s2 > 20),
        )
    for letter, inside in bands:
        if inside:
            return regime_descriptor(model, letter, n, p)
    raise RegimeUndeterminedError(
        f"scalings np={s1:.4g}, np^2={s2:.4g}, n^2p^3={s3:.4g} sit between "
        "regime bands; name the regime explicitly"
    )


def regime_descriptor(model: str, regime: str, n: int, p) -> RegimeLimit:
    """Limit descriptor for an explicitly named regime (no threshold test)."""
    if model not in ("gnp", "bipartite"):
        raise GraphInputError(f"unknown model {model!r}")
    if regime not in (_CANONICAL_GNP if model == "gnp" else _CANONICAL_BIPARTITE):
        raise GraphInputError(f"unknown {model} regime {regime!r}")
    if regime == "a":
        return RegimeLimit(kind="isolated_edge", value=Fraction(0), regime="a")
    if regime == "b":
        return RegimeLimit(
            kind="tree_distribution", lam=float(n * _exact_probability(p)), regime="b"
        )
    if regime == "f":
        return RegimeLimit(kind="constant", value=_exact_probability(p), regime="f")
    # c is -2 in both models; d is -1 in G(n, p) and 0 in G(n, n, p); e is 0
    value = {"c": -2, "d": -1 if model == "gnp" else 0, "e": 0}[regime]
    return RegimeLimit(kind="constant", value=Fraction(value), regime=regime)


# Default (n, p) per named regime.  The trend regimes (c)-(e) use scalings
# whose finite-n values sit inside the classifier's refusal bands, which is
# why a named regime bypasses classification entirely.
_CANONICAL_GNP = {
    "a": (10_000, 1e-6),
    "b": (5_000, 3 / 5_000),
    "c": (1_000, 1_000 ** -0.8),
    "d": (1_000, 1_000 ** -0.6),
    "e": (1_000, 1_000 ** -0.4),
    "f": (400, 0.5),
}
_CANONICAL_BIPARTITE = {
    "a": (10_000, 1e-6),
    "b": (5_000, 3 / 5_000),
    "c": (10_000, 0.003),
    "d": (2_000, 0.15),
}


def canonical_regime_params(model: str, regime: str) -> tuple[int, float]:
    """Default (n, p) for a named regime when the caller gives none."""
    table = _CANONICAL_GNP if model == "gnp" else _CANONICAL_BIPARTITE
    if model not in ("gnp", "bipartite") or regime not in table:
        raise GraphInputError(f"no canonical parameters for {model!r} regime {regime!r}")
    return table[regime]


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    n: int
    p: float
    replicates: int
    seed: int
    regime: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.model not in ("gnp", "bipartite"):
            raise GraphInputError(f"unknown model {self.model!r}")
        if self.replicates < 1:
            raise GraphInputError("need at least one replicate")
        if self.replicates > MAX_REPLICATES:
            raise GraphInputError(
                f"{self.replicates} replicates exceed the limit of {MAX_REPLICATES}"
            )
        if not 0 <= float(self.p) <= 1:
            raise GraphInputError(f"edge probability {self.p} outside [0, 1]")
        if self.model == "gnp" and self.n < 2:
            raise GraphInputError("need at least two vertices")
        if self.n < 1:
            raise GraphInputError("need at least one vertex per side")
        if self.workers < 1:
            raise GraphInputError("workers must be positive")
        if self.seed < 0:
            raise GraphInputError(f"seed must be non-negative, got {self.seed}")

    def marked_edge(self) -> tuple[int, int]:
        if self.model == "gnp":
            return (0, 1)
        return (0, self.n)


@dataclass(frozen=True)
class ReplicateRow:
    index: int
    n: int
    p: float
    kappa: Fraction | None = None
    method: str | None = None
    core_size: int | None = None
    isolated: bool | None = None
    skip: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    limit: RegimeLimit
    rows: tuple[ReplicateRow, ...]
    samples: tuple[Fraction, ...]
    empirical_mean: float | None
    empirical_median: Fraction | None
    distance_to_limit: float | None
    isolated_fraction: float | None
    positive_samples: int
    skipped: int

    def to_json_dict(self) -> dict:
        cfg = self.config
        limit_dict = {"kind": self.limit.kind, "regime": self.limit.regime}
        if self.limit.value is not None:
            limit_dict["value"] = format_rational(self.limit.value)
            limit_dict["value_float"] = round(float(self.limit.value), 6)
        if self.limit.lam is not None:
            limit_dict["lambda"] = self.limit.lam
        payload = {
            "model": cfg.model,
            "n": cfg.n,
            "p": float(cfg.p),
            "replicates": cfg.replicates,
            "seed": cfg.seed,
            "regime": self.limit.regime,
            "limit": limit_dict,
            "computed": len(self.samples),
            "skipped": self.skipped,
            "positive_samples": self.positive_samples,
            "empirical_mean": self.empirical_mean,
            "empirical_median": (
                None
                if self.empirical_median is None
                else format_rational(self.empirical_median)
            ),
            "empirical_median_float": (
                None
                if self.empirical_median is None
                else round(float(self.empirical_median), 6)
            ),
            "distance_to_limit": self.distance_to_limit,
            "isolated_fraction": self.isolated_fraction,
        }
        return payload

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "n", "p", "kappa", "kappa_float", "method", "core_size"])
        for row in self.rows:
            if row.skip is not None:
                writer.writerow([row.index, row.n, repr(row.p), "", "", "skip", ""])
            else:
                writer.writerow(
                    [
                        row.index,
                        row.n,
                        repr(row.p),
                        format_rational(row.kappa),
                        round(float(row.kappa), 6),
                        row.method,
                        row.core_size,
                    ]
                )
        return buf.getvalue()


def _marked_core_size(core: CoreNeighborhood) -> int:
    """Vertices in the marked edge's core: {a, b} | N(a) | N(b) | P(a, b)."""
    return len(core.vertices)


def _replicate(config: ExperimentConfig, index: int) -> ReplicateRow:
    seed = replicate_seed(config.seed, index)
    a, b = config.marked_edge()
    if config.model == "gnp":
        g = sample_gnp(config.n, config.p, seed, (a, b))
    else:
        g = sample_bipartite(config.n, config.n, config.p, seed, (a, b))
    da, db = g.degree(a), g.degree(b)
    if da * db > DEFAULT_SIZE_BUDGET:
        return ReplicateRow(
            index=index,
            n=config.n,
            p=float(config.p),
            skip=f"transport instance {da}*{db} exceeds budget {DEFAULT_SIZE_BUDGET}",
        )
    core = core_neighborhood(g, a, b)
    result = ricci_auto(g, a, b, core=core)
    return ReplicateRow(
        index=index,
        n=config.n,
        p=float(config.p),
        kappa=result.kappa,
        method=result.method,
        core_size=_marked_core_size(core),
        isolated=(da == 1 and db == 1),
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Sample `replicates` graphs, compute kappa at the marked edge, aggregate.

    Replicates that would exceed the transport size budget are recorded as
    skips, never dropped silently.  Results are assembled in replicate order
    whatever the worker count.
    """
    if config.regime is not None:
        limit = regime_descriptor(config.model, config.regime, config.n, config.p)
    else:
        limit = regime_limit(config.model, config.n, config.p)
    # the pool starts all its workers up front, so never more than can be used
    workers = min(config.workers, config.replicates, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(
                pool.map(
                    _replicate,
                    [config] * config.replicates,
                    range(config.replicates),
                    chunksize=max(1, config.replicates // (4 * workers)),
                )
            )
    else:
        rows = tuple(_replicate(config, r) for r in range(config.replicates))
    samples = tuple(row.kappa for row in rows if row.skip is None)
    skipped = sum(1 for row in rows if row.skip is not None)
    if samples:
        total = sum(samples, Fraction(0))
        mean = float(total / len(samples))
        ordered = sorted(samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            median = ordered[mid]
        else:
            median = (ordered[mid - 1] + ordered[mid]) / 2
        isolated_fraction = sum(1 for row in rows if row.isolated) / len(samples)
    else:
        mean = None
        median = None
        isolated_fraction = None
    if median is None:
        distance = None
    elif limit.kind == "constant":
        distance = float(abs(median - limit.value))
    elif limit.kind == "isolated_edge":
        distance = 1.0 - isolated_fraction
    else:
        reference = sample_tree_limit(limit.lam, DEFAULT_REFERENCE_SAMPLES, config.seed)
        distance = float(ecdf_distance(list(samples), reference))
    return ExperimentReport(
        config=config,
        limit=limit,
        rows=rows,
        samples=samples,
        empirical_mean=mean,
        empirical_median=median,
        distance_to_limit=distance,
        isolated_fraction=isolated_fraction,
        positive_samples=sum(1 for s in samples if s > 0),
        skipped=skipped,
    )
