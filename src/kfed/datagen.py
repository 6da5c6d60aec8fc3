"""Synthetic instances: separated Gaussian mixtures and device partitions.

Mean placement supports two modes:
  * ``auto``: equal pairwise distances large enough that the generated
    data provably clears the active/inactive separation thresholds with
    about 2x headroom (used by the recovery experiments),
  * ``sigma``: means exactly ``c * sigma_max`` apart, the "c standard
    deviations" reading used for the separation-constant sweep.

Partitions are either structured (components grouped, each group's data
split across m0 devices, so only within-group cluster pairs ever share a
device) or IID (rows assigned to devices uniformly at random).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import validate_matrix
from .local import Clustering
from .rng import Stream

_NOISE_STREAM = 23
_DEVICE_STREAM = 37
# Above every |normal| that Stream.normals draws (see mixture_bound).
_NORMAL_BOUND = 8.6


@dataclass
class MixtureSpec:
    """Isotropic Gaussian mixture with prescribed component separation."""

    k: int
    d: int
    n: int
    sigma_max: float
    seed: int
    weights: np.ndarray | None = None       # None = uniform
    mean_mode: str = "auto"                 # auto | sigma
    c: float = 100.0
    m0: float = 5.0

    def to_json_dict(self) -> dict:
        return {
            "k": self.k, "d": self.d, "n": self.n,
            "sigma_max": self.sigma_max, "seed": self.seed,
            "weights": None if self.weights is None else list(map(float, self.weights)),
            "mean_mode": self.mean_mode, "c": self.c, "m0": self.m0,
        }


def resolve_weights(weights, k: int) -> np.ndarray:
    """Component weights: ``weights`` checked, or uniform when None."""
    if weights is None:
        return np.full(k, 1.0 / k)
    w = np.asarray(weights, dtype=float)
    if w.shape != (k,) or np.any(w <= 0):
        raise ValueError("weights must be k positive numbers")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    return w


@dataclass
class PartitionSpec:
    """How rows are spread over devices."""

    mode: str                     # structured | iid
    m0: int | None = None         # structured: devices per component group
    group_size: int | None = None # structured: components per group


def estimate_m0(counts: np.ndarray) -> float:
    """Tightest size-ratio bound: max over nonempty shares of n_r / n^z_r.

    ``counts`` is the (Z, k) table of per-device per-cluster row counts.
    """
    totals = counts.sum(axis=0).astype(float)
    nonzero = counts > 0
    if not nonzero.any():
        raise ValueError("partition holds no rows")
    ratios = np.where(nonzero, totals[None, :] / np.maximum(counts, 1), 0.0)
    return float(ratios.max())


@dataclass
class DevicePartition:
    """Assignment of global row indices to devices."""

    device_rows: list[np.ndarray]
    k: int | None = None
    k_per_device: list[int] | None = None

    @property
    def num_devices(self) -> int:
        return len(self.device_rows)

    def check_cover(self, n: int) -> None:
        """Raise unless every row id 0..n-1 is on exactly one device, and
        every device that holds ids holds them in an integer array (a float
        id would truncate, and a bool array indexes rows as a mask)."""
        ids = [np.ravel(r) for r in self.device_rows if np.size(r)]
        seen = np.concatenate(ids).astype(int) if ids else np.empty(0, dtype=int)
        if (any(r.dtype.kind not in "iu" for r in ids) or seen.size != n
                or seen.min(initial=0) < 0 or seen.max(initial=-1) >= n
                or np.bincount(seen, minlength=n).max(initial=0) > 1):
            raise ValueError("device rows must disjointly cover all rows")

    def validate(self, n: int) -> "DevicePartition":
        self.check_cover(n)
        empty = [z for z, rows in enumerate(self.device_rows) if len(rows) == 0]
        if empty:
            raise ValueError(f"device {empty[0]} holds no rows")
        if self.k is not None and self.k_per_device is not None:
            if max(self.k_per_device) > self.k:
                raise ValueError("a device requests more clusters than exist globally")
        return self

    def counts_by_cluster(self, labels: np.ndarray, k: int) -> np.ndarray:
        """(Z, k) table of per-device per-cluster row counts."""
        table = np.zeros((self.num_devices, k), dtype=np.int64)
        labels = np.asarray(labels, dtype=int)
        for z, rows in enumerate(self.device_rows):
            table[z] = np.bincount(labels[rows], minlength=k)
        return table

    def annotate_from_labels(self, labels: np.ndarray, k: int) -> "DevicePartition":
        """Fill k and the per-device cluster counts."""
        table = self.counts_by_cluster(labels, k)
        self.k = k
        self.k_per_device = [int(c) for c in (table > 0).sum(axis=1)]
        return self


def _orthogonal_means(k: int, d: int, pairwise: float) -> np.ndarray:
    """k points in R^d at exactly ``pairwise`` distance from each other."""
    if k > d:
        raise ValueError("automatic mean placement needs k <= d")
    means = np.zeros((k, d))
    np.fill_diagonal(means[:, :k], pairwise / math.sqrt(2.0))
    return means


def auto_separation_distance(spec: MixtureSpec) -> float:
    """Mean spacing that clears the active separation threshold with margin.

    The threshold scales with the spectral norm of the noise, bounded by
    sigma * (sqrt(n) + sqrt(d)), and with the per-device cluster count,
    taken as ceil(sqrt(k)) (the heterogeneous deployments these instances
    feed). The factor 2 on top targets roughly twice the threshold.
    """
    w_min = float(resolve_weights(spec.weights, spec.k).min())
    requested = spec.c * math.sqrt(spec.k * spec.m0) * spec.sigma_max / math.sqrt(w_min)
    device_clusters = math.ceil(math.sqrt(spec.k))
    op_bound = spec.sigma_max * (math.sqrt(spec.n) + math.sqrt(spec.d))
    delta_bound = device_clusters * op_bound / math.sqrt(w_min * spec.n)
    with_margin = 2.0 * (2.0 * spec.c * math.sqrt(spec.m0) * 2.0 * delta_bound)
    return max(requested, with_margin)


def mean_spacing(spec: MixtureSpec) -> float:
    """The distance between every two means that ``resolve_means`` places."""
    if spec.mean_mode == "auto":
        return auto_separation_distance(spec)
    if spec.mean_mode == "sigma":
        return spec.c * spec.sigma_max
    raise ValueError(f"unknown mean mode {spec.mean_mode!r}")


def resolve_means(spec: MixtureSpec) -> np.ndarray:
    return _orthogonal_means(spec.k, spec.d, mean_spacing(spec))


def mixture_bound(spec: MixtureSpec) -> float:
    """A bound that ``generate_mixture(spec)`` keeps finite: twice n times
    the largest |entry|. That entry is at most a mean's one nonzero
    coordinate, spacing/√2, plus sigma_max times the largest normal that
    ``Stream.normals`` draws (its Box-Muller radius is at most
    sqrt(-2·ln 2⁻⁵³) < 8.58). Where the bound is finite, so are the data
    and every sum of a column's entries behind the true cluster means;
    the factor 2 covers the rounding of those sums. inf (or NaN) where
    the mixture might not fit in finite floats."""
    entry = mean_spacing(spec) / math.sqrt(2.0) + _NORMAL_BOUND * spec.sigma_max
    return 2.0 * spec.n * entry


def balanced_counts(weights: np.ndarray, n: int) -> np.ndarray:
    """Largest-remainder apportionment of n rows to the components."""
    raw = weights * n
    counts = np.floor(raw).astype(int)
    shortfall = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:shortfall]] += 1
    return counts


def generate_mixture(spec: MixtureSpec) -> tuple[np.ndarray, Clustering]:
    """Sample the mixture; returns (data, ground-truth clustering)."""
    if spec.sigma_max < 0:
        raise ValueError("sigma_max must be nonnegative")
    counts = balanced_counts(resolve_weights(spec.weights, spec.k), spec.n)
    if counts.min() < 1:
        raise ValueError("too few samples")
    if not math.isfinite(mixture_bound(spec)):
        raise ValueError("mixture or its cluster sums would not be finite")
    means = resolve_means(spec)
    labels = np.repeat(np.arange(spec.k), counts)
    data = np.empty((spec.n, spec.d))
    for r in range(spec.k):
        rows = np.flatnonzero(labels == r)
        noise = Stream(spec.seed, _NOISE_STREAM, r).normals((rows.size, spec.d))
        data[rows] = means[r] + spec.sigma_max * noise
    truth = Clustering.from_labels(data, labels, spec.k)
    return data, truth


def component_groups(k: int, group_size: int | None) -> list[list[int]]:
    """Consecutive runs of ``group_size`` components, round(sqrt(k)) by default.

    A structured partition gives each group m0 devices, so it has
    ``len(component_groups(k, group_size)) * m0`` devices.
    """
    size = int(group_size or max(1, round(math.sqrt(k))))
    return [list(range(start, min(start + size, k))) for start in range(0, k, size)]


def structured_partition(truth: Clustering, spec: PartitionSpec) -> DevicePartition:
    """Group components and split each group's data across m0 devices.

    Devices inside a group hold rows from every component of that group,
    so within-group cluster pairs share devices and cross-group pairs
    never do. Each nonempty per-device share keeps at least
    floor(n_r / m0) rows of cluster r.
    """
    if spec.mode != "structured":
        raise ValueError("partition spec is not structured")
    k = truth.k
    m0 = int(spec.m0 or 0)
    if m0 < 1:
        raise ValueError("structured partitions need m0 >= 1")
    groups = component_groups(k, spec.group_size)
    sizes = truth.sizes()
    small = [int(r) for r in range(k) if sizes[r] < m0]
    if small:
        raise ValueError(
            f"m0={m0} exceeds the smallest per-device share for clusters {small}")
    device_rows: list[list[np.ndarray]] = [[] for _ in range(len(groups) * m0)]
    for g, members in enumerate(groups):
        for r in members:
            chunks = np.array_split(truth.members(r), m0)
            for j, chunk in enumerate(chunks):
                device_rows[g * m0 + j].append(chunk)
    rows = [np.sort(np.concatenate(parts)) for parts in device_rows]
    return DevicePartition(device_rows=rows).annotate_from_labels(
        truth.assignment, k)


def iid_partition(n: int, Z: int, seed: int) -> DevicePartition:
    """Uniform random row-to-device assignment with no empty device."""
    if n < Z:
        raise ValueError("need at least one row per device")
    if Z < 1:
        raise ValueError("need at least one device")
    assign = Stream(seed, _DEVICE_STREAM, 0).integers(n, Z)
    counts = np.bincount(assign, minlength=Z)
    empty = np.flatnonzero(counts == 0)
    # Each device the draw left empty takes one row, in a seeded random
    # order, from a device with rows to spare; n >= Z leaves enough.
    donors = iter(np.argsort(Stream(seed, _DEVICE_STREAM, 1).uniforms(n))
                  if empty.size else ())
    for z in empty:
        row = next(i for i in donors if counts[assign[i]] > 1)
        counts[assign[row]] -= 1
        assign[row] = z
    rows = [np.flatnonzero(assign == z) for z in range(Z)]
    return DevicePartition(device_rows=rows)


# ---------------------------------------------------------------------------
# instance files: data CSV, labels CSV, partition JSON, spec JSON

def save_instance(out_dir, data: np.ndarray, truth: Clustering,
                  partition: DevicePartition, spec_blob: dict) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "data": out / "data.csv",
        "labels": out / "labels.csv",
        "partition": out / "partition.json",
        "spec": out / "spec.json",
    }
    np.savetxt(paths["data"], data, fmt="%.17g", delimiter=",")
    np.savetxt(paths["labels"], truth.assignment, fmt="%d")
    mapping = {str(z): [int(i) for i in rows]
               for z, rows in enumerate(partition.device_rows)}
    paths["partition"].write_text(json.dumps(mapping, indent=0, sort_keys=True))
    paths["spec"].write_text(json.dumps(spec_blob, indent=2, sort_keys=True))
    return paths


def _loadtxt(path, **kwargs) -> np.ndarray:
    """``np.loadtxt`` that raises, rather than warns, on a file with no rows."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(path, **kwargs)
    if table.size == 0:
        raise ValueError("file holds no rows")
    return table


def load_data_csv(path) -> np.ndarray:
    return validate_matrix(_loadtxt(path, delimiter=",", dtype=float, ndmin=2),
                           "data file")


def load_labels_csv(path, k: int | None = None) -> np.ndarray:
    labels = _loadtxt(path, dtype=int, ndmin=1)
    upper = np.inf if k is None else k
    bad = np.flatnonzero((labels < 0) | (labels >= upper))
    if bad.size:
        raise ValueError(f"row {bad[0]} names cluster {labels[bad[0]]}, outside [0, {upper})")
    return labels


def load_partition_json(path, n: int) -> DevicePartition:
    """Read a device -> rows map that must cover rows 0..n-1 once each.

    The Z keys must be the device ids "0".."Z-1", written as ``str(z)``.
    """
    mapping = json.loads(Path(path).read_text())
    if not isinstance(mapping, dict):
        raise ValueError("partition file must map device ids to row lists")
    expected = {str(z) for z in range(len(mapping))}
    bad = [key for key in mapping if key not in expected]
    if bad:
        raise ValueError(f"device key {json.dumps(bad[0])} is not one of "
                         f"the ids \"0\"..\"{len(mapping) - 1}\"")
    rows = []
    for z in range(len(mapping)):
        ids = mapping[str(z)]
        if not (isinstance(ids, list)
                and all(type(i) is int and 0 <= i < n for i in ids)):
            raise ValueError(f"device {z} must list integer row ids in [0, {n})")
        rows.append(np.asarray(ids, dtype=int))
    return DevicePartition(device_rows=rows).validate(n)
