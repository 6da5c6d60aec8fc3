"""One-shot aggregation of device cluster centers at a central server.

Every participating device solves its local problem and uploads its
centers once; the server greedily picks k far-apart centers, runs a
single nearest-center assignment round over all uploaded centers, and the
resulting center groups induce a clustering of every row in the network.
Late-arriving devices are labeled against the retained group means
without contacting anyone else.

Every distance decision is taken on the inputs scaled by one power of
two, the one that brings their largest entry into [0.5, 1)
(``linalg._finite_scaled``), which is exact bar entries 2^1022 below the
largest: each decision is the one taken at scale 1, no squared distance
overflows, and every output comes from the unscaled inputs. Each distance
comes from a matrix product, kept only where the rounding bound of
``linalg._rounding_bound`` proves that the one exact kernel,
``linalg._exact_sq``, gives the same decision, tie-breaks included;
otherwise that kernel runs. Farthest-point seeding takes one product per
step (``_certified_max_min``) and falls back to the exact seeding as a
whole (``_exact_max_min``). Nearest-seed and nearest-group-mean labels
(``one_round_lloyd``, ``assign_new_device``) come from one product per
call (``linalg._nearest_each``). Both products are
``linalg._product_sq``'s. Either way the aggregator's working memory is
O(uploads x (d + k)), not O(uploads x k x d). The distance count depends
only on the shapes: open uploads times newest seeds per seeding step, and
k per labeled upload, whichever path picked.

The server starts its farthest-point pass from every center of the
lowest uploaded device id. The upload checks run in ``_flatten``, which
every aggregation step calls: a repeated device id, a device with no
centers, centers that are not all finite and centers of another width
are errors there, whether the uploads came from a replayed log or from a
caller, so the start device always has centers.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .datagen import DevicePartition
from .linalg import _nearest_each, _product_sq, _rounding_bound, validate_matrix
from .local import DEFAULT_TOL, LocalResult, _check_k, cluster_means, local_cluster

WIRE_SCHEMA_VERSION = 1


def _wire_int(value, least: int) -> bool:
    """A JSON integer, not a bool or a float, of at least ``least``."""
    return type(value) is int and value >= least


@dataclass
class Message:
    direction: str   # "up" (device -> server) or "down" (server -> device)
    device_id: int
    n_bytes: int


@dataclass
class OpsAccounting:
    """Distance-computation and message tallies for the aggregation steps."""

    pairwise_distance_count: int = 0
    messages: list[Message] = field(default_factory=list)

    @property
    def messages_sent(self) -> int:
        return len(self.messages)


@dataclass
class DeviceCenters:
    """The one upstream message: a device's centers plus local bookkeeping."""

    device_id: int
    centers: np.ndarray            # (k_z, d)
    local_assignment: np.ndarray   # (n_z,) local cluster index per local row
    rows: np.ndarray | None = None # global row indices (simulation side only)

    @property
    def k_z(self) -> int:
        return self.centers.shape[0]

    def assignment_digest(self) -> str:
        payload = np.ascontiguousarray(self.local_assignment, dtype="<i8")
        return hashlib.sha256(payload.tobytes()).hexdigest()

    def to_wire(self) -> dict:
        return {
            "device_id": int(self.device_id),
            "k_z": int(self.k_z),
            "centers": [[float(x) for x in row] for row in self.centers],
            "assignment_digest": self.assignment_digest(),
        }

    @classmethod
    def from_wire(cls, blob: dict) -> "DeviceCenters":
        """Parse one upload that holds exactly what ``to_wire`` writes."""
        try:
            centers = validate_matrix(blob["centers"], "uploaded centers")
            device_id, k_z = blob["device_id"], blob["k_z"]
            digest = blob["assignment_digest"]
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed center upload: {err!r}") from err
        if not (set(blob) == {"device_id", "k_z", "centers", "assignment_digest"}
                and _wire_int(device_id, 0) and _wire_int(k_z, 1)
                and centers.shape[0] == k_z and isinstance(digest, str)
                and re.fullmatch("[0-9a-f]{64}", digest)
                and all(type(x) is float for row in blob["centers"] for x in row)):
            raise ValueError("malformed center upload: it needs exactly an integer "
                             "device_id >= 0, k_z >= 1 rows of float centers and "
                             "a 64-hex-digit assignment_digest")
        return cls(device_id=device_id, centers=centers,
                   local_assignment=np.empty(0, dtype=int))


@dataclass
class FarthestInit:
    """The k greedily chosen seed centers with their provenance."""

    points: np.ndarray                    # (k, d)
    provenance: list[tuple[int, int]]     # (device_id, local cluster index)


@dataclass
class InducedClustering:
    """Server-side grouping of device centers and the row clustering it induces."""

    tau: list[list[tuple[int, int]]]  # per group: (device_id, local index) pairs
    cluster_means: np.ndarray         # (k, d) means of each group's centers
    assignment: np.ndarray            # (n,) global labels; -1 = no participating owner

    def covered(self) -> np.ndarray:
        return self.assignment >= 0


@dataclass
class KFedRun:
    """Everything one simulated run produces."""

    induced: InducedClustering
    accounting: OpsAccounting
    init: FarthestInit
    device_centers: dict[int, DeviceCenters]
    local_results: dict[int, LocalResult]


def _flatten(all_centers: list[DeviceCenters]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """All uploaded centers stacked, ordered by (device_id, local index).

    Raises where a device uploads no centers or centers that are not all
    finite, and then where a device id repeats or a device's centers are
    not as wide as the next lower id's, naming the first such device by
    id. The centers keep their dtype.
    """
    ordered = sorted(all_centers, key=lambda dc: dc.device_id)
    for dc in ordered:
        if not dc.k_z:
            raise ValueError(f"device {dc.device_id} uploaded no centers")
        if not np.isfinite(dc.centers).all():
            raise ValueError(f"device {dc.device_id} uploaded non-finite centers")
    for before, dc in zip(ordered, ordered[1:]):
        if dc.device_id == before.device_id:
            raise ValueError(f"device {dc.device_id} uploaded twice")
        if dc.centers.shape[1] != before.centers.shape[1]:
            raise ValueError(f"device {dc.device_id} uploaded centers of another width")
    provenance = [(dc.device_id, i) for dc in ordered for i in range(dc.k_z)]
    stacked = np.concatenate([dc.centers for dc in ordered], axis=0)
    return stacked, provenance


def _nearest_point(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of each row's nearest point, ties to the lowest index: bit for
    bit ``linalg._exact_sq(rows, points).argmin(axis=1)`` on both scaled by
    the one power of two that brings their largest entry into [0.5, 1)
    (``linalg._finite_scaled``), from ``linalg._nearest_each``.
    """
    both, _ = linalg._finite_scaled(np.concatenate([rows, points]))
    rows, points = both[:len(rows)], both[len(rows):]
    rows_sq = np.einsum("nd,nd->n", rows, rows)
    return _nearest_each(rows[None], points[None, None], rows_sq[None])[0, 0]


def _exact_max_min(stacked: np.ndarray, chosen: list[int], k: int) -> list[int]:
    """Gonzalez's max-min picks after ``chosen`` until there are k, from
    ``linalg._exact_sq`` on the scaled uploads ``stacked``.

    Each open upload keeps its squared distance to the nearest chosen
    center, refreshed only against the newest choice, and the first maximum
    (the lowest (device_id, index)) is picked.
    """
    candidates = np.delete(np.arange(stacked.shape[0]), chosen)
    nearest = np.full(candidates.size, np.inf)
    picks, new = [], list(chosen)
    while len(chosen) + len(picks) < k:
        dist = linalg._exact_sq(stacked[candidates], stacked[new])
        nearest = np.minimum(nearest, dist.min(axis=1))
        pick = int(nearest.argmax())
        new = [int(candidates[pick])]
        picks += new
        candidates = np.delete(candidates, pick)
        nearest = np.delete(nearest, pick)
    return picks


def _certified_max_min(stacked: np.ndarray, chosen: list[int], k: int
                       ) -> list[int] | None:
    """``_exact_max_min``'s picks from one product per step, or None where a
    rounding bound cannot prove a step's pick.

    A step's product (``linalg._product_sq``) gives F, the squared
    distances of every upload to the newest choices, with the error bound
    e of ``linalg._rounding_bound``. Each open upload i keeps m_i = min F
    and E_i = max e over the chosen centers, so its exact squared distance
    to the chosen set lies in [m_i − E_i, m_i + E_i]. F's max-min pick t is
    then the exact one when m_t − E_t > m_i + E_i for every other open i.
    A step where that fails (an exact tie always does) gives None.
    Chosen uploads hold m = −inf, so they are never picked or compared.
    ``stacked`` is float64 with every entry below 1, so F is finite.
    """
    sq = np.einsum("nd,nd->n", stacked, stacked)
    norm = np.sqrt(sq)
    nearest = np.full(stacked.shape[0], np.inf)
    nearest[chosen] = -np.inf
    slack = np.zeros(stacked.shape[0])
    picks, new = [], list(chosen)
    while len(chosen) + len(picks) < k:
        f = _product_sq(stacked, stacked[new], sq, sq[new])
        np.minimum(nearest, f.min(axis=1), out=nearest)
        np.maximum(slack, _rounding_bound(norm[:, None], norm[new],
                                          stacked.shape[1]).max(axis=1),
                   out=slack)
        pick = int(nearest.argmax())
        with np.errstate(invalid="ignore"):   # an infinite bound proves nothing
            upper = nearest + slack
        upper[pick] = -np.inf
        if not nearest[pick] - slack[pick] > upper.max():
            return None
        nearest[pick] = -np.inf
        new = [pick]
        picks += new
    return picks


def farthest_point_init(all_centers: list[DeviceCenters], k: int, *,
                        accounting: OpsAccounting) -> FarthestInit:
    """Greedy max-min selection of k seed centers among all uploads.

    Starts from every center of the lowest uploaded device id, which
    ``_flatten`` ensures has some, and repeatedly adds the center farthest
    from the chosen set. Ties go to the lexicographically smallest
    (device_id, local index). The picks, taken on the scaled uploads (see
    the module docstring), come from one certified product per step where
    its rounding bound settles every step (``_certified_max_min``), and
    from exact squared distances otherwise (``_exact_max_min``). The points
    are the unscaled uploads, in their dtype. The distance count depends
    only on the shapes: each step measures every open upload against the
    newest seeds, all start centers at the first step and one seed after it.
    """
    _check_k(k)
    if not all_centers or sum(dc.k_z for dc in all_centers) < k:
        raise ValueError("network has fewer than k device centers")
    stacked, provenance = _flatten(all_centers)
    chosen = [idx for idx, (z, _) in enumerate(provenance) if z == provenance[0][0]]
    if len(chosen) > k:
        raise ValueError("start device has more centers than requested groups")
    scaled, _ = linalg._finite_scaled(stacked)
    picks = _certified_max_min(scaled, chosen, k)
    if picks is None:   # [] is a proof: the start device holds k centers
        picks = _exact_max_min(scaled, chosen, k)
    s, total = len(chosen), len(provenance)
    accounting.pairwise_distance_count += sum((total - s - step) * (1 if step else s)
                                              for step in range(k - s))
    chosen += picks
    return FarthestInit(points=stacked[chosen],
                        provenance=[provenance[i] for i in chosen])


def one_round_lloyd(all_centers: list[DeviceCenters], init: FarthestInit,
                    n_total: int | None = None, *,
                    accounting: OpsAccounting) -> InducedClustering:
    """Single nearest-center assignment of every upload to the seed set.

    No re-centering loop follows; the seed groups are final, and their
    means are those of the unscaled uploads. Given the network's row count
    ``n_total``, the per-row induced clustering is built from each upload's
    ``rows``: a row joins the group its local cluster's center was assigned
    to.
    """
    stacked, provenance = _flatten(all_centers)
    if np.shape(init.points)[1:] != stacked.shape[1:] or not len(init.points):
        raise ValueError(f"init points of shape {np.shape(init.points)} do not "
                         f"fit uploads of width {stacked.shape[1]}")
    if not np.isfinite(init.points).all():
        raise ValueError("init points contain non-finite values")
    k = init.points.shape[0]
    # ties resolve to the lowest group index
    nearest = _nearest_point(stacked, init.points)
    accounting.pairwise_distance_count += stacked.shape[0] * k
    tau: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for flat_idx, group in enumerate(nearest):
        tau[group].append(provenance[flat_idx])
    means, sizes = cluster_means(stacked, nearest, k)
    means = np.where(sizes[:, None] > 0, means, init.points)
    assignment = np.full(n_total if n_total is not None else 0, -1, dtype=int)
    if n_total is not None:
        offset = 0
        for dc in sorted(all_centers, key=lambda dc: dc.device_id):  # nearest's order
            if dc.rows is None:
                raise ValueError(f"no row indices known for device {dc.device_id}")
            assignment[dc.rows] = nearest[offset:offset + dc.k_z][dc.local_assignment]
            offset += dc.k_z
    return InducedClustering(tau=tau, cluster_means=means, assignment=assignment)


def assign_new_device(cluster_means: np.ndarray, centers: np.ndarray, *,
                      accounting: OpsAccounting) -> np.ndarray:
    """Label a late device's (k_z, d) centers against the retained (k, d) group means.

    Costs exactly k_z * k distance computations and touches no other
    device.
    """
    cluster_means = validate_matrix(cluster_means, "group means")
    centers = validate_matrix(centers, "device centers")
    if centers.shape[1] != cluster_means.shape[1]:
        raise ValueError(
            f"device data has dimension {centers.shape[1]}, "
            f"aggregation state has {cluster_means.shape[1]}")
    accounting.pairwise_distance_count += centers.shape[0] * cluster_means.shape[0]
    return _nearest_point(centers, cluster_means)


def run_kfed(partition: DevicePartition, data: np.ndarray, seed: int,
             tol: float = DEFAULT_TOL, exclude_devices: tuple[int, ...] = ()) -> KFedRun:
    """Full pipeline: local solves on every device, then one-shot aggregation."""
    data = validate_matrix(data, "data")
    n = data.shape[0]
    partition.validate(n)
    if partition.k is None or partition.k_per_device is None:
        raise ValueError("partition needs k and per-device cluster counts")
    excluded = set(int(z) for z in exclude_devices)
    unknown = excluded.difference(range(partition.num_devices))
    if unknown:
        raise ValueError(f"cannot exclude device {min(unknown)}: the partition "
                         f"has devices 0..{partition.num_devices - 1}")
    participants = [z for z in range(partition.num_devices) if z not in excluded]

    accounting = OpsAccounting()
    device_centers: dict[int, DeviceCenters] = {}
    local_results: dict[int, LocalResult] = {}
    results = local_cluster(data, [partition.k_per_device[z] for z in participants],
                            [(seed, z) for z in participants], tol=tol,
                            devices=[partition.device_rows[z] for z in participants])
    for z, result in zip(participants, results):
        local_results[z] = result
        device_centers[z] = DeviceCenters(
            device_id=z, centers=result.centers,
            local_assignment=result.clusters.assignment,
            rows=partition.device_rows[z])
        accounting.messages.append(Message("up", z, 8 * result.centers.size))

    uploads = [device_centers[z] for z in participants]
    init = farthest_point_init(uploads, partition.k, accounting=accounting)
    induced = one_round_lloyd(uploads, init, n_total=n, accounting=accounting)
    for z in participants:
        accounting.messages.append(Message("down", z, 8 * device_centers[z].k_z))

    return KFedRun(induced=induced, accounting=accounting, init=init,
                   device_centers=device_centers, local_results=local_results)


# ---------------------------------------------------------------------------
# wire-format record / replay

def canonical_json(blob) -> str:
    """Compact JSON with sorted keys: the byte form hashed and logged."""
    return json.dumps(blob, sort_keys=True, separators=(",", ":"))


def _outcome(init: FarthestInit, induced: InducedClustering) -> dict:
    """The log's trailer: the center groups and the seeds' provenance."""
    return {"tau": [[list(pair) for pair in group] for group in induced.tau],
            "init_provenance": [list(pair) for pair in init.provenance]}


def record_run(path, run: KFedRun) -> None:
    """Write the upstream messages and the aggregation outcome as JSONL."""
    header = {"schema": WIRE_SCHEMA_VERSION, "k": len(run.induced.tau),
              "start_device": min(run.device_centers)}
    lines = [canonical_json(header)]
    lines += [canonical_json(run.device_centers[z].to_wire())
              for z in sorted(run.device_centers)]
    lines.append(canonical_json(_outcome(run.init, run.induced)))
    Path(path).write_text("\n".join(lines) + "\n")


def replay_run(path) -> dict:
    """Re-run aggregation from a recorded message log and audit it.

    Verifies that every line re-serializes to the exact recorded bytes,
    that the header and every upload hold exactly the keys and JSON types
    ``record_run`` writes, that the header's start device is the lowest
    uploaded id, the one ``farthest_point_init`` starts from, and that
    re-aggregating the recorded centers reproduces the recorded trailer
    byte for byte. Raises ValueError on any mismatch.
    """
    raw_lines = Path(path).read_text().splitlines()
    if len(raw_lines) < 3:
        raise ValueError("message log is truncated")
    header = json.loads(raw_lines[0])
    if not isinstance(header, dict) or header.get("schema") != WIRE_SCHEMA_VERSION:
        raise ValueError("unsupported wire schema")
    if not (set(header) == {"schema", "k", "start_device"}
            and _wire_int(header["schema"], 1) and _wire_int(header["k"], 1)
            and _wire_int(header["start_device"], 0)):
        raise ValueError("message log header needs exactly schema 1, integer "
                         "k >= 1 and integer start_device >= 0")
    for line in raw_lines:
        if canonical_json(json.loads(line)) != line:
            raise ValueError("message log is not in canonical form")
    uploads = [DeviceCenters.from_wire(json.loads(line)) for line in raw_lines[1:-1]]
    if header["start_device"] != min(dc.device_id for dc in uploads):
        raise ValueError("message log start_device is not the lowest uploaded id")
    accounting = OpsAccounting()
    init = farthest_point_init(uploads, header["k"], accounting=accounting)
    induced = one_round_lloyd(uploads, init, accounting=accounting)
    outcome = _outcome(init, induced)
    if canonical_json(outcome) != raw_lines[-1]:
        raise ValueError("replayed aggregation diverges from the recorded run")
    return {"k": header["k"], "devices": len(uploads), "tau": outcome["tau"],
            "distance_count": accounting.pairwise_distance_count}
