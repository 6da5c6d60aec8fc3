"""One-shot aggregation of device cluster centers at a central server.

Every participating device solves its local problem and uploads its
centers once; the server greedily picks k far-apart centers, runs a
single nearest-center assignment round over all uploaded centers, and the
resulting center groups induce a clustering of every row in the network.
Late-arriving devices are labeled against the retained group means
without contacting anyone else.

Every distance goes through ``linalg.pairwise_distances``, one seed or
group mean at a time, so the aggregator's working memory is
O(uploads x d), not O(uploads x k x d).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datagen import DevicePartition
from .linalg import pairwise_distances, validate_matrix
from .local import DEFAULT_TOL, LocalResult, cluster_means, local_cluster

WIRE_SCHEMA_VERSION = 1


@dataclass
class Message:
    direction: str   # "up" (device -> server) or "down" (server -> device)
    device_id: int
    kind: str
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
    def from_wire(cls, blob: dict,
                  earlier: Sequence["DeviceCenters"] = ()) -> "DeviceCenters":
        """Parse one upload; reject a device id or width that clashes with ``earlier``."""
        try:
            centers = validate_matrix(blob["centers"], "uploaded centers")
            device_id, k_z = int(blob["device_id"]), blob["k_z"]
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed center upload: {err!r}") from err
        if centers.shape[0] != k_z:
            raise ValueError("malformed center upload")
        if any(other.device_id == device_id for other in earlier):
            raise ValueError(f"device {device_id} uploaded twice")
        if any(other.centers.shape[1] != centers.shape[1] for other in earlier):
            raise ValueError(f"device {device_id} uploaded centers of another width")
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
    """All uploaded centers stacked, ordered by (device_id, local index)."""
    ordered = sorted(all_centers, key=lambda dc: dc.device_id)
    provenance = [(dc.device_id, i) for dc in ordered for i in range(dc.k_z)]
    stacked = np.concatenate([dc.centers for dc in ordered], axis=0)
    return stacked, provenance


def farthest_point_init(all_centers: list[DeviceCenters], k: int,
                        start_device: int | None = None,
                        accounting: OpsAccounting | None = None) -> FarthestInit:
    """Greedy max-min selection of k seed centers among all uploads.

    Starts from every center of one device (lowest id unless overridden)
    and repeatedly adds the center farthest from the chosen set. Ties go
    to the lexicographically smallest (device_id, local index).
    """
    accounting = accounting if accounting is not None else OpsAccounting()
    if not all_centers or sum(dc.k_z for dc in all_centers) < k:
        raise ValueError("network has fewer than k device centers")
    stacked, provenance = _flatten(all_centers)
    if start_device is None:
        start_device = min(dc.device_id for dc in all_centers)
    chosen = [idx for idx, (z, _) in enumerate(provenance) if z == start_device]
    if not chosen:
        raise ValueError(f"start device {start_device} submitted no centers")
    if len(chosen) > k:
        raise ValueError("start device has more centers than requested groups")
    # Gonzalez's update: each open upload keeps its distance to the nearest
    # chosen center, refreshed only against the newest choice.
    candidates = np.delete(np.arange(stacked.shape[0]), chosen)
    nearest = np.full(candidates.size, np.inf)
    new = list(chosen)
    while len(chosen) < k:
        dist = pairwise_distances(stacked[candidates], stacked[new])
        accounting.pairwise_distance_count += dist.size
        nearest = np.minimum(nearest, dist.min(axis=1))
        pick = int(nearest.argmax())  # first maximum: lowest (device_id, index)
        new = [int(candidates[pick])]
        chosen += new
        candidates = np.delete(candidates, pick)
        nearest = np.delete(nearest, pick)
    return FarthestInit(points=stacked[chosen],
                        provenance=[provenance[i] for i in chosen])


def one_round_lloyd(all_centers: list[DeviceCenters], init: FarthestInit,
                    n_total: int | None = None,
                    accounting: OpsAccounting | None = None) -> InducedClustering:
    """Single nearest-center assignment of every upload to the seed set.

    No re-centering loop follows; the seed groups are final. Given the
    network's row count ``n_total``, the per-row induced clustering is
    built from each upload's ``rows``: a row joins the group its local
    cluster's center was assigned to.
    """
    accounting = accounting if accounting is not None else OpsAccounting()
    stacked, provenance = _flatten(all_centers)
    k = init.points.shape[0]
    # ties resolve to the lowest group index
    nearest = pairwise_distances(stacked, init.points).argmin(axis=1)
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


def assign_new_device(cluster_means: np.ndarray, new_centers: DeviceCenters,
                      accounting: OpsAccounting | None = None) -> np.ndarray:
    """Label a late device's centers against the retained (k, d) group means.

    Costs exactly k_z * k distance computations and touches no other
    device.
    """
    cluster_means = validate_matrix(cluster_means, "group means")
    if new_centers.centers.shape[1] != cluster_means.shape[1]:
        raise ValueError(
            f"device data has dimension {new_centers.centers.shape[1]}, "
            f"aggregation state has {cluster_means.shape[1]}")
    accounting = accounting if accounting is not None else OpsAccounting()
    accounting.pairwise_distance_count += new_centers.k_z * cluster_means.shape[0]
    return pairwise_distances(new_centers.centers, cluster_means).argmin(axis=1)


def worker_count() -> int:
    """Concurrent device solves: ``KFED_THREADS``, or 1 when it is unset."""
    env = os.environ.get("KFED_THREADS", "").strip()
    try:
        return max(1, int(env)) if env else 1
    except ValueError as err:
        raise ValueError(f"KFED_THREADS must be an integer, got {env!r}") from err


def run_kfed(partition: DevicePartition, data: np.ndarray, seed: int,
             tol: float = DEFAULT_TOL, exclude_devices: tuple[int, ...] = (),
             record_path=None) -> KFedRun:
    """Full pipeline: local solves on every device, then one-shot aggregation."""
    data = validate_matrix(data, "data")
    n = data.shape[0]
    partition.validate(n)
    if partition.k is None or partition.k_per_device is None:
        raise ValueError("partition needs k and per-device cluster counts")
    k = partition.k
    excluded = set(int(z) for z in exclude_devices)
    unknown = excluded.difference(range(partition.num_devices))
    if unknown:
        raise ValueError(f"cannot exclude device {min(unknown)}: the partition "
                         f"has devices 0..{partition.num_devices - 1}")
    participants = [z for z in range(partition.num_devices) if z not in excluded]
    if not participants:
        raise ValueError("network has fewer than k device centers")

    def solve(z: int) -> tuple[int, LocalResult]:
        rows = partition.device_rows[z]
        result = local_cluster(data[rows], partition.k_per_device[z],
                               (seed, z), tol=tol)
        return z, result

    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            solved = dict(pool.map(solve, participants))
    else:
        solved = dict(map(solve, participants))

    accounting = OpsAccounting()
    device_centers: dict[int, DeviceCenters] = {}
    for z in participants:  # collect in device order after the join
        result = solved[z]
        dc = DeviceCenters(device_id=z, centers=result.centers,
                           local_assignment=result.clusters.assignment,
                           rows=partition.device_rows[z])
        device_centers[z] = dc
        accounting.messages.append(
            Message("up", z, "centers", 8 * dc.k_z * data.shape[1]))

    uploads = [device_centers[z] for z in participants]
    init = farthest_point_init(uploads, k, accounting=accounting)
    induced = one_round_lloyd(uploads, init, n_total=n, accounting=accounting)
    for z in participants:
        accounting.messages.append(
            Message("down", z, "labels", 8 * device_centers[z].k_z))

    run = KFedRun(induced=induced, accounting=accounting, init=init,
                  device_centers=device_centers,
                  local_results={z: solved[z] for z in participants})
    if record_path is not None:
        record_run(record_path, run, k=k, start_device=min(participants))
    return run


# ---------------------------------------------------------------------------
# wire-format record / replay

def canonical_json(blob) -> str:
    """Compact JSON with sorted keys: the byte form hashed and logged."""
    return json.dumps(blob, sort_keys=True, separators=(",", ":"))


def record_run(path, run: KFedRun, k: int, start_device: int) -> Path:
    """Write the upstream messages and the aggregation outcome as JSONL."""
    path = Path(path)
    lines = [canonical_json({"schema": WIRE_SCHEMA_VERSION, "k": k,
                             "start_device": int(start_device)})]
    for z in sorted(run.device_centers):
        lines.append(canonical_json(run.device_centers[z].to_wire()))
    lines.append(canonical_json({
        "tau": [[list(pair) for pair in group] for group in run.induced.tau],
        "init_provenance": [list(pair) for pair in run.init.provenance],
    }))
    path.write_text("\n".join(lines) + "\n")
    return path


def replay_run(path) -> dict:
    """Re-run aggregation from a recorded message log and audit it.

    Verifies that every line re-serializes to the exact recorded bytes and
    that re-aggregating the recorded centers reproduces the recorded
    center groups. Raises ValueError on any mismatch.
    """
    raw_lines = Path(path).read_text().splitlines()
    if len(raw_lines) < 3:
        raise ValueError("message log is truncated")
    header = json.loads(raw_lines[0])
    if not isinstance(header, dict) or header.get("schema") != WIRE_SCHEMA_VERSION:
        raise ValueError("unsupported wire schema")
    if not all(isinstance(header.get(key), int) for key in ("k", "start_device")):
        raise ValueError("message log header needs integer k and start_device")
    for line in raw_lines:
        if canonical_json(json.loads(line)) != line:
            raise ValueError("message log is not in canonical form")
    uploads: list[DeviceCenters] = []
    for line in raw_lines[1:-1]:
        uploads.append(DeviceCenters.from_wire(json.loads(line), uploads))
    trailer = json.loads(raw_lines[-1])
    if not isinstance(trailer, dict):
        raise ValueError("message log trailer is not an object")
    accounting = OpsAccounting()
    init = farthest_point_init(uploads, header["k"],
                               start_device=header["start_device"],
                               accounting=accounting)
    induced = one_round_lloyd(uploads, init, accounting=accounting)
    replayed_tau = [[list(pair) for pair in group] for group in induced.tau]
    replayed_init = [list(pair) for pair in init.provenance]
    if (replayed_tau != trailer.get("tau")
            or replayed_init != trailer.get("init_provenance")):
        raise ValueError("replayed aggregation diverges from the recorded run")
    return {"k": header["k"], "devices": len(uploads), "tau": replayed_tau,
            "distance_count": accounting.pairwise_distance_count}
