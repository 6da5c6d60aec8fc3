"""One-shot federated k-means: local solvers, aggregation, diagnostics."""

from .datagen import (DevicePartition, MixtureSpec, PartitionSpec,
                      generate_mixture, iid_partition, structured_partition)
from .evaluation import (EvalResult, cost_ratio_report, kmeans_cost,
                         matched_accuracy)
from .federation import (DeviceCenters, InducedClustering, KFedRun,
                         OpsAccounting, assign_new_device, farthest_point_init,
                         one_round_lloyd, run_kfed)
from .linalg import operator_norm, top_k_projection
from .local import (Clustering, LocalResult, approx_seed, lloyd_iterate,
                    local_cluster, threshold_assign)
from .separation import (LemmaAudit, SeparationReport, lemma_audit,
                         proximity_check, separation_quantities)

__all__ = [
    "Clustering", "DeviceCenters", "DevicePartition",
    "EvalResult", "InducedClustering", "KFedRun", "LemmaAudit", "LocalResult",
    "MixtureSpec", "OpsAccounting", "PartitionSpec",
    "SeparationReport", "approx_seed", "assign_new_device",
    "cost_ratio_report", "farthest_point_init", "generate_mixture",
    "iid_partition", "kmeans_cost", "lemma_audit", "lloyd_iterate",
    "local_cluster", "matched_accuracy", "one_round_lloyd", "operator_norm",
    "proximity_check", "run_kfed", "separation_quantities",
    "structured_partition", "threshold_assign", "top_k_projection",
]

__version__ = "0.1.0"
