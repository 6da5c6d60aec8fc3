import hashlib
import itertools
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from kfed import cli, federation
from kfed.evaluation import matched_accuracy
from kfed.federation import canonical_json
from kfed.local import local_cluster
from oracles import greedy_max_min


def write_config(tmp_path, **overrides):
    cfg = {
        "version": 1,
        "experiment": "single_run",
        "mixture": {"k": 4, "d": 12, "per_cluster": 24, "sigma_max": 1.0,
                    "mean_mode": "auto"},
        "partition": {"mode": "structured", "m0": 2, "group_size": 2},
        "c": 100.0,
        "m0": 2.0,
        "seeds": [0],
        "tol": 1e-7,
    }
    cfg.update(overrides)
    if cfg["experiment"] == "separation_profile":
        del cfg["tol"]      # that experiment reads no tol
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_generate_writes_instance_files(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    out = tmp_path / "inst"
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    seed_dir = out / "seed_0"
    data = np.loadtxt(seed_dir / "data.csv", delimiter=",")
    labels = np.loadtxt(seed_dir / "labels.csv", dtype=int)
    assert data.shape == (96, 12)
    assert labels.shape == (96,)
    partition = json.loads((seed_dir / "partition.json").read_text())
    assert sorted(partition) == ["0", "1", "2", "3"]
    spec = json.loads((seed_dir / "spec.json").read_text())
    assert spec["config_hash"] == cli.config_hash(cfg)


def test_generate_is_idempotent(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["generate", "--config", str(cfg_path), "--out", str(out_a)])
    cli.main(["generate", "--config", str(cfg_path), "--out", str(out_b)])
    for name in ["data.csv", "labels.csv", "partition.json", "spec.json"]:
        assert (out_a / "seed_0" / name).read_bytes() == \
            (out_b / "seed_0" / name).read_bytes()


def test_generate_rejects_bad_weights_before_writing(tmp_path):
    cfg_path, _ = write_config(
        tmp_path, mixture={"k": 4, "d": 12, "per_cluster": 24,
                           "weights": [0.4, 0.3, 0.1, 0.1]})
    out = tmp_path / "never"
    assert cli.main(["generate", "--config", str(cfg_path),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert not (out / "seed_0").exists()


def test_run_single_seed_outputs(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    out = tmp_path / "res"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0].startswith("run_id,config_hash,seed")
    assert len(rows) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_hash"] == cli.config_hash(cfg)
    assert summary["rows"][0]["mean_accuracy"] == 1.0
    state = json.loads((out / "state_seed0.json").read_text())
    assert state["k"] == 4 and len(state["tau_means"]) == 4


def test_run_ignores_kfed_threads(tmp_path, monkeypatch):
    # devices are solved one after another; the variable the old solver pool
    # read is no longer consulted, so even a malformed value changes nothing
    cfg_path, _ = write_config(tmp_path, experiment="table1", seeds=[0, 1])
    plain, threaded = tmp_path / "plain", tmp_path / "threaded"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(plain)]) == 0
    monkeypatch.setenv("KFED_THREADS", "abc")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(threaded)]) == 0
    names = sorted(path.name for path in plain.iterdir())
    assert {"results.csv", "summary.json", "state_seed0.json",
            "state_seed1.json"} <= set(names)
    assert names == sorted(path.name for path in threaded.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (threaded / name).read_bytes(), name


def test_run_result_rows_reproducible(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    cli.main(["run", "--config", str(cfg_path), "--out", str(out_a)])
    cli.main(["run", "--config", str(cfg_path), "--out", str(out_b)])
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    # a rerun into the same directory replaces the rows instead of appending
    cli.main(["run", "--config", str(cfg_path), "--out", str(out_a)])
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_run_single_device_matches_local_solver(tmp_path):
    cfg_path, cfg = write_config(
        tmp_path, partition={"mode": "structured", "m0": 1, "group_size": 4})
    out = tmp_path / "one"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, data, truth, partition = cli.make_instance(cli.load_config(cfg_path), 0,
                                                  cfg["c"])
    assert partition.num_devices == 1
    local = local_cluster(data, 4, (0, 0))
    rows = (out / "results.csv").read_text().splitlines()
    accuracy = float(rows[1].split(",")[5])
    assert accuracy == matched_accuracy(local.clusters.assignment,
                                        truth.assignment).accuracy


def test_run_dropout_flags_vanished_cluster(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "drop"
    # devices 0 and 1 hold all of clusters 0 and 1 (group 0, m0=2)
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--exclude-devices", "0,1"])
    assert code == 0
    report = json.loads((out / "single_run_seed0.json").read_text())
    assert report["vanished_clusters"] == [0, 1]
    assert report["excluded_devices"] == [0, 1]


def test_run_records_each_excluded_device_once(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "drop"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--exclude-devices", "1,0,1,0"]) == 0
    report = json.loads((out / "single_run_seed0.json").read_text())
    assert report["excluded_devices"] == [0, 1]
    assert report["vanished_clusters"] == [0, 1]


def test_run_c_sweep_rows_and_plot(tmp_path):
    cfg_path, _ = write_config(
        tmp_path, experiment="c_sweep", c_values=[2, 100],
        mixture={"k": 4, "d": 12, "per_cluster": 24, "mean_mode": "sigma"},
        seeds=[0, 1])
    out = tmp_path / "sweep"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [row["c"] for row in summary["rows"]] == [2.0, 100.0]
    assert summary["rows"][1]["mean_accuracy"] >= summary["rows"][0]["mean_accuracy"]
    assert (out / "c_sweep.svg").read_text().startswith("<svg")
    # one state file per (c, seed): the c=2 state is not overwritten by c=100
    assert not (out / "state_seed0.json").exists()
    low = json.loads((out / "state_c2_seed0.json").read_text())
    high = json.loads((out / "state_c100_seed0.json").read_text())
    assert low["tau_means"] != high["tau_means"]


def test_run_cost_ratio_outputs(tmp_path):
    cfg_path, _ = write_config(
        tmp_path, experiment="cost_ratio", c=4.0,
        mixture={"k": 4, "d": 12, "per_cluster": 30, "mean_mode": "sigma"},
        z_iid=4, seeds=[0, 1])
    out = tmp_path / "ratio"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    blob = json.loads((out / "cost_ratio.json").read_text())
    assert blob["total"] == 2
    assert all("ratio" in row for row in blob["rows"])


def test_run_cost_ratio_honors_c(tmp_path):
    cfg_path, _ = write_config(
        tmp_path, experiment="cost_ratio", c=4.0,
        mixture={"k": 4, "d": 12, "per_cluster": 30, "mean_mode": "sigma"},
        z_iid=4)
    rows = {}
    for c in [None, "8"]:
        out = tmp_path / f"ratio_{c}"
        flags = [] if c is None else ["--c", c]
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]
                        + flags) == 0
        rows[c] = json.loads((out / "cost_ratio.json").read_text())["rows"][0]
        csv_c = (out / "results.csv").read_text().splitlines()[1].split(",")[4]
        assert float(csv_c) == rows[c]["c"]
    assert rows[None]["c"] == 4.0 and rows["8"]["c"] == 8.0
    # the run id carries c, so the two runs' rows can be told apart
    assert rows[None]["run_id"].endswith("-c4.0-ratio-s0")
    assert rows["8"]["run_id"].endswith("-c8.0-ratio-s0")
    # The instance follows c. The planted clustering's cost depends only on
    # the noise, but the IID run's cost depends on how far apart the means are.
    assert rows[None]["iid_cost"] != rows["8"]["iid_cost"]


def test_run_separation_profile(tmp_path):
    cfg_path, _ = write_config(tmp_path, experiment="separation_profile")
    out = tmp_path / "prof"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    blob = json.loads((out / "separation_seed0.json").read_text())
    assert blob["lemma_audit"]["passed"] is True
    assert blob["c"] == 100.0
    assert (out / "separation_pairs_seed0.csv").read_text().startswith("r,s,status")
    out = tmp_path / "prof50"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--c", "50"]) == 0
    assert json.loads((out / "separation_seed0.json").read_text())["c"] == 50.0


def test_separation_profile_failed_seed_does_not_stop_the_run(tmp_path, monkeypatch):
    cfg_path, _ = write_config(tmp_path, experiment="separation_profile",
                               seeds=[0, 1])
    real = cli.profile_instance

    def failing_seed0(*args, **kwargs):
        if kwargs["tag"] == "seed0":
            raise ValueError("empty cluster in target")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "profile_instance", failing_seed0)
    out = tmp_path / "prof"
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(out)]) == cli.EXIT_PIPELINE
    assert not (out / "separation_seed0.json").exists()
    assert (out / "separation_seed1.json").exists()


# Every run flag an experiment cannot honor, as the EXPERIMENTS table and
# the c_values rule reject it.
REJECTED_FLAGS = [
    ("cost_ratio", "--record"),
    ("cost_ratio", "--exclude-devices"),
    ("separation_profile", "--tol"),
    ("separation_profile", "--exclude-devices"),
    ("separation_profile", "--record"),
    ("c_sweep", "--c"),
]


def test_rejected_flags_match_experiment_table():
    table = {(name, "--" + dest.replace("_", "-"))
             for name, experiment in cli.EXPERIMENTS.items()
             for dest in experiment.cannot_honor}
    assert table == set(REJECTED_FLAGS) - {("c_sweep", "--c")}


@pytest.mark.parametrize("experiment,flag", REJECTED_FLAGS)
def test_run_rejects_flag_experiment_cannot_honor(tmp_path, experiment, flag):
    extra = {"c_values": [50.0, 100.0]} if experiment == "c_sweep" else {}
    cfg_path, _ = write_config(tmp_path, experiment=experiment, **extra)
    out = tmp_path / "out"
    log = tmp_path / "messages.jsonl"
    value = {"--record": str(log), "--exclude-devices": "0",
             "--tol": "1e-6", "--c": "5"}[flag]
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "0", flag, value]) == cli.EXIT_CONFIG
    assert not out.exists() and not log.exists()


def test_c_values_only_for_c_sweep(tmp_path):
    cfg_path, _ = write_config(tmp_path, experiment="table1", c_values=[2, 100])
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_profile_command_on_generated_files(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    inst = tmp_path / "inst"
    cli.main(["generate", "--config", str(cfg_path), "--out", str(inst)])
    seed_dir = inst / "seed_0"
    out = tmp_path / "profout"
    code = cli.main(["profile", "--data", str(seed_dir / "data.csv"),
                     "--labels", str(seed_dir / "labels.csv"),
                     "--partition", str(seed_dir / "partition.json"),
                     "--c", "100", "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "separation_profile.json").read_text())
    assert blob["proximity_violations"] == 0
    assert blob["lemma_audit"]["passed"] is True


def test_profile_shuffled_labels_audit_still_passes(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    inst = tmp_path / "inst"
    cli.main(["generate", "--config", str(cfg_path), "--out", str(inst)])
    seed_dir = inst / "seed_0"
    labels = np.loadtxt(seed_dir / "labels.csv", dtype=int)
    shuffled = tmp_path / "shuffled.csv"
    np.savetxt(shuffled, np.random.default_rng(4).permutation(labels), fmt="%d")
    out = tmp_path / "shufout"
    code = cli.main(["profile", "--data", str(seed_dir / "data.csv"),
                     "--labels", str(shuffled),
                     "--partition", str(seed_dir / "partition.json"),
                     "--out", str(out)])
    assert code == 0
    blob = json.loads((out / "separation_profile.json").read_text())
    assert blob["lemma_audit"]["passed"] is True  # the bounds are unconditional


def test_profile_rejects_unseen_label(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    inst = tmp_path / "inst"
    cli.main(["generate", "--config", str(cfg_path), "--out", str(inst)])
    seed_dir = inst / "seed_0"
    bad_labels = tmp_path / "bad.csv"
    labels = np.loadtxt(seed_dir / "labels.csv", dtype=int)
    labels[5] = 9
    np.savetxt(bad_labels, labels, fmt="%d")
    code = cli.main(["profile", "--data", str(seed_dir / "data.csv"),
                     "--labels", str(bad_labels),
                     "--partition", str(seed_dir / "partition.json"),
                     "--k", "4"])
    assert code == cli.EXIT_CONFIG


def test_join_flow_and_checksum(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    _, data, truth, partition = cli.make_instance(cli.load_config(cfg_path), 0,
                                                  cfg["c"])
    device0 = tmp_path / "device0.csv"
    np.savetxt(device0, data[partition.device_rows[0]], fmt="%.17g", delimiter=",")
    join_out = tmp_path / "join"
    code = cli.main(["join", "--state", str(out / "state_seed0.json"),
                     "--data", str(device0), "--k-z", "2",
                     "--device-id", "0", "--seed", "0",
                     "--out", str(join_out)])
    assert code == 0
    blob = json.loads((join_out / "join.json").read_text())
    assert blob["distance_count"] == 2 * 4
    joined = np.loadtxt(join_out / "join_labels.csv", dtype=int)
    # a duplicate of device 0 lands exactly where device 0's rows landed
    from kfed.federation import run_kfed
    full = run_kfed(partition, data, seed=0)
    original = full.induced.assignment[partition.device_rows[0]]
    assert matched_accuracy(joined, original).accuracy == 1.0

    corrupted = tmp_path / "broken.json"
    state_blob = json.loads((out / "state_seed0.json").read_text())
    state_blob["tau_means"][0][0] += 1.0
    corrupted.write_text(json.dumps(state_blob))
    join_bad = tmp_path / "join_bad"
    code = cli.main(["join", "--state", str(corrupted), "--data", str(device0),
                     "--k-z", "2", "--out", str(join_bad)])
    assert code == cli.EXIT_CONFIG
    assert not join_bad.exists()


def test_join_rejects_dimension_mismatch(tmp_path, capsys, monkeypatch):
    # the width is checked against the state before the local solve runs
    monkeypatch.setattr(cli, "local_cluster", None)
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    narrow = tmp_path / "narrow.csv"
    np.savetxt(narrow, np.arange(8.0)[:, None], fmt="%.17g", delimiter=",")
    join_out = tmp_path / "join"
    code = cli.main(["join", "--state", str(out / "state_seed0.json"),
                     "--data", str(narrow), "--k-z", "2",
                     "--out", str(join_out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {narrow}: rows have 1 columns, but the state's group means have 12")
    assert not join_out.exists()


def _join_argv(tmp_path) -> list[str]:
    """``join`` on device 0's rows against a one-seed run's state."""
    cfg_path, cfg = write_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    _, data, _, partition = cli.make_instance(cli.load_config(cfg_path), 0, cfg["c"])
    device0 = tmp_path / "device0.csv"
    np.savetxt(device0, data[partition.device_rows[0]], fmt="%.17g", delimiter=",")
    return ["join", "--state", str(out / "state_seed0.json"),
            "--data", str(device0), "--out", str(tmp_path / "join")]


@pytest.mark.parametrize("k_z", ["0", "-1"])
def test_join_k_z_below_one_exits_2(tmp_path, k_z):
    argv = _join_argv(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--k-z", k_z])
    assert exc.value.code == cli.EXIT_CONFIG
    assert not (tmp_path / "join").exists()


@pytest.mark.parametrize("flag", ["--seed", "--device-id"])
def test_join_negative_id_exits_2(tmp_path, flag):
    argv = _join_argv(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--k-z", "2", flag, "-1"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert not (tmp_path / "join").exists()


def test_join_k_z_above_rows_exits_2(tmp_path, capsys):
    argv = _join_argv(tmp_path)
    data = argv[argv.index("--data") + 1]
    rows = np.loadtxt(data, delimiter=",").shape[0]
    capsys.readouterr()
    assert cli.main(argv + ["--k-z", str(rows + 1)]) == cli.EXIT_CONFIG
    assert data in capsys.readouterr().err
    assert not (tmp_path / "join").exists()
    assert cli.main(argv + ["--k-z", str(rows)]) == cli.EXIT_OK


def _rechecksummed(state: dict) -> str:
    state = {key: value for key, value in state.items() if key != "checksum"}
    state["checksum"] = hashlib.sha256(canonical_json(state).encode()).hexdigest()
    return json.dumps(state)


@pytest.mark.parametrize("case", ["not_object", "no_tau_means", "wrong_k_d",
                                  "missing", "not_json"])
def test_join_rejects_malformed_state(tmp_path, case):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    state = json.loads((out / "state_seed0.json").read_text())
    if case == "not_object":
        text = json.dumps(state["tau_means"])
    elif case == "no_tau_means":
        del state["tau_means"]
        text = _rechecksummed(state)
    elif case == "wrong_k_d":
        state.update(k=7, d=99)
        text = _rechecksummed(state)
    else:
        text = {"missing": None, "not_json": "{not json"}[case]
    bad = tmp_path / "bad_state.json"
    if text is not None:
        bad.write_text(text)
    device = tmp_path / "device.csv"
    np.savetxt(device, np.random.default_rng(0).normal(size=(10, 12)),
               fmt="%.17g", delimiter=",")
    join_out = tmp_path / "join"
    assert cli.main(["join", "--state", str(bad), "--data", str(device),
                     "--k-z", "2", "--out", str(join_out)]) == cli.EXIT_CONFIG
    assert not join_out.exists()


def _edit_upload(lines, index, edit):
    blob = json.loads(lines[index])
    edit(blob)
    lines[index] = canonical_json(blob)


# defect -> (edit of the recorded lines, what the error names)
REPLAY_DEFECTS = {
    "header_without_k": (lambda lines: _edit_upload(
        lines, 0, lambda b: b.pop("k")), "integer k"),
    "upload_without_centers": (lambda lines: _edit_upload(
        lines, 1, lambda b: b.pop("centers")), "malformed center upload"),
    "non_finite_center": (lambda lines: _edit_upload(
        lines, 1, lambda b: b["centers"][0].__setitem__(0, float("nan"))),
        "non-finite"),
    "width_mismatch": (lambda lines: _edit_upload(
        lines, 2, lambda b: b.update(centers=[r[:-1] for r in b["centers"]])),
        "another width"),
    "repeated_device_id": (lambda lines: _edit_upload(
        lines, 2, lambda b: b.update(device_id=json.loads(lines[1])["device_id"])),
        "uploaded twice"),
    "truncated": (lambda lines: lines.__delitem__(slice(2, None)),
                  "message log is truncated"),
    "unsupported_schema": (lambda lines: _edit_upload(
        lines, 0, lambda b: b.update(schema=2)), "unsupported wire schema"),
}


@pytest.mark.parametrize("defect", sorted(REPLAY_DEFECTS))
def test_replay_rejects_malformed_log(tmp_path, capsys, defect):
    cfg_path, _ = write_config(tmp_path)
    log = tmp_path / "messages.jsonl"
    assert cli.main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / "rec"), "--record", str(log)]) == 0
    lines = log.read_text().splitlines()
    edit, reason = REPLAY_DEFECTS[defect]
    edit(lines)
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["replay", "--log", str(log)]) == cli.EXIT_PIPELINE
    err = capsys.readouterr().err
    assert reason in err and len(err.splitlines()) == 1


def _first_pair(tau, pick, swap):
    """Replace the first ``tau`` pair that ``pick`` accepts with ``swap(pair)``."""
    for group in tau:
        for i, pair in enumerate(group):
            if pick(pair):
                group[i] = swap(pair)
                return
    raise AssertionError("no pair to edit")


def _start_from_highest_upload(lines):
    """Name the highest uploaded id as the header's start device, and write
    the trailer that aggregation from that device's centers gives."""
    header = json.loads(lines[0])
    uploads = [federation.DeviceCenters.from_wire(json.loads(line))
               for line in lines[1:-1]]
    start = max(dc.device_id for dc in uploads)
    provenance = greedy_max_min([(dc.device_id, dc.centers) for dc in uploads],
                                header["k"], start)
    centers = {dc.device_id: dc.centers for dc in uploads}
    init = federation.FarthestInit(
        points=np.array([centers[z][i] for z, i in provenance]),
        provenance=provenance)
    induced = federation.one_round_lloyd(uploads, init,
                                         accounting=federation.OpsAccounting())
    lines[0] = canonical_json({**header, "start_device": start})
    lines[-1] = canonical_json(federation._outcome(init, induced))


# Edits that give a log in canonical form that record_run never writes:
# defect -> (line index, edit of that line's JSON), or (None, edit of all
# the lines). All but header_k_bool and header_start_device_not_lowest
# replayed with exit 0 when replay compared values, not JSON types and
# bytes; header_start_device_not_lowest did while replay started from the
# header's device.
UNWRITABLE_LOGS = {
    "device_id_fraction": (1, lambda b: b.update(device_id=0.5)),
    "device_id_string": (1, lambda b: b.update(device_id=str(b["device_id"]))),
    "k_z_float": (1, lambda b: b.update(k_z=float(b["k_z"]))),
    "digest_missing": (1, lambda b: b.pop("assignment_digest")),
    "digest_not_hex": (1, lambda b: b.update(assignment_digest="x")),
    "digest_upper_case": (1, lambda b: b.update(
        assignment_digest=b["assignment_digest"].upper())),
    "extra_key": (1, lambda b: b.update(note=1)),
    "center_integer": (1, lambda b: b["centers"][0].__setitem__(
        0, round(b["centers"][0][0]))),
    "header_schema_bool": (0, lambda b: b.update(schema=True)),
    "header_start_device_bool": (0, lambda b: b.update(start_device=False)),
    "header_k_bool": (0, lambda b: b.update(k=True)),
    "header_start_device_not_lowest": (None, _start_from_highest_upload),
    "header_extra_key": (0, lambda b: b.update(note=1)),
    "tau_bool": (-1, lambda b: _first_pair(
        b["tau"], lambda pair: pair[0] == 1, lambda pair: [True, pair[1]])),
    "tau_float": (-1, lambda b: _first_pair(
        b["tau"], lambda pair: True, lambda pair: [pair[0], float(pair[1])])),
}


@pytest.fixture(scope="module")
def recorded_log(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("recorded")
    cfg_path, _ = write_config(tmp)
    log = tmp / "messages.jsonl"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp / "rec"),
                     "--record", str(log)]) == 0
    return log.read_text().splitlines()


@pytest.mark.parametrize("defect", [None] + sorted(UNWRITABLE_LOGS))
def test_replay_rejects_log_record_run_cannot_write(tmp_path, capsys, recorded_log,
                                                   defect):
    lines = list(recorded_log)
    if defect is not None:
        index, edit = UNWRITABLE_LOGS[defect]
        if index is None:
            edit(lines)
        else:
            _edit_upload(lines, index, edit)
        assert lines != recorded_log
    log = tmp_path / "messages.jsonl"
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(["replay", "--log", str(log)])
    out, err = capsys.readouterr()
    if defect is None:
        assert code == cli.EXIT_OK and err == ""
        header, trailer = json.loads(lines[0]), json.loads(lines[-1])
        audit = json.loads(out)
        assert out.count("\n") == 1 and out == json.dumps(audit) + "\n"
        assert (audit["k"], audit["devices"]) == (header["k"], len(lines) - 2)
        assert audit["tau"] == trailer["tau"]
    else:
        assert code == cli.EXIT_PIPELINE and out == ""
        assert err.startswith("pipeline error: ") and err.count("\n") == 1


@pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600], ids=["2m600", "2p600"])
def test_replay_at_extreme_scale(tmp_path, capsys, recorded_log, scale):
    # Every upload's centers times a power of two whose squares underflow
    # or overflow: the server decides on the uploads scaled back into
    # range, so the replay reproduces the recorded groups.
    lines = list(recorded_log)
    for index in range(1, len(lines) - 1):
        _edit_upload(lines, index, lambda b: b.update(
            centers=[[x * scale for x in row] for row in b["centers"]]))
    log = tmp_path / "messages.jsonl"
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["replay", "--log", str(log)]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["tau"] == json.loads(lines[-1])["tau"]


def test_eval_command(tmp_path):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    np.savetxt(pred, np.array([0, 0, 1, 1]), fmt="%d")
    np.savetxt(truth, np.array([1, 1, 0, 0]), fmt="%d")
    out = tmp_path / "eval"
    assert cli.main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(out)]) == 0
    blob = json.loads((out / "eval.json").read_text())
    assert blob["accuracy"] == 1.0


def test_eval_command_with_data_scores_cost(tmp_path, capsys):
    pred, truth, data = (tmp_path / name for name in ("pred.csv", "truth.csv", "data.csv"))
    np.savetxt(pred, np.array([0, 0, 1, 1]), fmt="%d")
    np.savetxt(truth, np.array([0, 1, 1, 1]), fmt="%d")
    np.savetxt(data, np.array([[0.0], [2.0], [9.0], [11.0]]), delimiter=",")
    out = tmp_path / "eval"
    capsys.readouterr()
    assert cli.main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--data", str(data), "--out", str(out)]) == 0
    blob = json.loads((out / "eval.json").read_text())
    assert blob == json.loads(capsys.readouterr().out)
    assert blob["accuracy"] == 0.75 and blob["misclassified"] == 1
    assert blob["kmeans_cost"] == 4.0


def test_record_and_replay_via_cli(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "rec"
    log = tmp_path / "messages.jsonl"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--record", str(log)]) == 0
    capsys.readouterr()
    assert cli.main(["replay", "--log", str(log)]) == 0
    audit = json.loads(capsys.readouterr().out)
    assert audit["k"] == 4 and audit["devices"] == 4
    lines = log.read_text().splitlines()
    log.write_text("\n".join([lines[0], lines[1].replace(",", ", ", 1)]
                             + lines[2:]) + "\n")
    assert cli.main(["replay", "--log", str(log)]) == cli.EXIT_PIPELINE
    assert cli.main(["replay", "--log", str(tmp_path / "absent.jsonl")]) == cli.EXIT_IO


# replay takes only --log; run no longer takes --replay
@pytest.mark.parametrize("argv", [
    "run --config {cfg} --out {out} --replay {log}",
    "replay --log {log} --c 3",
    "replay --log {log} --config {cfg} --out {out}",
    "replay --log {log} --record {tmp}/new.jsonl --tol 0.5 --exclude-devices 1 --seed 5",
])
def test_replay_flag_outside_its_command_exits_2(tmp_path, argv):
    # argparse rejects the flag before the log or the config is read
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.format(cfg=cfg_path, out=out, log=tmp_path / "messages.jsonl",
                             tmp=tmp_path).split())
    assert exc.value.code == cli.EXIT_CONFIG
    assert not out.exists() and not (tmp_path / "new.jsonl").exists()


def test_record_rejects_several_runs(tmp_path):
    cfg_path, _ = write_config(tmp_path, seeds=[0, 1, 2])
    out = tmp_path / "rec"
    log = tmp_path / "messages.jsonl"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--record", str(log)]) == cli.EXIT_CONFIG
    assert not out.exists() and not log.exists()
    cfg_path, _ = write_config(tmp_path, experiment="c_sweep",
                               c_values=[50.0, 100.0])
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "0", "--record", str(log)]) == cli.EXIT_CONFIG
    assert not out.exists() and not log.exists()


def test_record_refuses_an_existing_path(tmp_path):
    # A log is never overwritten: an existing file or directory exits 2
    # before any write.
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "rec"
    log = tmp_path / "messages.jsonl"
    log.write_text("kept\n")
    for path in (log, tmp_path):
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--record", str(path)]) == cli.EXIT_CONFIG
        assert not out.exists() and log.read_text() == "kept\n"


def _call_without_out(tmp_path, command):
    """A successful ``command`` call, bar its ``--out``; the inputs it reads
    are made under ``tmp_path`` first. ``run`` covers seeds 0 and 1."""
    cfg_path, _ = write_config(tmp_path, seeds=[0, 1])
    if command in ("run", "generate"):
        return [command, "--config", str(cfg_path)]
    if command == "eval":
        labels = tmp_path / "labels.csv"
        np.savetxt(labels, np.array([0, 0, 1, 1]), fmt="%d")
        return ["eval", "--pred", str(labels), "--truth", str(labels)]
    cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "inst")])
    seed_dir = tmp_path / "inst" / "seed_0"
    if command == "profile":
        return ["profile", "--data", str(seed_dir / "data.csv"),
                "--labels", str(seed_dir / "labels.csv"),
                "--partition", str(seed_dir / "partition.json")]
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    return ["join", "--state", str(tmp_path / "run" / "state_seed0.json"),
            "--data", str(seed_dir / "data.csv"), "--k-z", "2"]


def _files(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", ["run", "generate", "profile", "join", "eval"])
def test_non_empty_out_exits_2_before_any_write(tmp_path, capsys, monkeypatch,
                                                command):
    # A call into an output directory that holds anything would overwrite
    # or mix in with it (a run over seed 0 alone would leave seed 1's state
    # beside a results.csv without it): it exits 2 with one stderr line,
    # before join's device solve, and leaves the directory as it was. An
    # empty directory is taken.
    call = _call_without_out(tmp_path, command)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(call + ["--out", str(out)]) == 0
    written = _files(out)
    assert written
    again = call + ["--seed", "0"] if command == "run" else call
    monkeypatch.setattr(cli, "local_cluster", None)
    capsys.readouterr()
    assert cli.main(again + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: output directory {out} is not empty\n"
    assert _files(out) == written


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad)]) == cli.EXIT_CONFIG

    cfg_path, _ = write_config(tmp_path, experiment="bogus")
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_CONFIG

    cfg_path, _ = write_config(tmp_path)

    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert cli.main(["run", "--config", str(listed)]) == cli.EXIT_CONFIG

    out = tmp_path / "empty"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seeds", "5..3"]) == cli.EXIT_CONFIG
    assert not out.exists()

    blocker = tmp_path / "file_not_dir"
    blocker.write_text("x")
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(blocker)]) == cli.EXIT_IO


@pytest.mark.parametrize("command", ["run", "generate"])
def test_seed_and_seeds_are_exclusive(tmp_path, command):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfg_path), "--out", str(out),
                  "--seed", "0", "--seeds", "1..2"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert not out.exists()


def _exit_code(argv: list[str]) -> int:
    """``cli.main``'s exit code, whether argparse or a subcommand rejects argv."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# The config has 4 devices: 2 groups of 2 components, each split over m0 = 2.
# "{tmp}" stands for an existing directory.
@pytest.mark.parametrize("flag,value", [("--seeds", "1-2"), ("--exclude-devices", "a"),
                                        ("--tol", "-1"), ("--c", "nan"),
                                        ("--c", "inf"), ("--c", "0"),
                                        ("--c", "-10"), ("--c", "1e308"),
                                        ("--seed", "-1"),
                                        ("--seeds", "-1..0"), ("--seeds", "0..-1"),
                                        ("--seeds", "0..x"),
                                        ("--exclude-devices", "-5"),
                                        ("--exclude-devices", "999"),
                                        ("--exclude-devices", "1,4"),
                                        ("--exclude-devices", "0,1,2,3"),
                                        ("--record", "{tmp}")])
def test_malformed_run_flag_exits_2(tmp_path, capsys, flag, value):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert _exit_code(["run", "--config", str(cfg_path), "--out", str(out),
                       f"{flag}={value.format(tmp=tmp_path)}"]) == cli.EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith(
        ("error: ", "kfed run: error: "))


@pytest.mark.parametrize("devices", ["3", "0,1,2"])
def test_iid_exclusions_beyond_z_exit_2(tmp_path, capsys, devices):
    cfg_path, _ = write_config(tmp_path, partition={"mode": "iid", "Z": 3})
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--exclude-devices", devices]) == cli.EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --exclude-devices names ")


def test_generate_negative_seed_exits_2(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--config", str(cfg_path), "--out", str(out),
                  "--seed", "-2"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert not out.exists()


def _set_key(cfg: dict, key: str, value) -> None:
    *section, name = key.split(".")
    (cfg.setdefault(section[0], {}) if section else cfg)[name] = value


# defect -> (config key to set, value, key the error names, other overrides)
CONFIG_DEFECTS = {
    "unknown_key": ("colour", "red", "colour", {}),
    "typo": ("mixture.sigmax", 3, "mixture.sigmax", {}),
    "deleted_n": ("mixture.n", 96, "mixture.n", {}),
    "deleted_balanced": ("mixture.balanced", False, "mixture.balanced", {}),
    "k_not_integer": ("mixture.k", "4x", "mixture.k", {}),
    "k_bool": ("mixture.k", True, "mixture.k", {}),
    "k_zero": ("mixture.k", 0, "mixture.k", {}),
    "iid_zero_devices": ("partition", {"mode": "iid", "Z": 0}, "partition.Z", {}),
    "partition_m0_string": ("partition.m0", "two", "partition.m0", {}),
    "tol_string": ("tol", "x", "tol", {}),
    "tol_negative": ("tol", -1, "tol", {}),
    "m0_negative": ("m0", -1.0, "m0", {"partition": {"mode": "iid", "Z": 4}}),
    "z_iid_string": ("z_iid", "a", "z_iid", {"experiment": "cost_ratio"}),
    "seeds_element": ("seeds", [0, "a"], "seeds", {}),
    "c_values_element": ("c_values", [2, "a"], "c_values",
                         {"experiment": "c_sweep"}),
    "weights_element": ("mixture.weights", [0.25, 0.25, 0.25, "x"],
                        "mixture.weights", {}),
    "c_nan": ("c", float("nan"), "c", {}),
    "c_zero": ("c", 0, "c", {}),
    "c_negative": ("c", -10, "c", {}),
    "c_values_nonpositive": ("c_values", [4.5, 0], "c_values",
                             {"experiment": "c_sweep"}),
    "c_overflows_mixture": ("c", 1e308, "config key c = 1e+308", {}),
    "c_values_overflows_mixture": ("c_values", [4.5, 1e308],
                                   "config key c_values entry 1e+308",
                                   {"experiment": "c_sweep"}),
    "sigma_max_overflows_mixture": ("mixture.sigma_max", 1e307,
                                    "mixture.sigma_max = 1e+307", {}),
    "mode_unknown": ("partition.mode", "bogus", "partition.mode", {}),
    "iid_without_Z": ("partition", {"mode": "iid"}, "partition.Z", {}),
    "weights_length": ("mixture.weights", [0.5, 0.5], "mixture.weights", {}),
    "weights_sign": ("mixture.weights", [0.5, 0.5, 0.25, -0.25],
                     "mixture.weights", {}),
    "weights_sum": ("mixture.weights", [0.25, 0.25, 0.25, 0.2],
                    "mixture.weights", {}),
    "k_above_d": ("mixture.k", 13, "mixture.k", {}),
    "sigma_max_negative": ("mixture.sigma_max", -1.0, "mixture.sigma_max", {}),
    "weights_empty_component": ("mixture.weights", [0.998, 0.001, 0.001],
                                "mixture.weights",
                                {"mixture": {"k": 3, "d": 12, "per_cluster": 10}}),
    "m0_above_component": ("partition.m0", 5, "partition.m0",
                           {"mixture": {"k": 4, "d": 12, "per_cluster": 3}}),
    "iid_Z_above_n": ("partition", {"mode": "iid", "Z": 20}, "partition.Z",
                      {"mixture": {"k": 4, "d": 12, "per_cluster": 3}}),
    "z_iid_above_n": ("z_iid", 200, "z_iid", {"experiment": "cost_ratio"}),
    "k_missing": ("mixture.d", 12, "mixture.k", {"mixture": {"per_cluster": 24}}),
    "version_wrong": ("version", 2, "version", {}),
    "section_not_object": ("partition", ["structured"], "partition", {}),
    "Z_with_structured": ("partition.Z", 4, "partition.Z", {}),
    "m0_with_iid": ("partition.m0", 2, "partition.m0",
                    {"partition": {"mode": "iid", "Z": 4}}),
    "group_size_with_iid": ("partition.group_size", 2, "partition.group_size",
                            {"partition": {"mode": "iid", "Z": 4}}),
    "z_iid_outside_cost_ratio": ("z_iid", 4, "z_iid", {}),
    "tol_under_separation_profile": ("tol", 1e-6, "tol",
                                     {"experiment": "separation_profile"}),
    "cost_ratio_with_iid": ("partition", {"mode": "iid", "Z": 4}, "partition.mode",
                            {"experiment": "cost_ratio"}),
}


@pytest.mark.parametrize("defect", sorted(CONFIG_DEFECTS))
def test_malformed_config_exits_2_before_writing(tmp_path, capsys, defect):
    key, value, named, overrides = CONFIG_DEFECTS[defect]
    cfg_path, cfg = write_config(tmp_path, **overrides)
    _set_key(cfg, key, value)
    cfg_path.write_text(json.dumps(cfg))
    for command in ["run", "generate"]:
        out = tmp_path / command
        capsys.readouterr()
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "generate"])
def test_unallocatable_instance_exits_3_in_one_line(tmp_path, capsys, command):
    # 2e15 rows: numpy refuses the first allocation at once.
    cfg_path, _ = write_config(tmp_path, partition={"mode": "iid", "Z": 2},
                               mixture={"k": 2, "d": 2,
                                        "per_cluster": 1000000000000000})
    assert cli.main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_PIPELINE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("pipeline error: Unable to allocate")


def test_config_grid_builds_or_exits_2(tmp_path):
    # Every config load_config accepts builds for seed 0 at each of its c
    # values; a sample of the rejected ones exits 2 with nothing written.
    # A nonpositive c is always rejected.
    accepted, rejected = 0, []
    grid = itertools.product((1, 4), (3, 12), (1, 6), (None, -1.0, 0, 0.5, 2),
                             ({"mode": "structured"}, {"mode": "iid", "Z": 3}),
                             ("auto", "sigma"), (0.0, 1.0),
                             ([1e-3, 4.5, 100], [-1, 4.5], [100, 0]))
    for i, (k, d, per_cluster, m0, partition, mean_mode, sigma,
            c_values) in enumerate(grid):
        cfg = {"version": 1, "experiment": "c_sweep", "c_values": c_values,
               "mixture": {"k": k, "d": d, "per_cluster": per_cluster,
                           "sigma_max": sigma, "mean_mode": mean_mode},
               "partition": partition}
        if m0 is not None:
            cfg["m0"] = m0
        cfg_path = tmp_path / f"grid{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        try:
            loaded = cli.load_config(cfg_path)
        except cli.ConfigError:
            rejected.append(cfg_path)
            continue
        assert min(c_values) > 0
        accepted += 1
        for c in loaded["c_values"]:
            cli.make_instance(loaded, 0, c)
    assert accepted and rejected
    for cfg_path in rejected[::max(1, len(rejected) // 8)]:
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()


def test_readme_config_matches_schema(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg_path = tmp_path / "readme.json"
    cfg_path.write_text(example)
    cfg = cli.load_config(cfg_path)
    assert cfg["experiment"] == "table1" and cfg["mixture"]["k"] == 16
    for key in cli._SCHEMA:
        assert f"| `{key}` |" in readme, key


def _profile_files(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    cli.main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "inst")])
    seed_dir = tmp_path / "inst" / "seed_0"
    return {name: seed_dir / f"{name}.{ext}" for name, ext in
            [("data", "csv"), ("labels", "csv"), ("partition", "json")]}


def _edit_partition(text: str, edit) -> str:
    mapping = json.loads(text)
    edit(mapping)
    return json.dumps(mapping)


def _replace_row(mapping: dict, row: int, value) -> None:
    """Write ``value`` where the partition lists ``row``."""
    for rows in mapping.values():
        if row in rows:
            rows[rows.index(row)] = value


# defect -> (generated file to edit, the edit); eval reads the labels as truth
INPUT_DEFECTS = {
    "profile_negative_label": ("labels", lambda t: t.replace("0\n", "-1\n", 1)),
    "profile_partition_key_not_integer": (
        "partition", lambda t: t.replace('"0"', '"x"', 1)),
    "profile_partition_misses_rows": ("partition", lambda t: json.dumps(
        {z: rows[1:] for z, rows in json.loads(t).items()})),
    "profile_nan_data": ("data", lambda t: "nan" + t[t.index(","):]),
    "profile_label_gap": ("labels", lambda t: "\n".join(
        "2" if label == "1" else label for label in t.split("\n"))),
    "eval_lengths_differ": ("labels", lambda t: t + "0\n"),
    "eval_negative_label": ("labels", lambda t: "-1\n" + t.split("\n", 1)[1]),
    "eval_data_rows_differ": ("data", lambda t: t.split("\n", 1)[1]),
    "profile_empty_data": ("data", lambda t: ""),
    "profile_empty_labels": ("labels", lambda t: ""),
    "eval_empty_labels": ("labels", lambda t: ""),
    "profile_labels_rows_differ": ("labels", lambda t: t + "0\n"),
    "profile_partition_empty_device": ("partition", lambda t: _edit_partition(
        t, lambda m: m.update({"0": [], "1": m["0"] + m["1"]}))),
    "profile_partition_row_string": ("partition", lambda t: _edit_partition(
        t, lambda m: _replace_row(m, 0, "0"))),
    "profile_partition_row_fraction": ("partition", lambda t: _edit_partition(
        t, lambda m: _replace_row(m, 5, 5.5))),
    "profile_partition_row_bool": ("partition", lambda t: _edit_partition(
        t, lambda m: _replace_row(m, 1, True))),
    "profile_partition_not_object": ("partition", lambda t: json.dumps(
        list(json.loads(t).values()))),
}


@pytest.mark.parametrize("defect", sorted(INPUT_DEFECTS))
def test_malformed_input_file_exits_2(tmp_path, capsys, defect):
    files = _profile_files(tmp_path)
    pred = tmp_path / "pred.csv"
    pred.write_text(files["labels"].read_text())
    name, edit = INPUT_DEFECTS[defect]
    bad = files[name]
    bad.write_text(edit(bad.read_text()))
    if defect.startswith("eval"):
        argv = ["eval", "--pred", str(pred), "--truth", str(files["labels"]),
                "--data", str(files["data"])]
    else:
        argv = ["profile", "--data", str(files["data"]),
                "--labels", str(files["labels"]),
                "--partition", str(files["partition"])]
    argv += ["--out", str(tmp_path / "prof")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "prof").exists()


@pytest.mark.parametrize("keys,bad", [(["10", "11", "12", "13"], "10"),
                                      (["0", "00", "2", "3"], "00")])
def test_profile_rekeyed_partition_names_the_key(tmp_path, capsys, keys, bad):
    files = _profile_files(tmp_path)
    mapping = json.loads(files["partition"].read_text())
    rows = [mapping[str(z)] for z in range(len(mapping))]
    files["partition"].write_text(json.dumps(dict(zip(keys, rows))))
    out = tmp_path / "prof"
    capsys.readouterr()
    assert cli.main(["profile", "--data", str(files["data"]),
                     "--labels", str(files["labels"]),
                     "--partition", str(files["partition"]),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f'error: {files["partition"]}: device key "{bad}" is not one of '
        f'the ids "0".."3"\n')
    assert not out.exists()


def test_eval_empty_label_files_exit_2(tmp_path, capsys):
    pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
    pred.write_text("")
    truth.write_text("")
    out = tmp_path / "ev"
    capsys.readouterr()
    assert cli.main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {pred}: file holds no rows\n"
    assert not out.exists()


def test_profile_k_above_labels_exits_2(tmp_path, capsys):
    files = _profile_files(tmp_path)
    out = tmp_path / "prof"
    capsys.readouterr()
    assert cli.main(["profile", "--data", str(files["data"]),
                     "--labels", str(files["labels"]),
                     "--partition", str(files["partition"]),
                     "--out", str(out), "--k", "5"]) == cli.EXIT_CONFIG
    assert f"{files['labels']}: cluster 4 has no members" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--m0", "-1"), ("--m0", "nan"),
                                        ("--m0", "inf"), ("--c", "nan"),
                                        ("--c", "inf"), ("--c", "0"),
                                        ("--c", "-1")])
def test_malformed_profile_flag_exits_2(tmp_path, flag, value):
    files = _profile_files(tmp_path)
    out = tmp_path / "prof"
    with pytest.raises(SystemExit) as exc:
        cli.main(["profile", "--data", str(files["data"]),
                  "--labels", str(files["labels"]),
                  "--partition", str(files["partition"]),
                  "--out", str(out), flag, value])
    assert exc.value.code == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_profile_k_flag_must_be_count(tmp_path, capsys, value):
    files = _profile_files(tmp_path)
    out = tmp_path / "prof"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["profile", "--data", str(files["data"]),
                  "--labels", str(files["labels"]),
                  "--partition", str(files["partition"]),
                  "--out", str(out), "--k", value])
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument --k: must be count, got {value}" in err
    assert not out.exists()


def test_run_rejects_m0_flag(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", str(cfg_path), "--m0", "3"])
    assert exc.value.code == 2


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.strip()]
    assert [argv[0] for argv in commands] == ["generate", "run", "replay", "profile",
                                              "join", "eval"]
    for argv in commands:
        cli.build_parser().parse_args(argv)


def test_config_round_trip_hash(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    assert cli.load_config(cfg_path)["hash"] == cli.config_hash(cfg)
