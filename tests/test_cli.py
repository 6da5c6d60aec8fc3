import json

import numpy as np
import pytest

from kfed import cli
from kfed.evaluation import matched_accuracy
from kfed.local import local_cluster


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


def test_run_result_rows_reproducible(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    cli.main(["run", "--config", str(cfg_path), "--out", str(out_a)])
    cli.main(["run", "--config", str(cfg_path), "--out", str(out_b)])
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_run_single_device_matches_local_solver(tmp_path):
    cfg_path, cfg = write_config(
        tmp_path, partition={"mode": "structured", "m0": 1, "group_size": 4})
    out = tmp_path / "one"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    from kfed.cli import make_instance
    _, data, truth, partition = make_instance(cfg, 0)
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


def test_run_separation_profile(tmp_path):
    cfg_path, _ = write_config(tmp_path, experiment="separation_profile")
    out = tmp_path / "prof"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    blob = json.loads((out / "separation_seed0.json").read_text())
    assert blob["lemma_audit"]["passed"] is True
    assert (out / "separation_pairs_seed0.csv").read_text().startswith("r,s,status")


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
    from kfed.cli import make_instance
    _, data, truth, partition = make_instance(cfg, 0)
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


def test_join_rejects_dimension_mismatch(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
    narrow = tmp_path / "narrow.csv"
    np.savetxt(narrow, np.arange(8.0)[:, None], fmt="%.17g", delimiter=",")
    join_out = tmp_path / "join"
    code = cli.main(["join", "--state", str(out / "state_seed0.json"),
                     "--data", str(narrow), "--k-z", "2",
                     "--out", str(join_out)])
    assert code == cli.EXIT_PIPELINE
    assert not join_out.exists()


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


def test_record_and_replay_via_cli(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "rec"
    log = tmp_path / "messages.jsonl"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--record", str(log)]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--replay", str(log)]) == 0
    lines = log.read_text().splitlines()
    log.write_text("\n".join([lines[0], lines[1].replace(",", ", ", 1)]
                             + lines[2:]) + "\n")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--replay", str(log)]) == cli.EXIT_PIPELINE


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


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad)]) == cli.EXIT_CONFIG

    cfg_path, _ = write_config(tmp_path, experiment="bogus")
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_CONFIG

    cfg_path, _ = write_config(tmp_path)
    # excluding every device is a pipeline failure at run time
    out = tmp_path / "fail"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--exclude-devices", "0,1,2,3"]) == cli.EXIT_PIPELINE

    blocker = tmp_path / "file_not_dir"
    blocker.write_text("x")
    assert cli.main(["run", "--config", str(cfg_path),
                     "--out", str(blocker)]) == cli.EXIT_IO


def test_run_rejects_m0_flag(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", str(cfg_path), "--m0", "3"])
    assert exc.value.code == 2


def test_config_round_trip_hash(tmp_path):
    cfg_path, cfg = write_config(tmp_path)
    loaded = cli.load_config(cfg_path)
    assert cli.config_hash(loaded) == cli.config_hash(cfg)
