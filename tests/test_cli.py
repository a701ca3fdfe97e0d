"""End-to-end tests for the command-line surface: config parsing, dataset
synthesis, training, evaluation, inference, and exit codes."""

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from trailergen.cli import (InputError, _parse_value, load_config, main,
                            parse_config_text, peak_rss_mb)
from trailergen.shots import ShotSequence, read_sequence, write_sequence
from trailergen.synthetic import load_dataset
from trailergen.training import load_checkpoint, restore_model_and_optimizer

TINY_MODEL = ["--set", "model.d_model=16", "--set", "model.num_heads=2",
              "--set", "model.ff_dim=32", "--set", "model.trailerness_layers=1",
              "--set", "model.context_layers=1", "--set", "model.decoder_layers=1",
              "--set", "model.max_len=64"]
TINY_DATA = ["--set", "data.d=16", "--set", "data.n_range=10,14",
             "--set", "data.m_range=3,5", "--set", "data.clusters=4",
             "--set", "data.noise_sigma=0.05", "--set", "data.insert_prob=0.0",
             "--set", "data.seed=7"]


def _with_header_entries(src, dst, section, entries):
    """Copy a checkpoint with entries added to one config of its JSON header."""
    raw = Path(src).read_bytes()
    head_len = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12:12 + head_len])
    header[section].update(entries)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    Path(dst).write_bytes(raw[:8] + struct.pack("<I", len(head)) + head + raw[12 + head_len:])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["gen-data", "--out", str(out), "--count", "8",
               "--split-counts", "6,1,1"] + TINY_DATA)
    assert rc == 0
    return out


def _train_run(out, data_dir, *flags):
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--set", "train.epochs=2", "--set", "train.batch_size=4",
               "--set", "train.lr_peak=1e-3", "--set", "train.seed=0",
               "--set", "model.eos_rule=threshold",
               "--set", "model.eos_threshold=1.1", *flags] + TINY_MODEL)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    return _train_run(tmp_path_factory.mktemp("run"), data_dir)


@pytest.fixture(scope="module")
def cond_run_dir(tmp_path_factory, data_dir):
    return _train_run(tmp_path_factory.mktemp("cond_run"), data_dir, "--use-conditions")


# --------------------------------------------------------------------------
# config plumbing
# --------------------------------------------------------------------------

class TestParseValue:
    def test_booleans(self):
        assert _parse_value("true") is True
        assert _parse_value("False") is False

    def test_numbers(self):
        assert _parse_value("42") == 42
        assert _parse_value("1e-3") == pytest.approx(1e-3)

    def test_comma_tuple(self):
        assert _parse_value("1,2,3") == (1, 2, 3)
        assert _parse_value("0.5,1.0") == (0.5, 1.0)

    def test_bare_string(self):
        assert _parse_value("margin") == "margin"


class TestConfigText:
    def test_sections_split_by_prefix(self):
        text = """
        # a comment
        model.d_model = 32
        train.epochs = 5
        data.seed = 9
        """
        sections = parse_config_text(text)
        assert sections["model"] == {"d_model": 32}
        assert sections["train"] == {"epochs": 5}
        assert sections["data"] == {"seed": 9}

    def test_missing_prefix_rejected(self):
        with pytest.raises(InputError, match="prefix"):
            parse_config_text("d_model = 32")

    def test_unknown_section_rejected(self):
        with pytest.raises(InputError, match="unknown section"):
            parse_config_text("optimizer.lr = 1")

    def test_missing_equals_rejected(self):
        with pytest.raises(InputError, match="key=value"):
            parse_config_text("model.d_model 32")

    def test_missing_file_rejected(self):
        with pytest.raises(InputError, match="not found"):
            load_config("/nonexistent/config.txt", None)

    def test_set_overrides_file(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("data.seed = 1\n")
        sections = load_config(str(cfg), ["data.seed=99"])
        assert sections["data"]["seed"] == 99

    def test_env_var_supplies_default_path(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.txt"
        cfg.write_text("train.epochs = 17\n")
        monkeypatch.setenv("TRAILERGEN_CONFIG", str(cfg))
        assert load_config(None, None)["train"]["epochs"] == 17

    def test_bad_set_item_rejected(self):
        with pytest.raises(InputError):
            load_config(None, ["no_equals_here"])
        with pytest.raises(InputError):
            load_config(None, ["badsection.x=1"])


# --------------------------------------------------------------------------
# gen-data
# --------------------------------------------------------------------------

class TestGenData:
    def test_manifest_and_disjoint_splits(self, data_dir):
        manifest = json.loads((data_dir / "corpus.json").read_text())
        assert manifest["count"] == 8
        splits = manifest["splits"]
        ids = [i for split in splits.values() for i in split]
        assert sorted(ids) == sorted(set(ids))
        assert len(splits["train"]) == 6
        assert (data_dir / "run_manifest.json").exists()

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        again = tmp_path / "again"
        rc = main(["gen-data", "--out", str(again), "--count", "8",
                   "--split-counts", "6,1,1"] + TINY_DATA)
        assert rc == 0
        originals = {p.relative_to(data_dir): p for p in data_dir.rglob("*")
                     if p.is_file() and p.name != "run_manifest.json"}
        copies = {p.relative_to(again): p for p in again.rglob("*")
                  if p.is_file() and p.name != "run_manifest.json"}
        assert set(originals) == set(copies)
        for rel, p in originals.items():
            assert p.read_bytes() == copies[rel].read_bytes(), rel

    def test_bad_split_counts_exit_2(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "x"), "--count", "8",
                   "--split-counts", "1,1,1"] + TINY_DATA)
        assert rc == 2
        assert "error" in capsys.readouterr().err

    # "7" used to raise a TypeError, and int() truncated "6.5,1,1" to a valid split
    @pytest.mark.parametrize("counts", ["7", "6.5,1,1", "6,1", "6,x,1"])
    def test_malformed_split_counts_exit_2(self, tmp_path, capsys, counts):
        rc = main(["gen-data", "--out", str(tmp_path / "x"), "--count", "8",
                   "--split-counts", counts] + TINY_DATA)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --split-counts must be three integer counts summing to 8, got {counts!r}"]
        assert not (tmp_path / "x").exists()

    def test_count_is_a_flag_not_a_data_key(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "x"), "--set", "data.count=5"])
        assert rc == 2
        assert "count" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_seed_recorded_in_run_manifest(self, data_dir):
        manifest = json.loads((data_dir / "run_manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["command"] == "gen-data"
        assert "dataset_fingerprint" in manifest["config"]


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

class TestTrain:
    def test_outputs_exist(self, run_dir):
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "loss_log.csv").exists()
        assert (run_dir / "run_manifest.json").exists()

    def test_loss_csv_header_and_rows(self, run_dir):
        with open(run_dir / "loss_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "lr", "l_t", "l_rec", "l_kl", "total", "grad_norm"]
        assert len(rows) - 1 == 2 * 2  # 6 pairs / batch 4 = 2 steps x 2 epochs
        for row in rows[1:]:
            assert int(row[0]) >= 1
            for cell in row[1:]:
                float(cell)  # repr() floats must parse back

    def test_phase_timings_in_manifest_not_in_loss_log(self, run_dir):
        timings = json.loads((run_dir / "run_manifest.json").read_text())["timings"]
        for phase in ("load_s", "train_s", "write_s"):
            assert 0.0 <= timings[phase] <= timings["wall_seconds"]
        assert timings["steps"] == 2 * 2
        assert timings["steps_per_s"] > 0.0
        assert 0.0 < timings["peak_rss_mb"] <= peak_rss_mb()
        text = (run_dir / "loss_log.csv").read_text()
        assert "_s" not in text and "seconds" not in text and "rss" not in text

    def test_config_baked_into_checkpoint(self, run_dir):
        ck = load_checkpoint(run_dir / "model.ckpt")
        assert ck.model_config.d_model == 16
        assert ck.model_config.eos_rule == "threshold"
        assert ck.train_config.epochs == 2
        assert ck.step == 4

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "void"),
                   "--out", str(tmp_path / "run")] + TINY_MODEL)
        assert rc == 2
        assert "corpus.json" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "model.d_model=abc", "train.clip_norm=nan", "model.num_heads=0",
        "model.ff_dim=0", "model.num_heads=-4", "model.condition_dim=-1",
        "model.condition_mode=contextualized",
        "model.position_mode=learned", "train.normalize_by_length=true",
        "train.beta1=1.0", "train.eps=0", "train.beta2=1.5", "train.weight_decay=-0.1",
        "train.checkpoint_every=-1", "train.loss_weights=0,0,0",
    ])
    def test_bad_config_value_exit_2(self, data_dir, tmp_path, capsys, setting):
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                   "--set", "train.epochs=1"] + TINY_MODEL + ["--set", setting])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        key = setting.split("=")[0].split(".")[1]
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and key in lines[0]

    @pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--seed", "-1")])
    def test_epochs_or_seed_flag_out_of_range_exit_2(self, data_dir, tmp_path, capsys,
                                                     flag, value):
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data_dir), "--out", str(out),
                   flag, value] + TINY_MODEL)
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and flag[2:] in lines[0]
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("setting", ["train.total_steps=4", "train.warmup_steps=0",
                                         "train.use_conditions=true"])
    def test_derived_train_key_exit_2(self, data_dir, tmp_path, capsys, setting):
        # a run's length comes from train.epochs and its conditioning from
        # --use-conditions, so these keys are unknown
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data_dir), "--out", str(out),
                   "--set", setting] + TINY_MODEL)
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        key = setting.split("=")[0].split(".")[1]
        assert len(lines) == 1
        assert lines[0] == f"error: unknown train config keys: [{key!r}]"
        assert not (out / "model.ckpt").exists()

    def test_flags_override_config_entries(self, data_dir, tmp_path):
        out = tmp_path / "flags"
        rc = main(["train", "--data", str(data_dir), "--out", str(out),
                   "--no-trailerness-encoder", "--no-context-encoder",
                   "--seed", "3", "--epochs", "1",
                   "--set", "train.epochs=5", "--set", "train.seed=9",
                   "--set", "train.batch_size=4"] + TINY_MODEL)
        assert rc == 0
        ck = load_checkpoint(out / "model.ckpt")
        assert not ck.model_config.use_trailerness_encoder
        assert not ck.model_config.use_context_encoder
        assert (ck.train_config.seed, ck.train_config.epochs) == (3, 1)

    def test_use_conditions_conditions_the_model(self, data_dir, tmp_path):
        # the flag selects the "encoded" mode, so each pair's condition rows
        # join the memory and change what the same seed learns
        base = ["--data", str(data_dir), "--set", "train.epochs=1",
                "--set", "train.batch_size=4", "--set", "train.seed=0"] + TINY_MODEL
        plain, cond = tmp_path / "plain", tmp_path / "cond"
        assert main(["train", "--out", str(plain)] + base) == 0
        assert main(["train", "--out", str(cond), "--use-conditions"] + base) == 0
        ck_plain = load_checkpoint(plain / "model.ckpt")
        ck_cond = load_checkpoint(cond / "model.ckpt")
        assert ck_cond.model_config.condition_mode == "encoded"
        assert set(ck_cond.arrays) == set(ck_plain.arrays)
        assert any(not np.array_equal(ck_cond.arrays[name], ck_plain.arrays[name])
                   for name in ck_plain.arrays)
        movie_file = next(data_dir.glob("*.movie.json"))
        cond_file = movie_file.with_name(movie_file.name.replace(".movie.", ".condition."))
        assert main(["infer", "--checkpoint", str(cond / "model.ckpt"),
                     "--movie", str(movie_file), "--condition", str(cond_file),
                     "--out", str(tmp_path / "o.json"), "--max-len", "2"]) == 0

    def test_ablation_flag_zeroes_trailerness_loss(self, data_dir, tmp_path):
        out = tmp_path / "ablate"
        rc = main(["train", "--data", str(data_dir), "--out", str(out),
                   "--no-trailerness-encoder",
                   "--set", "train.epochs=1", "--set", "train.batch_size=4",
                   "--set", "train.seed=0"] + TINY_MODEL)
        assert rc == 0
        with open(out / "loss_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(float(row[2]) == 0.0 for row in rows[1:])  # l_t column

    def test_resume_continues_from_checkpoint(self, data_dir, tmp_path):
        # bitwise curve equality is covered at the library level; here the
        # contract is that --resume picks up the step counter and schedule
        base = ["--data", str(data_dir),
                "--set", "train.batch_size=4", "--set", "train.lr_peak=1e-3",
                "--set", "train.seed=0"] + TINY_MODEL
        half = tmp_path / "half"
        assert main(["train", "--out", str(half),
                     "--set", "train.epochs=2"] + base) == 0
        resumed = tmp_path / "resumed"
        assert main(["train", "--out", str(resumed),
                     "--resume", str(half / "model.ckpt"),
                     "--set", "train.epochs=4"] + base) == 0

        with open(resumed / "loss_log.csv", newline="") as fh:
            tail_rows = list(csv.reader(fh))[1:]
        assert [int(r[0]) for r in tail_rows] == [5, 6, 7, 8]
        assert load_checkpoint(resumed / "model.ckpt").step == 8

    def test_resume_prints_the_steps_this_run_trained(self, run_dir, data_dir, tmp_path,
                                                      capsys):
        # run_dir holds 2 epochs of 2 steps: a third epoch trains 2 steps,
        # and a resume that asks for no more epochs trains none
        for epochs, printed in ((3, "trained 2 steps; final total loss "),
                                (2, "trained 0 steps; checkpoint at ")):
            out = tmp_path / f"epochs_{epochs}"
            capsys.readouterr()
            assert main(["train", "--data", str(data_dir), "--out", str(out),
                         "--resume", str(run_dir / "model.ckpt"),
                         "--set", f"train.epochs={epochs}", "--set", "train.batch_size=4",
                         "--set", "train.lr_peak=1e-3", "--set", "train.seed=0"]) == 0
            assert capsys.readouterr().out.startswith(printed)
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["timings"]["steps"] == epochs * 2 - 4

    @pytest.mark.parametrize("flags, key", [
        (["--no-context-encoder"], "use_context_encoder"),
        (["--no-trailerness-encoder"], "use_trailerness_encoder"),
        (["--use-conditions"], "condition_mode"),
        (["--preset", "desk"], "eos_rule"),  # TINY_MODEL keys override the preset
        (["--set", "model.eos_threshold=0.5"], "eos_threshold"),
    ], ids=["no-context-encoder", "no-trailerness-encoder", "use-conditions", "preset", "set"])
    def test_resume_with_other_model_flags_exits_2(self, run_dir, data_dir, tmp_path,
                                                    capsys, flags, key):
        # a resumed run trains the checkpoint's model, so a model flag that
        # asks for another one is refused, not dropped
        resumed = tmp_path / "resumed"
        capsys.readouterr()
        rc = main(["train", "--data", str(data_dir), "--out", str(resumed),
                   "--resume", str(run_dir / "model.ckpt"),
                   "--set", "train.epochs=3", "--set", "train.batch_size=4"]
                  + TINY_MODEL + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and repr(key) in err
        assert not (resumed / "model.ckpt").exists()

    def test_resume_with_matching_or_no_model_flags_trains(self, run_dir, data_dir,
                                                          tmp_path):
        matching = TINY_MODEL + ["--set", "model.eos_rule=threshold",
                                 "--set", "model.eos_threshold=1.1"]
        for name, flags in (("matching", matching), ("none", [])):
            resumed = tmp_path / name
            assert main(["train", "--data", str(data_dir), "--out", str(resumed),
                         "--resume", str(run_dir / "model.ckpt"),
                         "--set", "train.epochs=3", "--set", "train.batch_size=4",
                         "--set", "train.lr_peak=1e-3", "--set", "train.seed=0"]
                        + flags) == 0
            assert load_checkpoint(resumed / "model.ckpt").step == 3 * 2  # 2 steps an epoch

    def test_resume_of_conditioned_checkpoint_needs_no_flag(self, data_dir, tmp_path):
        # the restored model is conditioned, so the resumed epochs feed the
        # condition rows whether or not --use-conditions is given again
        base = ["--data", str(data_dir), "--set", "train.batch_size=4",
                "--set", "train.lr_peak=1e-3", "--set", "train.seed=0"] + TINY_MODEL
        first = tmp_path / "first"
        assert main(["train", "--out", str(first), "--use-conditions",
                     "--set", "train.epochs=1"] + base) == 0
        # the train config a checkpoint held before the derived keys went
        ckpt = tmp_path / "old.ckpt"
        _with_header_entries(first / "model.ckpt", ckpt, "train_config", {
            "total_steps": 2, "warmup_steps": 0, "use_conditions": True})
        logs = []
        for name, flags in (("with_flag", ["--use-conditions"]), ("without_flag", [])):
            out = tmp_path / name
            assert main(["train", "--out", str(out), "--resume", str(ckpt),
                         "--set", "train.epochs=2"] + base + flags) == 0
            logs.append((out / "loss_log.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_divergent_run_exit_3(self, data_dir, tmp_path, capsys):
        with np.errstate(over="ignore"):  # overflow is the point here
            rc = main(["train", "--data", str(data_dir),
                       "--out", str(tmp_path / "boom"),
                       "--set", "train.epochs=2", "--set", "train.batch_size=4",
                       "--set", "train.lr_peak=1e38", "--set", "train.seed=0",
                       "--set", "train.clip_norm=0"] + TINY_MODEL)
        assert rc == 3
        assert "diverged" in capsys.readouterr().err

    def test_divergent_run_logs_completed_steps(self, data_dir, tmp_path):
        out = tmp_path / "boom"
        with np.errstate(over="ignore"):
            rc = main(["train", "--data", str(data_dir), "--out", str(out),
                       "--set", "train.epochs=2", "--set", "train.batch_size=4",
                       "--set", "train.lr_peak=1e38", "--set", "train.seed=0",
                       "--set", "train.clip_norm=0"] + TINY_MODEL)
        assert rc == 3
        with open(out / "loss_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "grad_norm"
        assert len(rows) > 1  # the steps before the non-finite one are kept
        assert [int(row[0]) for row in rows[1:]] == list(range(1, len(rows)))
        for row in rows[1:]:
            assert math.isfinite(float(row[-1])) and float(row[-1]) > 0.0


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

class TestEval:
    def test_reports_written(self, run_dir, data_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--data", str(data_dir), "--split", "test",
                   "--k", "1", "--k", "3", "--out", str(out),
                   "--baseline-trials", "50"])
        assert rc == 0
        payload = json.loads((out / "eval_test.json").read_text())
        assert payload["k_list"] == [1, 3]
        assert "model" in payload and "random_baseline" in payload

        table = (out / "eval_test.txt").read_text()
        header = table.splitlines()[0]
        order = [header.index(col) for col in
                 ("Precision", "Recall", "F1-score", "LD", "SLD")]
        assert order == sorted(order)
        assert "model@1" in table
        assert "random@1" in table
        assert "model@1" in capsys.readouterr().out

    def test_split_decoded_in_one_batch_matches_per_pair_generate(
            self, run_dir, data_dir, tmp_path):
        # the train split holds movies of 10-14 shots, so the batch is padded
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--data", str(data_dir), "--split", "train", "--k", "1",
                   "--out", str(out), "--baseline-trials", "10"])
        assert rc == 0
        payload = json.loads((out / "eval_train.json").read_text())
        model, _ = restore_model_and_optimizer(load_checkpoint(run_dir / "model.ckpt"))
        examples, _ = load_dataset(data_dir, "train")
        assert len({len(ex.movie) for ex in examples}) > 1
        max_len = payload["max_len"]
        for entry, ex in zip(payload["model"]["per_pair"], examples):
            decoded = model.generate(ex.movie.embeddings, max_len=max_len)
            assert entry["id"] == ex.pair_id
            assert entry["predicted"] == decoded.matched_indices
        assert payload["model"]["empty_rate"] == 0.0
        assert "model empty" in (out / "eval_train.txt").read_text()

    def test_phase_timings_in_manifest_not_in_report(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--data", str(data_dir), "--split", "test", "--k", "1",
                   "--out", str(out), "--baseline-trials", "10"])
        assert rc == 0
        timings = json.loads((out / "eval_test.manifest.json").read_text())["timings"]
        for phase in ("load_s", "decode_s", "score_s", "write_s"):
            assert 0.0 <= timings[phase] <= timings["wall_seconds"]
        assert timings["decoded_shots"] >= 1
        assert timings["decoded_shots_per_s"] > 0.0
        assert 0.0 < timings["peak_rss_mb"] <= peak_rss_mb()
        text = (out / "eval_test.json").read_text()
        assert "timings" not in text and "_s\"" not in text and "seconds" not in text
        assert "rss" not in text

    def test_gt_alignment_flag_present(self, run_dir, data_dir, tmp_path):
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--data", str(data_dir), "--split", "test", "--k", "1",
                   "--out", str(out), "--baseline-trials", "10"])
        assert rc == 0
        payload = json.loads((out / "eval_test.json").read_text())
        assert payload["model"]["flags"]["gt_alignment"] == "source_indices"

    def test_unknown_split_exit_2(self, run_dir, data_dir, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--data", str(data_dir), "--split", "weird",
                   "--out", str(tmp_path / "e")])
        assert rc == 2
        assert capsys.readouterr().err

    def test_use_conditions_flag_is_gone_exit_2(self, run_dir, data_dir, tmp_path, capsys):
        # the checkpoint, not a flag, says whether eval feeds condition rows
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                  "--data", str(data_dir), "--use-conditions",
                  "--out", str(tmp_path / "eval")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --use-conditions" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_conditioned_checkpoint_decodes_with_each_pairs_condition(
            self, cond_run_dir, data_dir, tmp_path):
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(cond_run_dir / "model.ckpt"),
                   "--data", str(data_dir), "--split", "train", "--k", "1",
                   "--out", str(out), "--baseline-trials", "10"])
        assert rc == 0
        payload = json.loads((out / "eval_train.json").read_text())
        model, _ = restore_model_and_optimizer(load_checkpoint(cond_run_dir / "model.ckpt"))
        examples, _ = load_dataset(data_dir, "train")
        for entry, ex in zip(payload["model"]["per_pair"], examples):
            decoded = model.generate(ex.movie.embeddings, ex.condition.embeddings,
                                     max_len=payload["max_len"])
            assert entry["id"] == ex.pair_id
            assert entry["predicted"] == decoded.matched_indices

    def test_conditioned_checkpoint_on_corpus_without_conditions_exit_2(
            self, cond_run_dir, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--count", "8",
                     "--split-counts", "6,1,1", "--no-conditions"] + TINY_DATA) == 0
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(cond_run_dir / "model.ckpt"),
                   "--data", str(data), "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert "conditioned" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("entries", [{"condition_mode": "contextualized"},
                                         {"condition_dim": 8}])
    def test_retired_conditioning_checkpoint_exit_2(self, run_dir, data_dir, tmp_path,
                                                    capsys, entries):
        ckpt = tmp_path / "old.ckpt"
        _with_header_entries(run_dir / "model.ckpt", ckpt, "model_config", entries)
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
                   "--out", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(key in err and repr(value) in err for key, value in entries.items())

    def test_train_value_a_later_check_rejects_opens_for_eval_and_infer(
            self, run_dir, data_dir, tmp_path, capsys):
        ckpt = tmp_path / "old.ckpt"
        _with_header_entries(run_dir / "model.ckpt", ckpt, "train_config", {"epochs": 0})
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
                     "--out", str(tmp_path / "eval"), "--baseline-trials", "10"]) == 0
        movie_file = next(data_dir.glob("*.movie.json"))
        assert main(["infer", "--checkpoint", str(ckpt), "--movie", str(movie_file),
                     "--out", str(tmp_path / "o.json"), "--max-len", "2"]) == 0
        capsys.readouterr()
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                   "--resume", str(ckpt), "--set", "train.epochs=4"] + TINY_MODEL)
        assert rc == 2
        assert "epochs must be >= 1, got 0" in capsys.readouterr().err

    def test_checkpoint_with_derived_train_keys_evaluates_and_resumes(
            self, run_dir, data_dir, tmp_path):
        # checkpoints stored total_steps, warmup_steps and use_conditions
        # until the run derived them; loading drops them
        ckpt = tmp_path / "old.ckpt"
        _with_header_entries(run_dir / "model.ckpt", ckpt, "train_config", {
            "total_steps": 4, "warmup_steps": 0, "use_conditions": False})
        assert set(load_checkpoint(ckpt).train_config.to_dict()) == set(
            load_checkpoint(run_dir / "model.ckpt").train_config.to_dict())
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
                     "--out", str(tmp_path / "eval"), "--baseline-trials", "10"]) == 0
        movie_file = next(data_dir.glob("*.movie.json"))
        assert main(["infer", "--checkpoint", str(ckpt), "--movie", str(movie_file),
                     "--out", str(tmp_path / "o.json"), "--max-len", "2"]) == 0
        assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
                     "--resume", str(ckpt), "--set", "train.epochs=3",
                     "--set", "train.batch_size=4"] + TINY_MODEL) == 0
        assert load_checkpoint(tmp_path / "run" / "model.ckpt").step == 3 * 2

    def test_missing_checkpoint_exit_2(self, data_dir, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                   "--data", str(data_dir)])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", [9, 16])
    def test_truncated_checkpoint_exit_2(self, run_dir, data_dir, tmp_path, capsys, keep):
        # 9 bytes end inside the preamble; 16 end inside the header
        stub = tmp_path / "stub.ckpt"
        stub.write_bytes((run_dir / "model.ckpt").read_bytes()[:keep])
        rc = main(["eval", "--checkpoint", str(stub), "--data", str(data_dir)])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err


# --------------------------------------------------------------------------
# infer
# --------------------------------------------------------------------------

def test_eval_and_infer_leave_the_train_manifest_alone(run_dir, data_dir, tmp_path):
    # the quickstart writes eval and infer outputs into the train run's
    # directory; each command keeps its own manifest there
    (tmp_path / "model.ckpt").write_bytes((run_dir / "model.ckpt").read_bytes())
    train_manifest = (run_dir / "run_manifest.json").read_bytes()
    (tmp_path / "run_manifest.json").write_bytes(train_manifest)
    movie_file = next(data_dir.glob("*.movie.json"))
    assert main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data",
                 str(data_dir), "--split", "test", "--out", str(tmp_path),
                 "--baseline-trials", "10"]) == 0
    assert main(["infer", "--checkpoint", str(tmp_path / "model.ckpt"), "--movie",
                 str(movie_file), "--out", str(tmp_path / "decoded.json"), "--max-len", "3"]) == 0
    assert (tmp_path / "run_manifest.json").read_bytes() == train_manifest
    for name, command in (("eval_test.manifest.json", "eval"),
                          ("decoded.manifest.json", "infer")):
        assert json.loads((tmp_path / name).read_text())["command"] == command


class TestInfer:
    def test_max_len_one_emits_one_shot(self, run_dir, data_dir, tmp_path):
        movie_file = next(data_dir.glob("*.movie.json"))
        out = tmp_path / "decoded.json"
        rc = main(["infer", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--movie", str(movie_file), "--out", str(out),
                   "--max-len", "1", "--topk", "3"])
        assert rc == 0
        sidecar = json.loads(out.with_suffix(".decode.json").read_text())
        # the run fixture bakes in a never-firing EOS threshold
        assert sidecar["terminated_by"] == "max_len"
        assert len(sidecar["matched_indices"]) == 1
        n = sidecar["movie_shots"]
        assert all(1 <= i <= n for i in sidecar["matched_indices"])
        assert len(sidecar["steps"][0]["topk_indices"]) == 3

        seq = read_sequence(out)
        assert seq.embeddings.shape == (1, 16)
        assert seq.role == "trailer"

    def test_indices_in_range_longer_decode(self, run_dir, data_dir, tmp_path):
        movie_file = next(data_dir.glob("*.movie.json"))
        out = tmp_path / "decoded.json"
        rc = main(["infer", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--movie", str(movie_file), "--out", str(out),
                   "--max-len", "6", "--topk", "1"])
        assert rc == 0
        sidecar = json.loads(out.with_suffix(".decode.json").read_text())
        n = sidecar["movie_shots"]
        assert len(sidecar["matched_indices"]) == 6
        assert all(1 <= i <= n for i in sidecar["matched_indices"])

    def test_decode_timing_in_manifest(self, run_dir, data_dir, tmp_path):
        movie_file = next(data_dir.glob("*.movie.json"))
        out = tmp_path / "decoded.json"
        rc = main(["infer", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--movie", str(movie_file), "--out", str(out), "--max-len", "3"])
        assert rc == 0
        timings = json.loads((tmp_path / "decoded.manifest.json").read_text())["timings"]
        assert 0.0 <= timings["decode_s"] <= timings["wall_seconds"]
        assert timings["decoded_shots_per_s"] > 0.0
        assert 0.0 < timings["peak_rss_mb"] <= peak_rss_mb()
        sidecar = out.with_suffix(".decode.json").read_text()
        assert "_s\"" not in sidecar and "seconds" not in sidecar

    def test_dim_mismatch_exit_2(self, run_dir, tmp_path, capsys):
        rng = np.random.default_rng(0)
        thin = ShotSequence(seq_id="thin", role="movie",
                            embeddings=rng.normal(0.0, 0.3, size=(5, 8)) + 0.5)
        movie_path = tmp_path / "thin.json"
        write_sequence(movie_path, thin)
        rc = main(["infer", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--movie", str(movie_path), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "d_model" in capsys.readouterr().err

    def test_condition_on_unconditioned_checkpoint_exit_2(
            self, run_dir, data_dir, tmp_path, capsys):
        movie_file = next(data_dir.glob("*.movie.json"))
        cond_file = next(data_dir.glob("*.condition.json"))
        rc = main(["infer", "--checkpoint", str(run_dir / "model.ckpt"),
                   "--movie", str(movie_file), "--condition", str(cond_file),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "conditioning" in capsys.readouterr().err

    def test_conditioned_checkpoint_without_condition_exit_2(
            self, cond_run_dir, data_dir, tmp_path, capsys):
        movie_file = next(data_dir.glob("*.movie.json"))
        rc = main(["infer", "--checkpoint", str(cond_run_dir / "model.ckpt"),
                   "--movie", str(movie_file), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "conditioned" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


# --------------------------------------------------------------------------
# numeric flags
# --------------------------------------------------------------------------

@pytest.mark.parametrize("command, flag", [
    ("gen-data", "--count"), ("eval", "--max-len"), ("eval", "--k"),
    ("eval", "--baseline-trials"), ("infer", "--max-len"), ("infer", "--topk"),
    ("gradcheck", "--seeds"), ("gradcheck", "--model-seeds")])
def test_count_flags_below_one_exit_2_at_parse_time(tmp_path, capsys, command, flag):
    # the paths do not exist, so only the parser can be the one that stops
    missing = str(tmp_path / "missing")
    required = {"gen-data": ["--out", missing],
                "eval": ["--checkpoint", missing, "--data", missing],
                "infer": ["--checkpoint", missing, "--movie", missing, "--out", missing],
                "gradcheck": []}
    with pytest.raises(SystemExit) as exit_info:
        main([command, *required[command], flag, "0"])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


# --------------------------------------------------------------------------
# gradcheck
# --------------------------------------------------------------------------

class TestGradcheck:
    def test_fresh_build_passes(self, capsys):
        rc = main(["gradcheck", "--seeds", "2", "--model-seeds", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rel" in out.lower()  # reports max relative error per op

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-4"])
    def test_tolerance_not_finite_and_positive_exits_2(self, capsys, tol):
        rc = main(["gradcheck", "--seeds", "1", "--model-seeds", "1", f"--tol={tol}"])
        assert rc == 2
        assert "tol" in capsys.readouterr().err
