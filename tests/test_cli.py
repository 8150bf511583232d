import csv
import json

import pytest
import yaml

from distpac import cli


def write_config(tmp_path, name, cfg):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


BASE = {"protocol": "closed_conjunction", "n": 20, "k": 3, "eps": 0.05,
        "seeds": [0, 4], "name": "conj"}
BOOST = {"protocol": "boosting", "n": 10, "k": 2, "eps": 0.2, "seeds": 0}


class TestListProtocols:
    def test_lists_whole_registry(self, capsys):
        assert cli.main(["--list-protocols"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == sorted(cli.PROTOCOLS)
        assert "adversarial_perceptron" in out and len(out) == 13


class TestRun:
    def test_results_csv_shape(self, tmp_path):
        cfg = write_config(tmp_path, "c", dict(BASE))
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = read_csv(tmp_path / "out" / "conj" / "results.csv")
        assert rows[0] == ["protocol", "seed", "bits", "examples",
                           "hypotheses", "rounds", "meta_rounds",
                           "error_mixture", "error_p1", "error_p2",
                           "error_p3"]
        assert len(rows) == 6  # header + seeds 0..4
        assert all(r[2] == "60" for r in rows[1:])  # k * n bits, every seed

    def test_summary_json(self, tmp_path):
        cfg = write_config(tmp_path, "c", dict(BASE))
        cli.main(["run", cfg, "--out", str(tmp_path / "out")])
        with open(tmp_path / "out" / "conj" / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["protocol"] == "closed_conjunction"
        assert summary["seeds"] == 5
        assert summary["bits"]["median"] == 60.0
        assert "wall_ms" in summary
        assert summary["params"] == {"n": 20, "k": 3, "eps": 0.05}

    def test_seed_range_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, "c", dict(BASE))
        cli.main(["run", cfg, "--seed-range", "10..12",
                  "--out", str(tmp_path / "out")])
        rows = read_csv(tmp_path / "out" / "conj" / "results.csv")
        assert [r[1] for r in rows[1:]] == ["10", "11", "12"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "c", dict(BASE))
        cli.main(["run", cfg, "--out", str(tmp_path / "a")])
        cli.main(["run", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "conj" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "conj" / "results.csv").read_bytes()
        assert a == b

    def test_adversarial_perceptron_writes_trace(self, tmp_path):
        cfg = write_config(tmp_path, "t", {"protocol": "adversarial_perceptron",
                                           "gamma": 0.1, "seeds": 0,
                                           "name": "appc"})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = read_csv(tmp_path / "out" / "appc" / "trace.csv")
        assert rows[0] == ["seed", "round", "player",
                           "x0", "x1", "x2", "w0", "w1", "w2"]
        assert rows[1][2] == "p1"
        assert [float(v) for v in rows[1][6:]] == pytest.approx(
            [1.0, 0.1, 0.1])

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "envout"))
        cfg = write_config(tmp_path, "c", dict(BASE))
        assert cli.main(["run", cfg]) == 0
        assert (tmp_path / "envout" / "conj" / "results.csv").exists()


class TestConfigValidation:
    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.yaml")]) == 2

    def test_unknown_protocol_lists_names(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c", {"protocol": "bogus"})
        assert cli.main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert "closed_conjunction" in err and "boosting" in err

    def test_bad_eps_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c", dict(BASE, eps=0))
        assert cli.main(["run", cfg]) == 2
        assert "eps" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        bad = dict(BASE)
        del bad["n"]
        cfg = write_config(tmp_path, "c", bad)
        assert cli.main(["run", cfg]) == 2
        assert "'n'" in capsys.readouterr().err

    def test_distribution_length_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c",
                           dict(BASE, distributions=[{}, {}]))
        assert cli.main(["run", cfg]) == 2

    def test_config_error_leaves_no_directory(self, tmp_path):
        bad = dict(BASE)
        del bad["n"]
        cfg = write_config(tmp_path, "c", bad)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_bad_seed_range(self, tmp_path):
        cfg = write_config(tmp_path, "c", dict(BASE))
        assert cli.main(["run", cfg, "--seed-range", "oops"]) == 2

    @pytest.mark.parametrize("seeds", [[], [5, 3]])
    def test_empty_seed_selection(self, tmp_path, seeds):
        cfg = write_config(tmp_path, "c", dict(BASE, seeds=seeds))
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg, field", [
        (dict(BOOST, beta="abc"), "beta"),
        ({"protocol": "robust_halving", "k": 2, "eps": 0.1, "grid": "many"},
         "grid"),
        (dict(BASE, seeds=[0, 1, "x"]), "seeds"),
        ({"protocol": "averaging", "d": 3, "eps": 0.1}, "k"),
        (dict(BASE, n=2, k=1, distributions=[
            {"kind": "point_mass", "probabilities": [1.0]}]), "points"),
        (dict(BASE, delta=2), "delta"),
        ({"protocol": "robust_halving", "k": 2, "eps": 0.1,
          "shared_randomness": "false"}, "shared_randomness"),
        (dict(BASE, eps=True), "eps"),
        (dict(BASE, privacy=3, protocol="private_conjunction"), "privacy"),
        (dict(BASE, n=-3), "n"),
        (dict(BOOST, q=-1), "q"),
        ({"protocol": "interval_summary", "d": 1, "k": 2, "eps": 0.1,
          "target": {"intervals": [[0.1]]}}, "target.intervals"),
        ({"protocol": "decision_list", "n": 5, "n_rules": 50, "k": 2,
          "eps": 0.1}, "n_rules"),
        ({"protocol": "robust_halving", "k": 2, "eps": 0.1, "grid": 0},
         "grid"),
        ({"protocol": "round_robin_perceptron", "k": 2, "per_player": 0},
         "per_player"),
        (dict(BASE, n=5, target={"variables": [7]}), "target.variables"),
        ({"protocol": "closed_box", "d": 2, "k": 1, "eps": 0.1,
          "target": {"lo": [0.1]}}, "target.lo"),
        (dict(BASE, k=1, distributions=[
            {"kind": "product_bernoulli", "p": 1.5}]), "p"),
        ({"protocol": "interval_summary", "d": 1, "k": 2, "eps": 0.1,
          "target": {"intervals": [[0.9, 0.1]]}}, "target.intervals"),
        ({"protocol": "closed_box", "d": 2, "k": 1, "eps": 0.1,
          "target": {"lo": [0.1, 0.8], "hi": [0.5, 0.2]}}, "target.lo"),
        ({"protocol": "closed_box", "d": 2, "k": 1, "eps": 0.1,
          "target": {"lo": [0.1, 0.8], "hi": [0.5, 0.2]}}, "target.hi"),
    ])
    def test_malformed_field_exits_2_naming_it(self, tmp_path, capsys, cfg,
                                               field):
        path = write_config(tmp_path, "c", cfg)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"'{field}'" in err and "Traceback" not in err
        assert not out.exists()

    def test_empty_target_variables_is_all_true_conjunction(
            self, tmp_path, monkeypatch):
        targets = []
        run = cli.closed.run_intersection_closed

        def recording_run(specs, f, *args, **kwargs):
            targets.append(f)
            return run(specs, f, *args, **kwargs)

        monkeypatch.setattr(cli.closed, "run_intersection_closed",
                            recording_run)
        cfg = write_config(tmp_path, "c", dict(BASE, n=6, seeds=0,
                                               target={"variables": []}))
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        assert [t.variables for t in targets] == [frozenset()]


class TestCompare:
    def test_identical_dirs_ratio_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c", dict(BASE))
        cli.main(["run", cfg, "--out", str(tmp_path / "a")])
        cli.main(["run", cfg, "--out", str(tmp_path / "b")])
        assert cli.main(["compare", str(tmp_path / "a" / "conj"),
                         str(tmp_path / "b" / "conj")]) == 0
        lines = capsys.readouterr().out.splitlines()
        table = lines[next(i for i, ln in enumerate(lines)
                           if ln.startswith("currency")) + 1:]
        assert len(table) == 3
        for line in table:
            assert line.split()[-1] == "1"

    def test_refuses_different_params(self, tmp_path, capsys):
        cfg_a = write_config(tmp_path, "a", dict(BASE))
        cfg_b = write_config(tmp_path, "b", dict(BASE, n=10, name="conj"))
        cli.main(["run", cfg_a, "--out", str(tmp_path / "a")])
        cli.main(["run", cfg_b, "--out", str(tmp_path / "b")])
        assert cli.main(["compare", str(tmp_path / "a" / "conj"),
                         str(tmp_path / "b" / "conj")]) == 2
        assert "parameters differ" in capsys.readouterr().err

    def test_missing_summary(self, tmp_path):
        assert cli.main(["compare", str(tmp_path), str(tmp_path)]) == 2


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().out
