import csv
import json
import re
from pathlib import Path

import numpy as np
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
BOX1 = {"protocol": "closed_box", "d": 1, "k": 1, "eps": 0.1, "seeds": 0}


def point_mass(points, probabilities):
    return [{"kind": "point_mass", "points": points,
             "probabilities": probabilities}]


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

    def test_summary_quantiles_are_those_of_results_csv(self, tmp_path):
        cfg = write_config(tmp_path, "h", {
            "protocol": "robust_halving", "k": 2, "eps": 0.1, "grid": 21,
            "noise_rate": 0.05, "seeds": [0, 4], "name": "halving",
            "distributions": [{"kind": "uniform_interval"}] * 2})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = read_csv(tmp_path / "out" / "halving" / "results.csv")
        with open(tmp_path / "out" / "halving" / "summary.json") as fh:
            summary = json.load(fh)
        assert len(rows) == 6
        for j, col in enumerate(rows[0]):
            if col not in ("bits", "examples", "hypotheses", "rounds",
                           "meta_rounds", "error_mixture"):
                continue
            vals = [float(r[j]) for r in rows[1:]]
            # results.csv keeps 12 significant digits of an error
            exact = {} if col == "error_mixture" else {"rel": 0, "abs": 0}
            assert summary[col] == {
                "median": pytest.approx(np.median(vals), **exact),
                "p90": pytest.approx(np.percentile(vals, 90), **exact)}
        assert len({r[2] for r in rows[1:]}) > 1  # the bits column varies

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

    @pytest.mark.parametrize("text", [
        b"protocol: closed_conjunction\nn: 20\nk: 3\neps: 0.05\n"
        b"seeds: [0, 4\n",
        b"protocol: closed_conjunction\nn: 20\ntarget:\n\tvariables: []\n",
        b"protocol: closed_conjunction\nname: \xff\xfe\n",
    ], ids=["unclosed-flow-sequence", "tab-indented-key", "not-utf-8"])
    def test_malformed_yaml_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "malformed config" in err and "Traceback" not in err
        assert not out.exists()

    def test_cli_loader_parses_like_safe_loader(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
        text = example + ('tiny: 1e-3\nquoted: "false"\nhex: 0x10\n'
                          "word: yes\nnothing: ~\n")
        parsed = yaml.load(text, Loader=cli.YAML_LOADER)
        assert parsed == yaml.load(text, Loader=yaml.SafeLoader)
        assert parsed["seeds"] == [0, 99] and parsed["eps"] == 0.05
        assert [parsed[key] for key in
                ("tiny", "quoted", "hex", "word", "nothing")] == [
            "1e-3", "false", 16, True, None]

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
        (dict(BOX1, distributions=point_mass([[0.1], [0.5, 0.2]],
                                             [0.5, 0.5])), "points"),
        (dict(BOX1, distributions=point_mass([[0.1, 0.2]], [1.0])),
         "points"),
        (dict(BOX1, distributions=point_mass([[0.1], [0.6]], [0.5, 0.4])),
         "probabilities"),
        (dict(BOX1, distributions=point_mass([[0.1], [0.6]], [1.5, -0.5])),
         "probabilities"),
        (dict(BOX1, distributions=point_mass([[0.1], [0.6]], [1.0])),
         "probabilities"),
        (dict(BOX1, distributions=[
            {"kind": "uniform_interval", "lo": 0.5, "hi": 0.5}]), "lo"),
        (dict(BASE, n=5, k=1, distributions=[{"kind": "uniform_interval"}]),
         "kind"),
        (dict(BASE, n=5, k=1, distributions=[
            {"kind": "product_bernoulli", "p": [0.5, 0.5]}]), "p"),
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

    @pytest.mark.parametrize("text", [
        "{not json", '{"params": {}, "bits": {"median": 1.0}}',
    ], ids=["not-json", "no-examples-entry"])
    def test_unreadable_summary_exits_2_naming_it(self, tmp_path, capsys,
                                                  text):
        cfg = write_config(tmp_path, "c", dict(BASE))
        cli.main(["run", cfg, "--out", str(tmp_path / "a")])
        bad = tmp_path / "b" / "summary.json"
        bad.parent.mkdir()
        bad.write_text(text)
        assert cli.main(["compare", str(tmp_path / "a" / "conj"),
                         str(bad.parent)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err


# Every protocol at tiny sizes.  results.csv has no per-party columns, so
# the goldens cannot see a ledger whose total and split disagree.
TINY = {
    "closed_conjunction": {"n": 8, "k": 2, "eps": 0.2},
    "closed_box": {"d": 2, "k": 2, "eps": 0.2},
    "parity_two_player": {"n": 8, "k": 2, "eps": 0.2},
    "decision_list": {"n": 6, "k": 2, "eps": 0.2, "n_rules": 4},
    "sample_shipping": {"n": 8, "k": 2, "eps": 0.2},
    "eq_conjunction": {"n": 8, "k": 2, "eps": 0.2},
    "averaging": {"d": 3, "k": 2, "eps": 0.2},
    "round_robin_perceptron": {"k": 2, "per_player": 10},
    "adversarial_perceptron": {"gamma": 0.2},
    "boosting": {"n": 6, "k": 2, "eps": 0.3},
    "robust_halving": {"k": 2, "eps": 0.05, "noise_rate": 0.1, "grid": 51,
                       "distributions": [{"kind": "uniform_interval"}] * 2},
    "interval_summary": {"d": 1, "k": 2, "eps": 0.2, "m_per_player": 100},
    "private_conjunction": {"n": 6, "k": 2, "eps": 0.2},
}
RESCALED = pytest.mark.xfail(
    strict=True, reason="opt_search multiplies bits by the guesses tried "
    "but leaves per_player unscaled (ROADMAP item 1)")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=RESCALED if name == "robust_halving" else ())
    for name in cli.PROTOCOLS])
def test_ledger_bits_are_per_player_sum_and_replay(name):
    runner = cli.PROTOCOLS[name]
    ledger = runner(TINY[name], 0).ledger.to_dict()
    assert runner(TINY[name], 0).ledger.to_dict() == ledger
    assert ledger["bits"] == sum(ledger["per_player"].values())


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().out
