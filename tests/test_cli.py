import csv
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from distpac import cli
from distpac.core import Conjunction, stream


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
# the protocols whose features are boolean, with a config small enough to run
BOOLEAN = {name: {"protocol": name, "n": 3, "k": 2, "eps": 0.2, "seeds": 0}
           for name in ("closed_conjunction", "parity_two_player",
                        "decision_list", "sample_shipping", "eq_conjunction",
                        "boosting", "private_conjunction")}
BOOLEAN["decision_list"]["n_rules"] = 2


INF, NAN = float("inf"), float("nan")


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

    def test_empty_env_root_is_ignored_under_an_explicit_root(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ROOT_ENV, "")
        path = write_config(tmp_path, "c", dict(BASE))
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "conj" / "results.csv").exists()

    def test_invariant_failure_exits_1_without_traceback(
            self, tmp_path, monkeypatch, capsys):
        # a broken center: the all-true conjunction labels every player's
        # negative examples positive, which the closure protocol's
        # consistency check must report as a protocol error
        monkeypatch.setattr(cli.closed, "combine",
                            lambda hs: Conjunction(hs[0].dim, frozenset()))
        cfg = write_config(tmp_path, "c", dict(BASE))
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("protocol error: combined hypothesis inconsistent "
                       "with a player's sample\n")
        assert not out.exists()

    def test_weight_underflow_exits_1_without_traceback(self, tmp_path,
                                                        capsys):
        # at eps = 0.001 a perfect stump drives every boosting weight to 0
        # before the last of its 56 rounds
        cfg = write_config(tmp_path, "b", dict(BOOST, n=4, eps=0.001))
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "protocol error: boosting round 55: every weight underflowed "
            "to 0\n")
        assert not out.exists()


    @pytest.mark.parametrize("message", [
        "Unable to allocate 3.64 TiB for an array with shape "
        "(500000000000, 1) and data type float64", ""])
    def test_memory_error_exits_3_without_traceback(
            self, tmp_path, monkeypatch, capsys, message):
        # seed 0 runs, seed 1 runs out of memory: nothing is written
        prepare = cli.PROTOCOLS["closed_conjunction"]

        def prepare_oom(cfg):
            job = prepare(cfg)

            def oom_job(seed):
                if seed == 1:
                    raise MemoryError(message)
                return job(seed)
            return oom_job

        monkeypatch.setitem(cli.PROTOCOLS, "closed_conjunction", prepare_oom)
        cfg = write_config(tmp_path, "c", dict(BASE, seeds=[0, 1]))
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == \
            f"out of memory: {message or 'MemoryError'}\n"
        assert not out.exists()


def numpy_quantiles(table):
    """Reference: the numpy calls ``cli._quantiles`` replaced."""
    cols = np.array(table, dtype=np.float64)
    return [{"median": float(med), "p90": float(p90)} for med, p90 in
            zip(np.median(cols, axis=0), np.percentile(cols, 90, axis=0))]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 60),
       st.sampled_from(["int", "float", "ties"]))
def test_property_quantiles_are_numpys(seed, rows, kind):
    rng = stream(seed, "quantile_table")
    if kind == "int":  # ledger counters
        table = rng.integers(0, 2 ** 40, size=(rows, 5)).tolist()
    elif kind == "float":  # errors, over several magnitudes
        table = (rng.random((rows, 5))
                 * 10.0 ** rng.integers(-6, 7, size=5)).tolist()
    else:
        table = rng.choice([0.0, 0.05, 0.1, 1 / 3, 0.5, 1.0],
                           size=(rows, 5)).tolist()
    # repr tells every float bit apart, -0.0 from 0.0 included
    assert repr(cli._quantiles(table)) == repr(numpy_quantiles(table))


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
        ({"protocol": "interval_summary", "d": 1, "k": 2, "eps": 0.1,
          "noise_rat": 0.3}, "noise_rat"),
        ({"protocol": "interval_summary", "d": 1, "k": 2, "eps": 0.1,
          "distributions": point_mass([[0.5]], [1.0]) + [{"kind": "bogus"}]},
         "distributions"),
        (dict(BASE, k=1, distributions=[
            {"kind": "uniform_boolean", "p": 0.3}]), "distributions[0].p"),
        ({"protocol": "private_conjunction", "n": 4, "k": 2, "eps": 0.1,
          "privacy": {"alfa": 0.5}}, "privacy.alfa"),
        (dict(BOOST, seeds=[0, 1], target={"variables": [1]}),
         "target"),
        # without the misspelt alpha the run is a protocol error (exit 1)
        ({"protocol": "round_robin_perceptron", "k": 2, "gamma": 0.5,
          "alfa": 0.5}, "alfa"),
        # streams keep a seed's low 64 bits: these would replay other seeds
        (dict(BASE, seeds=-1), "seeds"),
        (dict(BASE, seeds=[2 ** 64 - 2, 2 ** 64]), "seeds"),
        (dict(BASE, seeds=[3, 2 ** 64 + 7, 5]), "seeds"),
        # k sizes the error columns, yet this protocol never reads it
        ({"protocol": "adversarial_perceptron", "gamma": 0.1, "k": 5}, "k"),
        # the update cap divides by gamma^2
        ({"protocol": "round_robin_perceptron", "k": 2, "gamma": 0.0},
         "gamma"),
        ({"protocol": "robust_halving", "k": 2, "eps": 0.1,
          "noise_rate": 1.5}, "noise_rate"),
        ({"protocol": "interval_summary", "d": 1, "k": 2, "eps": 0.1,
          "noise_rate": -0.5}, "noise_rate"),
        (dict(BOOST, beta=0.7), "beta"),
        ({"protocol": "private_conjunction", "n": 4, "k": 2, "eps": 0.1,
          "privacy": {"mode": "bogus"}}, "privacy.mode"),
        # these ran (exit 0) or failed inside the protocol (exit 1)
        (dict(BASE, c=-1.0), "c"),
        (dict(BOX1, c=0.0), "c"),
        ({"protocol": "parity_two_player", "n": 8, "k": 2, "eps": 0.1,
          "c": 0.0}, "c"),
        ({"protocol": "round_robin_perceptron", "k": 2, "alpha": -1}, "alpha"),
        ({"protocol": "private_conjunction", "n": 4, "k": 2, "eps": 0.1,
          "privacy": {"alpha": 0}}, "privacy.alpha"),
        ({"protocol": "private_conjunction", "n": 4, "k": 2, "eps": 0.1,
          "privacy": {"delta": 2.0}}, "privacy.delta"),
        # real features for a boolean protocol: these ran (exit 0) or failed
        # inside the protocol after a seed ran (exit 1)
        *[(dict(cfg, distributions=[{"kind": "uniform_sphere"}] * 2), "kind")
          for cfg in BOOLEAN.values()],
        *[(dict(cfg, n=1, distributions=[{"kind": "uniform_interval"}] * 2),
           "kind") for cfg in BOOLEAN.values()],
        *[(dict(cfg, n=2, distributions=point_mass(
            [[0.0, 1.0], [0.5, 1.0]], [0.5, 0.5]) * 2), "points")
          for cfg in BOOLEAN.values()],
        (dict(BOOLEAN["decision_list"], n=2, distributions=point_mass(
            [[1.0, float("nan")]], [1.0]) * 2), "points"),
        (dict(BOOLEAN["boosting"], n=2, distributions=point_mass(
            [[2.0, 1.0]], [1.0]) * 2), "points"),
        # a 0/1 point mass is no product distribution, which the private
        # learner needs; this failed inside the protocol (exit 1)
        (dict(BOOLEAN["private_conjunction"], distributions=point_mass(
            [[-0.0, 1.0, 0.0], [1.0, 1.0, 1.0]], [0.5, 0.5]) * 2), "kind"),
        # these protocols size nothing with delta; they ran (exit 0)
        *[(dict(cfg, delta=0.05), "delta") for cfg in (
            BOOLEAN["parity_two_player"], BOOLEAN["sample_shipping"],
            {"protocol": "averaging", "d": 3, "k": 2, "eps": 0.2},
            {"protocol": "robust_halving", "k": 2, "eps": 0.1, "grid": 21},
            BOOLEAN["private_conjunction"])],
        # YAML's .inf and .nan are floats, but no float field takes them;
        # these raised a traceback (exit 1)
        (dict(BASE, c=INF), "c"),
        (dict(BOX1, distributions=[
            {"kind": "uniform_interval", "lo": -INF}]), "lo"),
        (dict(BOX1, distributions=point_mass([[0.5]], [NAN])),
         "probabilities"),
        # ... these ran with a meaningless value (exit 0)
        ({"protocol": "private_conjunction", "n": 4, "k": 2, "eps": 0.1,
          "privacy": {"alpha": INF}}, "privacy.alpha"),
        ({"protocol": "robust_halving", "k": 2, "eps": 0.1, "grid": 21,
          "target_t": NAN}, "target_t"),
        ({"protocol": "interval_summary", "d": 1, "k": 2, "eps": 0.1,
          "target": {"intervals": [[NAN, 0.5]]}}, "target.intervals"),
        ({"protocol": "closed_box", "d": 1, "k": 1, "eps": 0.1,
          "target": {"lo": [NAN]}}, "target.lo"),
        (dict(BOX1, distributions=point_mass([[NAN]], [1.0])), "points"),
        # ... and this one failed after 10 000 meta-rounds (exit 1)
        ({"protocol": "round_robin_perceptron", "k": 2, "alpha": INF},
         "alpha"),
        # the protocol is for two players; this failed in the first job
        (dict(BOOLEAN["parity_two_player"], k=3), "k"),
        # gamma^2 underflows to 0, or 30/gamma^2 overflows the update cap
        ({"protocol": "round_robin_perceptron", "k": 2, "gamma": 1.0e-300},
         "gamma"),
        ({"protocol": "round_robin_perceptron", "k": 2, "gamma": 1.0e-160},
         "gamma"),
        # read and checked although --out overrides it
        (dict(BASE, out=""), "out"), (dict(BASE, out=3), "out"),
        (dict(BOX1, out=""), "out"),
        # a sample size the fields give that cannot be drawn: the first job
        # raised a traceback, ZeroDivisionError where eps^2 underflows ...
        *[(dict(cfg, eps=1.0e-300), "eps") for cfg in (
            {"protocol": "averaging", "d": 3, "k": 2},
            BOOLEAN["private_conjunction"],
            {"protocol": "robust_halving", "k": 2})],
        # ... and numpy's "Maximum allowed dimension exceeded" ValueError
        *[(dict(cfg, eps=1.0e-300), "eps") for cfg in (
            BOOLEAN["closed_conjunction"], BOX1, BOOLEAN["parity_two_player"],
            BOOLEAN["decision_list"], BOOLEAN["sample_shipping"],
            BOOLEAN["eq_conjunction"], BOOLEAN["boosting"],
            {"protocol": "interval_summary", "d": 1, "k": 2})],
        *[(dict(cfg, c=1.0e300), "c") for cfg in (
            BOOLEAN["closed_conjunction"], BOX1,
            BOOLEAN["parity_two_player"])],
        # ... or OverflowError, from a weak-learner or private sample size
        (dict(BOOLEAN["boosting"], beta=1.0e-300), "beta"),
        (dict(BOOLEAN["private_conjunction"], privacy={"alpha": 1.0e-300}),
         "privacy.alpha"),
        # an empty point mass: numpy's AxisError for a boolean protocol
        *[(dict(cfg, distributions=point_mass([], []) * 2), "points")
          for cfg in BOOLEAN.values()],
    ])
    def test_malformed_field_exits_2_naming_it(self, tmp_path, capsys, cfg,
                                               field):
        path = write_config(tmp_path, "c", cfg)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"'{field}'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("lo, hi", [(-1.0e308, 1.0e308),
                                        (-1.7e308, 2.0e307)])
    def test_uniform_interval_range_overflow_exits_2(self, tmp_path, capsys,
                                                     lo, hi):
        # numpy's uniform raised OverflowError: a traceback, exit 1
        path = write_config(tmp_path, "c", dict(BOX1, distributions=[
            {"kind": "uniform_interval", "lo": lo, "hi": hi}]))
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'lo'" in err and "'hi'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../../x", "a/../../x", "ABSOLUTE",
                                      "", "."])
    def test_name_not_under_the_output_root_exits_2(self, tmp_path, capsys,
                                                    name):
        name = str(tmp_path / "abs") if name == "ABSOLUTE" else name
        path = write_config(tmp_path, "c", dict(BASE, name=name))
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["run", path, "--out",
                         str(tmp_path / "a" / "b" / "out")]) == 2
        err = capsys.readouterr().err
        assert "'name'" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("name",
                             sorted(set(BOOLEAN) - {"private_conjunction"}))
    def test_boolean_point_mass_still_runs(self, tmp_path, name):
        cfg = dict(BOOLEAN[name], distributions=point_mass(
            [[-0.0, 1.0, 0.0], [1.0, 1.0, 1.0]], [0.5, 0.5]) * 2)
        path = write_config(tmp_path, "c", cfg)
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("seed_range", [
        "-1..-1", "-3..2", f"{2 ** 64 - 1}..{2 ** 64}",
        f"{2 ** 64 + 7}..{2 ** 64 + 7}"])
    def test_seed_range_outside_64_bits_exits_2(self, tmp_path, capsys,
                                                 seed_range):
        path = write_config(tmp_path, "c", dict(BASE))
        out = tmp_path / "out"
        assert cli.main(["run", path, f"--seed-range={seed_range}",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--seed-range" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cfg_out, flags, env, named", [
        (None, ["--out", ""], None, "--out"), ("", [], None, "'out'"),
        # this one wrote conj/ straight into the working directory
        (None, [], "", cli.OUT_ROOT_ENV)],
        ids=["flag", "config", "env"])
    def test_empty_output_root_exits_2(self, tmp_path, capsys, monkeypatch,
                                       cfg_out, flags, env, named):
        cfg = dict(BASE) if cfg_out is None else dict(BASE, out=cfg_out)
        path = write_config(tmp_path, "c", cfg)
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv(cli.OUT_ROOT_ENV, raising=False)
        else:
            monkeypatch.setenv(cli.OUT_ROOT_ENV, env)
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["run", path, *flags]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_sample_size_numpy_can_index_is_accepted(self):
        # about 5e11 examples per boosting round: a memory error if run, but
        # within numpy's index range, so validation accepts it
        job = cli.PROTOCOLS["boosting"](dict(BOOST, beta=1.0e-9))
        assert callable(job)

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


class TestValidationBeforeAnyJob(TestConfigValidation):
    """Every case above with jobs that fail if called: a config is rejected
    before any seed runs."""

    @pytest.fixture(autouse=True)
    def refusing_jobs(self, monkeypatch):
        def refusing(prepare):
            def prepare_only(cfg):
                prepare(cfg)

                def job(seed):
                    raise AssertionError(f"seed {seed} ran before the "
                                         "config was rejected")
                return job
            return prepare_only
        for name, prepare in list(cli.PROTOCOLS.items()):
            monkeypatch.setitem(cli.PROTOCOLS, name, refusing(prepare))

    # run a job on purpose
    test_empty_target_variables_is_all_true_conjunction = None
    test_boolean_point_mass_still_runs = None


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
    job = cli.PROTOCOLS[name](TINY[name])
    ledger = job(0).ledger.to_dict()
    assert job(0).ledger.to_dict() == ledger
    assert ledger["bits"] == sum(ledger["per_player"].values())


@pytest.mark.parametrize("name", [
    "closed_conjunction", "closed_box", "parity_two_player", "decision_list",
    "sample_shipping", "averaging", "boosting", "private_conjunction"])
def test_checked_sizes_are_the_run_sizes(name):
    # TABLE checks a config's sample sizes with the functions the job calls,
    # so what it checks is what one run reports it drew
    job = cli.PROTOCOLS[name](TINY[name])
    values = job.args[0]
    checked = [size(*(values[field] for field in names.split()))
               for names, size, *_ in cli.TABLE[name][1]]
    meta = job(0).meta
    assert sorted(checked) == sorted(
        value for key, value in meta.items() if key.startswith("m_"))
    assert meta["m_per_player"] in checked


def test_q_from_52_is_exact(tmp_path):
    # 2^(q + 1) overflowed a float: OverflowError from q = 1023
    path = write_config(tmp_path, "b", dict(BOOST, q=2000))
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 0


# Edge values that end in a documented exit, but too slowly for tier-1: the
# adversarial construction runs to its 200 000-round cap (about 5 s) first.
SLOW_EDGES = {("adversarial_perceptron", "gamma", 1.0e-300)}


# candidates just outside a declared range: a field takes those its kind's
# ``ok`` rejects
OUTSIDE = {float: [-1.0e-300, 0.0, 0.5, 1.0], int: [0]}


def edge_configs(name):
    """(field, value, config): TINY[name] with one declared numeric field at
    an edge: just outside its range, 1e-300 and 1e300 for a float, 1 and 2
    for an int."""
    for field in cli.TABLE[name][0]:
        if field.kind.typ not in (float, int, (int, type(None))):
            continue
        typ = float if field.kind.typ is float else int
        ok = field.kind.ok or (lambda _value: True)
        values = [x for x in OUTSIDE[typ] if not ok(x)] + (
            [1.0e-300, 1.0e300] if typ is float else [1, 2])
        for value in values:
            head, _, leaf = field.name.rpartition(".")
            edge = {head: {leaf: value}} if head else {leaf: value}
            yield field.name, value, dict(TINY[name], protocol=name, seeds=0,
                                          **edge)


def test_slow_edges_are_edges():
    assert SLOW_EDGES <= {(name, field, value) for name in cli.PROTOCOLS
                          for field, value, _cfg in edge_configs(name)}


@pytest.mark.parametrize("name", list(cli.PROTOCOLS))
def test_edge_values_end_in_a_documented_exit(name, tmp_path, capsys):
    """Exit 0, 1 or 2 and no traceback; exit 1 prints one protocol error
    line; a run that exits non-zero writes nothing."""
    bad = []
    for field, value, cfg in edge_configs(name):
        if (name, field, value) in SLOW_EDGES:
            continue
        path = write_config(tmp_path, "edge", cfg)
        out = tmp_path / "out"
        try:
            code = cli.main(["run", path, "--out", str(out)])
        except Exception as exc:  # a traceback, for a user
            code = repr(exc)
        err = capsys.readouterr().err
        one_line = len(err.splitlines()) == 1 and \
            err.startswith("protocol error: ")
        if code not in (0, 1, 2) or "Traceback" in err or \
                code == 1 and not one_line or code and out.exists():
            bad.append((field, value, code, err))
        if out.exists():
            shutil.rmtree(out)
    assert bad == []


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().out
