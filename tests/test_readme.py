"""README's promises, checked: each protocol's field row, rendered from the
CLI's field table, its spelled-out defaults, and the quick start."""

import ast
import re
from pathlib import Path

import pytest
import yaml

from distpac import cli
from test_cli import TINY, write_config

README = (Path(__file__).parents[1] / "README.md").read_text()
# *setup* in a protocol's row stands for these fields
SETUP = {"eps", "k", "distributions"}
# one or more backticked names before a colon: `a`: or `a`, `b`:
NAMES = re.compile(r"((?:`[\w.]+`, )*`[\w.]+`): ")


def protocol_rows() -> dict:
    """name -> (required, optional) cells of README's per-protocol table."""
    rows = {}
    for line in README.splitlines():
        m = re.fullmatch(r"\| `(\w+)` \| (.*) \| (.*) \|", line)
        if m and m.group(1) in cli.PROTOCOLS:
            rows[m.group(1)] = m.group(2), m.group(3)
    return rows


ROWS = protocol_rows()


def field_names(cell: str) -> list:
    """The field names a README cell documents, *setup* expanded."""
    names = [name for group in NAMES.findall(cell)
             for name in re.findall(r"`([\w.]+)`", group)]
    return names + sorted(SETUP) * ("*setup*" in cell)


def readme_defaults(name: str, cfg: dict) -> dict:
    """Dotted field -> the default README spells out in backticks after
    ``=``, a YAML value or a Python expression in the config's ``d``."""
    out = {}
    for segment in ROWS[name][1].split("; "):
        _, eq, default = segment.rpartition(" = ")
        if not eq or not default.startswith("`"):
            continue  # no default, or one in words
        for field, tok in zip(field_names(segment),
                              re.findall(r"`([^`]+)`", default)):
            try:
                out[field] = yaml.safe_load(tok)
            except yaml.YAMLError:
                out[field] = eval(tok, {"d": cfg.get("d")})
    return out


def nested(dotted: dict) -> dict:
    cfg = {}
    for name, value in dotted.items():
        *parents, leaf = name.split(".")
        node = cfg
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return cfg


def test_every_protocol_has_a_row():
    assert sorted(ROWS) == sorted(cli.PROTOCOLS)


def rendered_row(name: str) -> str:
    """README's row for protocol ``name``, rendered from ``cli.TABLE``: its
    required fields, with eps, k and distributions as *setup*, then its
    optional ones with their defaults, in read order."""
    fields = cli.TABLE[name][0]
    setup = "distributions" in [f.name for f in fields]
    required, optional = [], []
    for f in fields:
        if setup and f.name in SETUP:
            if f.name == "distributions":
                kind = f.default({"k": 1})[0]["kind"]
                required.append("*setup*" if kind == "uniform_boolean" else
                                f"*setup*, default kind `{kind}`")
            continue
        text = f"`{f.name}`: {f.doc or f.kind.doc}"
        if f.default is cli.REQUIRED:
            required.append(text)
        else:
            default = str(f.default).lower() \
                if isinstance(f.default, bool) else f.default
            optional.append(f"{text} = {f.shown or f'`{default}`'}")
    return (f"| `{name}` | {', '.join(required) or 'none'} | "
            f"{'; '.join(optional) or 'none'} |")


@pytest.mark.parametrize("name", sorted(cli.PROTOCOLS))
def test_protocol_row_is_rendered(name):
    """README's row lists the declared fields, kinds and defaults."""
    assert f"| `{name}` | {' | '.join(ROWS[name])} |" == rendered_row(name)


@pytest.mark.parametrize("name", sorted(cli.PROTOCOLS))
def test_spelled_out_defaults_change_nothing(name, tmp_path):
    required = set(field_names(ROWS[name][0]))
    bare = {"protocol": name, "seeds": [0, 1],
            **{k: v for k, v in TINY[name].items() if k in required}}
    spelled = dict(bare, **nested(readme_defaults(name, bare)))
    assert spelled != bare or name in ("sample_shipping", "averaging")
    outputs = []
    for label, cfg in (("bare", bare), ("spelled", spelled)):
        path = write_config(tmp_path, label, cfg)
        assert cli.main(["run", path, "--out", str(tmp_path / label)]) == 0
        outputs.append((tmp_path / label / name / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_quick_start_runs_and_prints_its_ledger(capsys):
    code = re.search(r"## Quick start\n\n```python\n(.*?)```", README,
                     re.S).group(1)
    exec(code, {})
    printed = ast.literal_eval(capsys.readouterr().out.splitlines()[0])
    # the comment's dict, before its closing "..."
    promised = ast.literal_eval(
        re.search(r"# (\{.*), \.\.\.\}", code).group(1) + "}")
    assert promised["bits"] == 150
    assert promised.items() <= printed.items()
