import importlib
import inspect
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

import fadeid
from fadeid.estimator import EstimatorConfig
from fadeid.expcli import main, spec_from_dict

README = (Path(__file__).parents[1] / "README.md").read_text()


def block(lang: str, after: str = "") -> str:
    """The first ```lang block of README.md after the line ``after``."""
    start = README.index(after) if after else 0
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    """README's first python block (the library quick start) runs as written."""
    exec(compile(block("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.split()[-1] == "True"  # res.converged


def test_sweep_config_loads():
    # loaded only: its 125 cells at M = 31501 are a study, not a test
    spec = spec_from_dict(yaml.safe_load(block("yaml", "## Command line")))
    assert spec.grid_points == 31501
    assert len(spec.noise_levels) * len(spec.n_list) * len(spec.L1_list) * len(spec.seeds) == 125


ESTIMATE_LINES = [shlex.split(line, comments=True)
                  for line in block("sh", "## Command line").splitlines()
                  if line.startswith("fadeid estimate")]


@pytest.mark.parametrize("argv", ESTIMATE_LINES, ids=" ".join)
def test_estimate_command_runs(argv, capsys):
    assert main([*argv[1:], "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_estimate_lines_found():
    assert ESTIMATE_LINES  # with none, the test above would be skipped, not failed


def test_knob_sentence_names_every_config_field():
    """The "`EstimatorConfig` knobs:" sentence names exactly its fields, in order."""
    sentence = README.split("`EstimatorConfig` knobs:")[1].split(". ")[0]
    named = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", sentence))
    assert named == [f.name for f in fields(EstimatorConfig)]


#: the Contents of each module's row in the "Package layout" table
LAYOUT = dict(re.findall(r"^\| `(fadeid\.\w+)` \| (.*) \|$", README, re.MULTILINE))
ARG = r"\w+(?:=[\w.]+)?"
#: (module, name, args) of each `name(args)` in a row, args identifiers with optional defaults
SIGNATURES = [(module, name, args) for module, row in LAYOUT.items()
              for name, args in re.findall(rf"`([A-Za-z_]\w*)\(((?:{ARG}(?:, {ARG})*)?)\)`", row)]


def defined_in(module: str, name: str):
    """``name`` defined at the module level of ``module`` or as a method of one of its classes."""
    mod = importlib.import_module(module)
    obj = getattr(mod, name, None)
    if getattr(obj, "__module__", None) == module:
        return obj
    methods = [cls.__dict__[name] for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__module__ == module and name in cls.__dict__]
    assert methods, f"README names {name}(...) in {module}, which defines no {name}"
    return methods[0]


@pytest.mark.parametrize("module,name,args", SIGNATURES,
                         ids=[f"{module}.{name}" for module, name, _ in SIGNATURES])
def test_layout_signature_matches_code(module, name, args):
    """Each `name(args)` of the Package layout table names the code's parameters."""
    params = [p for p in inspect.signature(defined_in(module, name)).parameters if p != "self"]
    assert [arg.split("=")[0] for arg in args.split(", ") if arg] == params


def test_layout_rows_cover_every_module():
    modules = {f"fadeid.{p.stem}" for p in Path(fadeid.__file__).parent.glob("*.py")}
    assert set(LAYOUT) == modules - {"fadeid.__init__"}
    assert SIGNATURES  # with none, the test above would be skipped, not failed
