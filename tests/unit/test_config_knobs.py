"""Every cluster knob is declared once: as a ``SimulationConfig`` field.

A knob reaches the component that reads it inside the config, whole, so
a new knob needs its field and, if a command exposes it, one row of the
CLI's flag table; never a parameter at every layer it passes.  Three
checks keep it that way:

* in ``cli.py`` every ``add_argument`` whose destination is a config
  field comes from ``CONFIG_FLAGS`` (the one ``add_argument`` inside
  ``add_config_flags``), and every table row names a field;
* no function in ``analysis/experiments.py`` that builds a cluster run
  (calls ``SimulationConfig``, ``replace`` or ``open_loop_client``) takes
  a parameter that sets a config field, apart from
  :data:`DRIVER_ALLOWLIST`.  A parameter sets a field when it is named
  like one, or when it is passed bare as a ``SimulationConfig(...)`` or
  ``replace(...)`` keyword;
* every ``python -m repro.cli ...`` line in README.md parses.
"""

from __future__ import annotations

import ast
import dataclasses
import shlex
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from repro.cli import CONFIG_FLAGS, build_parser
from repro.config import SimulationConfig

REPO_ROOT = Path(__file__).resolve().parents[2]
CLI_PATH = REPO_ROOT / "src" / "repro" / "cli.py"
EXPERIMENTS_PATH = REPO_ROOT / "src" / "repro" / "analysis" / "experiments.py"

FIELDS = {field.name for field in dataclasses.fields(SimulationConfig)}

#: Functions of ``analysis/experiments.py`` whose parameters may set a
#: config field, each with its reason.
DRIVER_ALLOWLIST = {
    "measure_throughput": "the paper's single-box throughput (§5.3) at a "
                          "given core and container count",
}

#: The calls through which a function builds a cluster run.
CONFIG_BUILDERS = {"SimulationConfig", "replace", "open_loop_client"}


def _functions(tree: ast.AST) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Every function, nested ones too, with its dotted name."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                yield name, child
                yield from walk(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _parameters(function: ast.FunctionDef) -> Set[str]:
    arguments = function.args
    every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
    return {argument.arg for argument in every} - {"self", "cls"}


def _calls(function: ast.FunctionDef) -> Iterator[Tuple[str, ast.Call]]:
    """Every call in ``function``, with the name it calls."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            yield called, node


def _config_keyword_names(function: ast.FunctionDef) -> Set[str]:
    """Bare names passed as a config field to ``SimulationConfig``/``replace``."""
    return {
        keyword.value.id
        for called, call in _calls(function)
        if called in ("SimulationConfig", "replace")
        for keyword in call.keywords
        if keyword.arg in FIELDS and isinstance(keyword.value, ast.Name)
    }


def knob_parameters(source: str) -> Dict[str, List[str]]:
    """Each cluster-building function's parameters that set a config field."""
    found = {}
    for name, function in _functions(ast.parse(source)):
        if not CONFIG_BUILDERS & {called for called, _ in _calls(function)}:
            continue
        parameters = _parameters(function)
        setters = (parameters & FIELDS) | (parameters & _config_keyword_names(function))
        if setters:
            found[name] = sorted(setters)
    return found


def _literal_dest(call: ast.Call) -> str:
    """The destination argparse gives ``call``, or ``""`` when not literal."""
    for keyword in call.keywords:
        if keyword.arg == "dest":
            value = keyword.value
            return value.value if isinstance(value, ast.Constant) else ""
    flags = [
        arg.value for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]
    if len(flags) != len(call.args) or not flags:
        return ""
    longs = [flag for flag in flags if flag.startswith("--")]
    chosen = longs[0] if longs else flags[0]
    return chosen.lstrip("-").replace("-", "_")


def hand_declared_knobs(source: str) -> List[str]:
    """``add_argument`` calls outside ``add_config_flags`` that set a field.

    A call whose destination is not a literal is reported too: it could
    hide one.
    """
    table_calls = set()
    tree = ast.parse(source)
    for name, function in _functions(tree):
        if name == "add_config_flags":
            table_calls.update(id(node) for node in ast.walk(function))
    problems = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
        ) or id(node) in table_calls:
            continue
        dest = _literal_dest(node)
        if not dest:
            problems.append(f"line {node.lineno}: flag or dest is not a literal")
        elif dest in FIELDS:
            problems.append(f"line {node.lineno}: declares {dest} by hand")
    return problems


def _readme_commands() -> Iterator[List[str]]:
    """The argv of every ``python -m repro.cli`` line in README.md."""
    lines = (REPO_ROOT / "README.md").read_text().splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        while line.endswith("\\") and index + 1 < len(lines):
            index += 1
            line = line[:-1] + " " + lines[index].strip()
        index += 1
        if "python -m repro.cli" in line:
            words = shlex.split(line.split("python -m repro.cli", 1)[1], comments=True)
            yield words


class TestCliFlagTable:
    def test_every_table_row_names_a_field(self):
        fields = [field for field, _ in CONFIG_FLAGS.values()]
        assert set(fields) <= FIELDS, sorted(set(fields) - FIELDS)
        assert len(fields) == len(set(fields)), "two rows set one field"

    def test_config_fields_are_declared_only_by_the_table(self):
        assert hand_declared_knobs(CLI_PATH.read_text()) == []

    def test_every_parsed_config_flag_is_its_table_row(self):
        flag_of = {field: flag for flag, (field, _) in CONFIG_FLAGS.items()}
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if action.dest == "command"
        )
        for command, subparser in subparsers.choices.items():
            for action in subparser._actions:
                if action.dest in FIELDS:
                    assert action.option_strings == [flag_of[action.dest]], (
                        command, action.option_strings
                    )

    def test_a_hand_written_knob_flag_is_caught(self):
        source = CLI_PATH.read_text().replace(
            'add_config_flags(perf_parser, "--seed")',
            'perf_parser.add_argument("--seed", type=int, default=20230501)',
        )
        assert source != CLI_PATH.read_text()
        assert hand_declared_knobs(source) != []


class TestDriverParameters:
    def test_no_driver_parameter_sets_a_config_field(self):
        found = knob_parameters(EXPERIMENTS_PATH.read_text())
        unexpected = {
            name: setters for name, setters in found.items()
            if name not in DRIVER_ALLOWLIST
        }
        assert unexpected == {}

    def test_the_allowlist_is_still_needed(self):
        found = knob_parameters(EXPERIMENTS_PATH.read_text())
        assert set(DRIVER_ALLOWLIST) <= set(found), sorted(
            set(DRIVER_ALLOWLIST) - set(found)
        )

    def test_a_knob_parameter_is_caught(self):
        source = EXPERIMENTS_PATH.read_text().replace(
            "    forecast_cycles: int = 3,\n",
            "    forecast_cycles: int = 3,\n    restorable_snapshots: bool = False,\n",
            1,
        )
        assert source != EXPERIMENTS_PATH.read_text()
        assert knob_parameters(source)["run_slo_control"] == ["restorable_snapshots"]


def test_every_readme_command_parses(tmp_path, monkeypatch):
    # The README names trace files a reader downloads; stand empty ones in.
    monkeypatch.chdir(tmp_path)
    commands = list(_readme_commands())
    assert len(commands) >= 20
    parser = build_parser()
    for argv in commands:
        if "--trace-file" in argv:
            (tmp_path / argv[argv.index("--trace-file") + 1]).touch()
        parser.parse_args(argv)
