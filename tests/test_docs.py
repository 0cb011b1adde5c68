"""The README's name lists follow the registries they document."""
import pathlib
import re

from coreclust.algorithms import ALGORITHMS
from coreclust.bench import SUITES
from coreclust.instance import GENERATORS

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _listed(start: str, end: str):
    """Backticked names between the labels `start` and `end` in the README."""
    text = README.split(start, 1)[1].split(end, 1)[0]
    return re.findall(r"`([^`]+)`", text)


def test_readme_generators():
    assert _listed("Generators:", "Algorithms:") == list(GENERATORS)


def test_readme_algorithms():
    assert _listed("Algorithms:", "Verification suites:") == list(ALGORITHMS)


def test_readme_suites():
    assert _listed("Verification suites:", "\n\n") == list(SUITES)


def test_readme_cli_shows_refined_kmedians():
    cli = README.split("## CLI", 1)[1].split("```", 2)[1]
    assert "--alg refined-kmedians" in cli
