"""Golden JSON reports for the CLI command list of acceptance criterion 9.

Each file under ``tests/golden/`` holds the exact report one command
prints at ``--seed 123``; a change to any report byte fails here.  The
commands run in process through ``cli.main`` from inside the corpus
directory with bare file names, so the reports carry no machine paths.

Regenerate the files (only for an intended report change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from coringlab.cli import main
from coringlab.corpus import CORPUS_DIR, extension_names, facet_names

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = ["--seed", "123"]

COMMANDS = {
    "validate": ["validate"] + [f"{n}.json" for n in extension_names()],
    "cohomology-ut2_diag_gf5": ["cohomology", "ut2_diag_gf5.json"],
    "cohomology-s3_c2_gf7": ["cohomology", "s3_c2_gf7.json"],
    "amitsur-gf25_gf5": ["amitsur", "gf25_gf5.json", "--trials", "25"],
    "amitsur-c3_gf3": ["amitsur", "c3_gf3.json"],
    # the largest coring power(3): ambient 64 * 16 over M2
    "amitsur-m2_gf5": ["amitsur", "m2_gf5.json"],
    # power(4) of the M2 carrier: ambient 256 * 16, concat(2, 2) with lead 64
    "amitsur-m2_gf5-deg4": ["amitsur", "m2_gf5.json", "--max-degree", "4"],
    "amitsur-s3_c2_gf7": ["amitsur", "s3_c2_gf7.json", "--max-degree", "2",
                          "--trials", "10"],
    # power(4) of the Sweedler carrier, with concat leads above 1
    "amitsur-s3_c2_gf7-deg4": ["amitsur", "s3_c2_gf7.json", "--max-degree", "4",
                               "--trials", "10"],
    "verify-iso-c2_gf2": ["verify-iso", "c2_gf2.json", "--trials", "25"],
    "verify-iso-s3_c2_gf7": ["verify-iso", "s3_c2_gf7.json"],
    "hopf-check-hopf_c2_gf2": ["hopf-check", "hopf_c2_gf2.json", "--max-degree", "4"],
    "hopf-check-hopf_c2_gf3": ["hopf-check", "hopf_c2_gf3.json", "--max-degree", "4"],
}
COMMANDS.update({f"gs-compare-{n}": ["gs-compare", f"{n}.facets"] for n in facet_names()})
# a degree-3 Hochschild build over the 7 vertex idempotents of the filled triangle
COMMANDS["gs-compare-filled_triangle-deg2"] = ["gs-compare", "filled_triangle.facets",
                                               "--max-degree", "2"]
# and a degree-4 one, every tower step and hom space a coordinate selection
COMMANDS["gs-compare-filled_triangle-deg3"] = ["gs-compare", "filled_triangle.facets",
                                               "--max-degree", "3"]


def render(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run from the corpus directory."""
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(CORPUS_DIR)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv + SEED)
    finally:
        os.chdir(here)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    code, out = render(COMMANDS[name])
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert out == golden
    assert code == (0 if json.loads(golden)["ok"] else 1)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN_DIR / f"{name}.json").write_text(render(argv)[1], encoding="utf-8")
