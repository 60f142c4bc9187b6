"""Every output of the benchmark's workloads, pinned by digest.

The 22 runs of ``bench/workloads.py`` (the 11 ops of ``bundled``,
``families`` and ``sampling``, at seeds 1 and 2) go through
``poakit.cli.main`` in-process.  Each run's outputs are hashed part by part:
its exit code with what it printed, every CSV byte, and ``report.json``
with sorted keys and the timing keys of ``DROPPED_KEYS`` removed at any
depth.  The work directory and the checkout's root become fixed tokens in
every part, so a digest does not depend on where the suite runs.

A mismatch names the op and the part that moved.  To regenerate the table
after a deliberate change, run ``PYTHONPATH=src python
tests/test_workload_digests.py`` from the repo root and paste what it
prints over ``PINNED``; list each moved op and the reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from poakit.cli import main

CHECKOUT = Path(__file__).resolve().parent.parent
BENCH = CHECKOUT / "bench"
SEEDS = (1, 2)
WORKLOADS = ("bundled", "families", "sampling")
DROPPED_KEYS = ("wall_time",)  # timings: they vary from run to run

# (seed, op) -> {part: the first 16 hex digits of the part's sha256}.
PINNED = {
    (1, "decompose-fallback"): {"exit+stdout": "6f3c5f246b29453c",
        "decompose.csv": "622bc877b2f0e48c", "report.json": "932e6afb312677af"},
    (1, "decompose-two-commodity"): {"exit+stdout": "c087f1c742502904",
        "decompose.csv": "61843305f81668d7", "report.json": "74767582e22d3265"},
    (1, "reproduce"): {"exit+stdout": "6309a9cbe4978ed5",
        "report.json": "9e60a9c492e5e97b"},
    (1, "sample-generated"): {"exit+stdout": "0124a8c1379f0fb9",
        "distribution.csv": "f582cd9aa5ee0530", "report.json": "54a82cf4c7a3ae07"},
    (1, "sample-two-commodity"): {"exit+stdout": "fd09987b7b8a2b2f",
        "distribution.csv": "1d10531c8cd732d8", "report.json": "8895e05312a4c425"},
    (1, "solve-links"): {"exit+stdout": "90ef677eed0b0e50",
        "report.json": "8d47709e2cb6d139", "solve.csv": "1b3c3a6766e6d4a8"},
    (1, "solve-parallel_affine_offset"): {"exit+stdout": "90ef677eed0b0e50",
        "report.json": "0ff24ef976f5c58f", "solve.csv": "fc4c6102eec6dc94"},
    (1, "solve-parallel_linear_double"): {"exit+stdout": "90ef677eed0b0e50",
        "report.json": "83afd71eab1c1764", "solve.csv": "069da95422568b2b"},
    (1, "solve-parallel_quadratic_constant"): {"exit+stdout": "90ef677eed0b0e50",
        "report.json": "32b16b39fb629de9", "solve.csv": "c205ebb336e1bf66"},
    (1, "solve-two_commodity_mixed_degree"): {"exit+stdout": "90ef677eed0b0e50",
        "report.json": "9c41b59c31405346", "solve.csv": "b8a792d085ae6264"},
    (1, "sweep-three-path"): {"exit+stdout": "b00cd4444237598d",
        "report.json": "a30715ec491d8343", "sweep.csv": "9c7944be5e03b167"},
    (2, "decompose-fallback"): {"exit+stdout": "d21737ed3ff1861b",
        "decompose.csv": "7b1a7cbf9c7e24f3", "report.json": "55ffd98d7083cfd6"},
    (2, "decompose-two-commodity"): {"exit+stdout": "0e7128d2705ea604",
        "decompose.csv": "f1434b3d960093cb", "report.json": "3daf05085731c88a"},
    (2, "reproduce"): {"exit+stdout": "6309a9cbe4978ed5",
        "report.json": "9e60a9c492e5e97b"},
    (2, "sample-generated"): {"exit+stdout": "0cf0eb01d2bf7737",
        "distribution.csv": "353bf43ed481c127", "report.json": "d7ae2206a685e213"},
    (2, "sample-two-commodity"): {"exit+stdout": "fd09987b7b8a2b2f",
        "distribution.csv": "2a573322e96cc467", "report.json": "379a39196ca634da"},
    (2, "solve-links"): {"exit+stdout": "90ef677eed0b0e50",
        "report.json": "4009eab5d955b23d", "solve.csv": "5af1ce1a8ddbb7b0"},
    (2, "solve-parallel_affine_offset"): {"exit+stdout": "90ef677eed0b0e50",
        "report.json": "ff6e40b3d154b922", "solve.csv": "1e5e42ae8d2ac90d"},
    (2, "solve-parallel_linear_double"): {"exit+stdout": "90ef677eed0b0e50",
        "report.json": "41995f0e63ab35b8", "solve.csv": "9f8eff6a94843b88"},
    (2, "solve-parallel_quadratic_constant"): {"exit+stdout": "90ef677eed0b0e50",
        "report.json": "63dd49c8819088c6", "solve.csv": "3985c103af5e45e1"},
    (2, "solve-two_commodity_mixed_degree"): {"exit+stdout": "90ef677eed0b0e50",
        "report.json": "41198f2c83a2d400", "solve.csv": "f9f7ebd644c8ef63"},
    (2, "sweep-three-path"): {"exit+stdout": "408da49747a25920",
        "report.json": "4f375dbd7817a3b7", "sweep.csv": "17dc71225b3b1d9c"},
}


def _untimed(value):
    """``value`` with every DROPPED_KEYS key removed at any depth."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k not in DROPPED_KEYS}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _digest(text: str, paths: dict) -> str:
    """The first 16 hex digits of the sha256 of ``text``, each path replaced by its token."""
    for path, token in paths.items():  # longest path first, so a nested one keeps its token
        text = text.replace(path, token)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_workload(name: str, seed: int, work: Path) -> dict:
    """{(seed, op): {part: digest}} for one workload at one seed, run under ``work``."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    paths = dict(sorted({str(work): "<work>", str(CHECKOUT): "<checkout>"}.items(),
                        key=lambda item: -len(item[0])))
    digests = {}
    for op in workloads.WORKLOADS[name](seed, work).ops:
        out = work / op.name
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(op.argv + ["--out", str(out)])
        parts = {"exit+stdout": f"exit {code}\n{printed.getvalue()}"}
        for path in sorted(out.iterdir()):
            text = path.read_text(encoding="utf-8")
            if path.name == "report.json":
                text = json.dumps(_untimed(json.loads(text)), sort_keys=True, ensure_ascii=False)
            parts[path.name] = text
        digests[seed, op.name] = {part: _digest(text, paths) for part, text in parts.items()}
    return digests


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_outputs_match_the_pinned_digests(name, seed, tmp_path, monkeypatch):
    for variable in ("POAKIT_BUDGET", "POAKIT_TOLERANCE"):
        monkeypatch.delenv(variable, raising=False)
    got = run_workload(name, seed, tmp_path)
    moved = [f"{op} (seed {s}): {part}"
             for (s, op), parts in got.items()
             for part in sorted(set(parts) | set(PINNED.get((s, op), {})))
             if parts.get(part) != PINNED.get((s, op), {}).get(part)]
    assert moved == [], "outputs moved: " + "; ".join(moved)


if __name__ == "__main__":
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    table.update(run_workload(name, seed, Path(tmp) / f"{name}-{seed}"))
    print("PINNED = {")
    for key, parts in sorted(table.items()):
        (first, digest), *rest = parts.items()
        print(f'    ({key[0]}, "{key[1]}"): {{"{first}": "{digest}",')
        print("        " + ", ".join(f'"{p}": "{d}"' for p, d in rest) + "},")
    print("}")
