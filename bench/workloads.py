"""The benchmark's three workloads: CLI command scripts and the checks on their outputs.

Every input is derived from the workload seed S: the bernoullised seeds, the
ensemble seed ranges and the periodic pattern file.  The program sees only the
generated argv and files.

A command fails when it exits with a code other than 0, gives a wrong verdict,
or writes a data file whose sha256 differs from the digest recorded for it in
``digests.json``.  Commands whose argv does not depend on S have one digest
for every seed; seeded commands have digests for the recorded seeds only, and
for any other seed their files get invariant checks (row counts, eta(0) = 1,
entropy fields) instead.  Manifests are never compared: they carry timings.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

WORKLOADS = ("window_dump", "homometry_ensemble", "exact_order")

# Period of the random +-1 pattern read by exact_order's closed-form autocorrelation.
PATTERN_PERIOD = 16000
RS = "rudin_shapiro"


def rsb(seed: int) -> str:
    """Inline JSON of the bernoullised Rudin-Shapiro comb with p = 1/4."""
    return json.dumps(
        {"model": "bernoullised", "base": {"model": RS}, "p": 0.25, "seed": seed},
        separators=(",", ":"),
    )


def pattern_model(seed: int) -> dict:
    """A +-1 periodic model of period PATTERN_PERIOD drawn from the seed."""
    rng = random.Random(seed)
    return {
        "model": "periodic",
        "pattern": [1 if rng.getrandbits(1) else -1 for _ in range(PATTERN_PERIOD)],
    }


# A check takes the work directory and the command's captured stdout and
# returns a problem description, or None when the output is right.
Check = Callable[[Path, str], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # data files the command writes, relative to the work directory
    seeded: bool  # argv or input files depend on the workload seed
    verdict: Check | None = None  # always run
    invariant: Check | None = None  # run when no digest is recorded for the seed

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    commands: list[Command] = field(default_factory=list)
    inputs: dict[str, str] = field(default_factory=dict)  # file name -> text, written at set-up

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.inputs.items():
            (self.workdir / name).write_text(text, encoding="ascii")


# ── Output checks ──────────────────────────────────────────────────────────

def _json(path: Path):
    return json.loads(path.read_text(encoding="ascii"))


def table_rows(path: Path, output_format: str = "csv") -> int:
    """Data rows of a table written as CSV (after the header) or as a JSON table."""
    if output_format == "json":
        return len(_json(path)["rows"])
    with path.open("rb") as handle:
        return sum(1 for _ in handle) - 1


def _rows_check(file: str, rows: int, output_format: str = "csv") -> Check:
    def check(workdir: Path, _stdout: str):
        got = table_rows(workdir / file, output_format)
        return None if got == rows else f"{file}: {got} rows, expected {rows}"
    return check


def _csv_value_check(file: str, prefix: str, expected: str) -> Check:
    """The CSV row starting with `prefix` (the lag-0 row) carries `expected`."""
    def check(workdir: Path, _stdout: str):
        with (workdir / file).open(encoding="ascii") as handle:
            for line in handle:
                if line.startswith(prefix):
                    value = line.rstrip("\n")[len(prefix):]
                    return None if value == expected else f"{file}: eta(0) = {value}"
        return f"{file}: no row {prefix!r}"
    return check


def _all(*checks: Check) -> Check:
    def check(workdir: Path, stdout: str):
        for part in checks:
            problem = part(workdir, stdout)
            if problem:
                return problem
        return None
    return check


def _json_field_check(file: str, key: str, expected) -> Check:
    def check(workdir: Path, _stdout: str):
        got = _json(workdir / file).get(key)
        return None if got == expected else f"{file}: {key} = {got!r}, expected {expected!r}"
    return check


def _stdout_check(prefix: str) -> Check:
    def check(_workdir: Path, stdout: str):
        return None if stdout.startswith(prefix) else f"stdout {stdout[:40]!r} lacks {prefix!r}"
    return check


def _round12(x: float) -> float:
    return float(format(x, ".12g"))


# ── Command scripts ────────────────────────────────────────────────────────

def build(name: str, seed: int, workdir: Path) -> Workload:
    """The command script of one workload for workload seed `seed`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    work = Workload(name, seed, workdir)

    def out(file: str) -> tuple[str, str]:
        return ("--out", str(workdir / file))

    add = work.commands.append
    S = seed
    if name == "window_dump":
        add(Command(
            ("generate", "--model", RS, "--first", "-524288", "--last", "524287", *out("rs.csv")),
            ("rs.csv",), seeded=False, invariant=_rows_check("rs.csv", 1 << 20),
        ))
        add(Command(
            ("generate", "--model", rsb(S + 6), "--first", "-131072", "--last", "131071",
             "--format", "json", *out("rsb.json")),
            ("rsb.json",), seeded=True, invariant=_rows_check("rsb.json", 1 << 18, "json"),
        ))
        add(Command(
            ("product", "--a", RS, "--b", rsb(S + 1), "--empirical", "--N", "65536", "--M", "128",
             *out("product.csv")),
            ("product.csv",), seeded=True,
            invariant=_all(_rows_check("product.csv", 257 * 257),
                           _csv_value_check("product.csv", "0,0,", "1")),
        ))
        add(Command(
            ("diffract", "--model", RS, "--N", "262144", "--G", "65536", "--bins", "16",
             *out("diffract.csv")),
            ("diffract.csv", "diffract.bins.csv"), seeded=False,
            invariant=_all(_rows_check("diffract.csv", 65536), _rows_check("diffract.bins.csv", 16)),
        ))
    elif name == "homometry_ensemble":
        seeds = f"{S}:{S + 49}"
        add(Command(
            ("bragg", "--model", rsb(S), "--k0", "1/2", "--N-list", "4096,16384,65536",
             "--seeds", seeds, *out("bragg.json")),
            ("bragg.json",), seeded=True,
            verdict=_json_field_check("bragg.json", "growth", "continuous"),
        ))
        add(Command(
            ("homometry", "--mode", "spectral", "--a", rsb(S), "--b", RS, "--N", "16384",
             "--G", "4096", "--bins", "16", "--seeds", seeds, "--tol", "0.02",
             *out("spectral.json")),
            ("spectral.json",), seeded=True,
            verdict=_all(_stdout_check("PASS"), _json_field_check("spectral.json", "passed", True)),
        ))
        add(Command(
            ("homometry", "--a", rsb(S + 2), "--b", RS, "--analytic-b", "--N", "1048576",
             "--M", "512", "--tol", "0.05", *out("autocorr.json")),
            ("autocorr.json",), seeded=True,
            verdict=_all(_stdout_check("PASS"), _json_field_check("autocorr.json", "passed", True)),
        ))
    else:  # exact_order
        max_index = 32768
        add(Command(
            ("verify-rs", "--max", str(max_index), *out("verify.json")),
            ("verify.json",), seeded=False,
            verdict=_all(_json_field_check("verify.json", "violations", []),
                         _json_field_check("verify.json", "checked", 2 * (2 * max_index + 1))),
        ))
        add(Command(
            ("complexity", "--model", RS, "--N", "131072", "--L-max", "32",
             *out("complexity.csv")),
            ("complexity.csv",), seeded=False, invariant=_rows_check("complexity.csv", 32),
        ))
        p = 0.25
        entropy = -p * math.log(p) - (1 - p) * math.log(1 - p)
        add(Command(
            ("entropy", "--model", rsb(S + 4), "--N", "262144", "--k", "10", *out("entropy.json")),
            ("entropy.json",), seeded=True,
            invariant=_all(_json_field_check("entropy.json", "exact_entropy", _round12(entropy)),
                           _json_field_check("entropy.json", "block_length", 10),
                           _json_field_check("entropy.json", "window_half_size", 262144)),
        ))
        work.inputs["pattern.json"] = json.dumps(pattern_model(S), separators=(",", ":"))
        add(Command(
            ("autocorr", "--analytic", "--M", "64", "--model", str(workdir / "pattern.json"),
             *out("autocorr.csv")),
            ("autocorr.csv",), seeded=True,
            invariant=_all(_rows_check("autocorr.csv", 129),
                           _csv_value_check("autocorr.csv", "0,", "1")),
        ))
    return work


# ── Digests ────────────────────────────────────────────────────────────────

def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_digests() -> dict:
    """{workload: {"any": {file: sha}, "seeds": {str(seed): {file: sha}}}}"""
    return json.loads(DIGESTS_PATH.read_text(encoding="ascii"))


def expected_digests(table: dict, work: Workload, command: Command) -> dict[str, str] | None:
    """Recorded digests of a command's files for this seed, or None if none are recorded."""
    entry = table.get(work.name, {})
    recorded = entry.get("seeds", {}).get(str(work.seed)) if command.seeded else entry.get("any")
    if recorded is None or not all(file in recorded for file in command.outputs):
        return None
    return {file: recorded[file] for file in command.outputs}


def check_command(work: Workload, command: Command, code: int, stdout: str, table: dict):
    """(problem or None, whether the files were compared with recorded digests).

    An output too malformed to check (bad JSON, non-ASCII text, a wrong shape)
    is the command's problem, like any other wrong output.
    """
    if code != 0:
        return f"exit code {code}", False
    for file in command.outputs:
        if not (work.workdir / file).is_file():
            return f"{file} was not written", False
    try:
        return _check_outputs(work, command, stdout, table)
    except Exception as exc:
        return f"output could not be checked: {exc!r}", False


def _check_outputs(work: Workload, command: Command, stdout: str, table: dict):
    if command.verdict is not None:
        problem = command.verdict(work.workdir, stdout)
        if problem:
            return problem, False
    expected = expected_digests(table, work, command)
    if expected is None:
        problem = command.invariant(work.workdir, stdout) if command.invariant else None
        return problem, False
    for file, digest in expected.items():
        if sha256(work.workdir / file) != digest:
            return f"{file}: sha256 differs from the recorded digest", True
    return None, True
