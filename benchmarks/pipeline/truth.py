"""Score the program's SAM / seed-TSV output against simulation truth.

``correct_frac``: reads placed where the simulator took them from.
``failed_frac``: reads with no output record; a missing, truncated or
unparsable file fails every read.  Pure Python on purpose (imported by
the orchestrator, which must stay small -- see ``workloads.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import POSITION_TOLERANCE, READ_LENGTH

FLAG_PAIRED = 0x1
FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10
FLAG_FIRST = 0x40
FLAG_SECONDARY = 0x100
SEED_HEADER = "read\tstart\tlength\thit_count\thits\n"


class OutputError(ValueError):
    """The output file is not what the program writes when it works."""


@dataclass(frozen=True)
class Evaluation:
    attempted: int
    failed: int
    correct: int

    @property
    def correct_frac(self) -> float:
        return self.correct / self.attempted

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def load_truth(path: str) -> "dict[str, tuple[int, str]]":
    """``{read name: (origin, strand)}`` in FASTQ order; ``origin`` is
    the forward-strand coordinate of the read's leftmost base."""
    truth = {}
    with open(path) as handle:
        for line in handle:
            name, origin, strand = line.rstrip("\n").split("\t")
            truth[name] = (int(origin), strand)
    return truth


def _complete_lines(path: str) -> "list[str]":
    with open(path) as handle:
        lines = handle.readlines()
    if not lines or not lines[-1].endswith("\n"):
        raise OutputError(f"{path} is empty or truncated mid-line")
    return lines


def _score_sam(path: str,
               truth: "dict[str, tuple[int, str]]") -> "tuple[int, int]":
    """``(correct, present)`` over primary records: mapped, on the true
    strand, within ``POSITION_TOLERANCE`` of the true position."""
    seen = set()
    correct = 0
    for number, line in enumerate(_complete_lines(path), start=1):
        if line.startswith("@"):
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) < 11:
            raise OutputError(f"{path}:{number}: {len(fields)} fields")
        try:
            flag, pos = int(fields[1]), int(fields[3])
        except ValueError as exc:
            raise OutputError(f"{path}:{number}: {exc}") from exc
        if flag & FLAG_SECONDARY:
            continue
        name = fields[0]
        if flag & FLAG_PAIRED:
            name += "/1" if flag & FLAG_FIRST else "/2"
        if name not in truth or name in seen:
            raise OutputError(f"{path}:{number}: unexpected record {name}")
        seen.add(name)
        origin, strand = truth[name]
        if (not flag & FLAG_UNMAPPED
                and bool(flag & FLAG_REVERSE) == (strand == "-")
                and abs(pos - 1 - origin) <= POSITION_TOLERANCE):
            correct += 1
    return correct, len(seen)


def _score_seeds(path: str, truth: "dict[str, tuple[int, str]]",
                 genome_len: int) -> "tuple[int, int]":
    """``(correct, present)``: a read is correct when some seed hit
    ``h`` has ``h - read_start`` equal to the read's offset in the
    both-strands text (``origin`` forward, ``2n - origin - read_length``
    reverse)."""
    lines = _complete_lines(path)
    if lines[0] != SEED_HEADER:
        raise OutputError(f"{path}: missing seed TSV header")
    seen = set()
    correct = set()
    for number, line in enumerate(lines[1:], start=2):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 5 or fields[0] not in truth:
            raise OutputError(f"{path}:{number}: not a seed line")
        name = fields[0]
        seen.add(name)
        origin, strand = truth[name]
        offset = (origin if strand == "+"
                  else 2 * genome_len - origin - READ_LENGTH)
        try:
            target = offset + int(fields[1])
            if any(int(hit) == target
                   for hit in fields[4].split(",") if hit):
                correct.add(name)
        except ValueError as exc:
            raise OutputError(f"{path}:{number}: {exc}") from exc
    return len(correct), len(seen)


def evaluate(command: str, path: str,
             truth: "dict[str, tuple[int, str]]",
             genome_len: int) -> Evaluation:
    """Score the output of ``ert-repro <command>`` at ``path``."""
    attempted = len(truth)
    try:
        if command == "seed":
            correct, seen = _score_seeds(path, truth, genome_len)
        else:
            correct, seen = _score_sam(path, truth)
    except (OSError, OutputError):
        return Evaluation(attempted, failed=attempted, correct=0)
    return Evaluation(attempted, failed=attempted - seen, correct=correct)
