"""The benchmark's workloads: CLI verdicts with their pinned outcomes.

A verdict is one ``contactpairs`` command line.  Each carries the exit code
and task statuses it must produce; any other outcome is a failed verdict.
``pass_seconds`` is the nominal wall time of one pass over the verdicts on a
2-core x86 machine (Python 3.11, numpy 2.4, OpenBLAS 0.3.31).  A run makes
``ceil(--seconds / pass_seconds)`` passes, a fixed number, so a faster
program is timed on the same verdicts rather than on more of them.
"""

from __future__ import annotations

from dataclasses import dataclass

T6_CONFIG = "configs/t6_explicit_family.json"
H6_CONFIG = "configs/heisenberg6_builtin.json"


@dataclass(frozen=True)
class Verdict:
    argv: tuple[str, ...]
    exit_code: int
    statuses: tuple[str, ...]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    verdicts: tuple[Verdict, ...]
    pass_seconds: float

    def examples(self) -> tuple[str, ...]:
        return _operands(self.verdicts, "--example")

    def configs(self) -> tuple[str, ...]:
        return _operands(self.verdicts, "--config")


def _operands(verdicts, flag) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for v in verdicts:
        args = v.argv
        for i, a in enumerate(args[:-1]):
            if a == flag:
                seen[args[i + 1]] = None
    return tuple(seen)


PASS = ("pass",)
NOT_APPLICABLE = ("not-applicable",)

# verify-pair, deform forward, deform converse and sweep: the four commands
# run on each deformation-family example and config.
_FAMILY_COMMANDS = (
    ("verify-pair",),
    ("deform",),
    ("deform", "--mode", "converse"),
    ("sweep",),
)


def _torus_pair() -> tuple[Verdict, ...]:
    out = []
    for example in ("t6-pair-compatible", "t6-pair-incompatible"):
        for cmd in _FAMILY_COMMANDS:
            argv = (cmd[0], "--example", example) + cmd[1:]
            incompatible_deform = example == "t6-pair-incompatible" and cmd[0] == "deform"
            if incompatible_deform:
                out.append(Verdict(argv, 1, NOT_APPLICABLE))
            else:
                out.append(Verdict(argv, 0, PASS))
    for cmd in _FAMILY_COMMANDS:
        out.append(Verdict((cmd[0], "--config", T6_CONFIG) + cmd[1:], 0, PASS))
    return tuple(out)


def _lie_exact() -> tuple[Verdict, ...]:
    cmds = (("classify",),) + _FAMILY_COMMANDS
    out = [Verdict((c[0], "--example", "heisenberg6-pair") + c[1:], 0, PASS) for c in cmds]
    out.append(Verdict(("classify", "--example", "heisenberg3"), 0, PASS))
    out.append(Verdict(("verify-pair", "--example", "t2-pair-type00"), 0, PASS))
    for c in cmds[:4]:
        out.append(Verdict((c[0], "--config", H6_CONFIG) + c[1:], 0, PASS))
    return tuple(out)


def _jacobi_grid() -> tuple[Verdict, ...]:
    # The CLI default `jacobi --example darboux2` (resolution 16, ~1M grid
    # points, ~22 s) is too slow to repeat in every run and is left out;
    # resolution 10 keeps the 5-d box grid with its one-sided stencils.
    # Both sides of the pair are run: with four verdicts the median verdict
    # time fell in the gap between the two fast and the two slow ones.
    runs = (
        ("torus-contact", ("--resolution", "32")),
        ("darboux1", ("--resolution", "24")),
        ("darboux2", ("--resolution", "10")),
        ("t6-pair-compatible", ()),
        ("t6-pair-compatible", ("--side", "beta")),
    )
    return tuple(Verdict(("jacobi", "--example", e) + extra, 0, PASS) for e, extra in runs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("torus-pair", _torus_pair(), pass_seconds=7.5),
        Workload("lie-exact", _lie_exact(), pass_seconds=0.19),
        Workload("jacobi-grid", _jacobi_grid(), pass_seconds=5.5),
    )
}
