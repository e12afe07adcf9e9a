"""The benchmark's workloads: the `sdfem` CLI calls each one makes, and the
cases each call must produce.

A workload is a list of `Call`s. Each call is one `sdfem.cli.main(argv)`
invocation; the runner appends `--out`. The seed only changes the order of
the C* calls in `param-scan`, so the recorded reference values hold for
every seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = ("standard", "modified")
DEFAULT_CSTAR = 0.5
DEFAULT_TOL = 1e-10  # the CLI default; every run row must meet it

SCAN_CSTARS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)
SCAN_EPS = ("1e-4", "1e-6", "1e-8", "1e-10", "1e-12", "1e-14", "1e-16")

WORKLOADS = ("paper-column", "param-scan", "grid-direct")


def row_key(cstar: float, eps: float, variant: str, N: int) -> str:
    """Reference key of one row of a `sdfem run` table."""
    return f"{float(cstar)!r}|{float(eps)!r}|{variant}|{int(N)}"


def grid_key(N: int, eps: float, variant: str, cstar: float, samples: int) -> str:
    """Reference key of one `sdfem grid` output."""
    return f"{int(N)}|{float(eps)!r}|{variant}|{float(cstar)!r}|{int(samples)}"


@dataclass(frozen=True)
class Call:
    kind: str                  # "run" or "grid"
    argv: tuple[str, ...]      # CLI arguments without --out
    cases: tuple[str, ...]     # reference keys the call must produce


def run_call(Ns, eps_list, cstar: float) -> Call:
    """`sdfem run` over both delta variants, written as JSON tables.

    JSON keeps every digit of the norms; CSV rounds them to six
    significant digits, too coarse for the 1e-8 reference check.
    """
    argv = ("run", "--N", ",".join(str(n) for n in Ns),
            "--eps", ",".join(eps_list), "--delta", "both",
            "--cstar", repr(float(cstar)), "--format", "json")
    cases = tuple(row_key(cstar, float(e), v, n)
                  for e in eps_list for v in VARIANTS for n in Ns)
    return Call("run", argv, cases)


def grid_call(N: int, eps: str, variant: str, samples: int, extra=()) -> Call:
    argv = ("grid", "--N", str(N), "--eps", eps, "--delta", variant,
            "--samples", str(samples), *extra)
    key = grid_key(N, float(eps), variant, DEFAULT_CSTAR, samples)
    return Call("grid", argv, (key,))


def calls(workload: str, seed: int, smoke: bool = False) -> list[Call]:
    """The calls of one workload run. `smoke` shrinks every size so the
    benchmark's own tests finish in seconds; its cases are a subset of the
    full ones (grids aside), so one reference file serves both."""
    if workload == "paper-column":
        Ns = (8, 16, 32) if smoke else (8, 16, 32, 64, 128, 256, 512)
        return [run_call(Ns, ("1e-8",), DEFAULT_CSTAR)]
    if workload == "param-scan":
        cstars = [0.5, 4.0] if smoke else list(SCAN_CSTARS)
        random.Random(seed).shuffle(cstars)
        Ns = (8, 16) if smoke else (8, 16, 32)
        eps_list = ("1e-4", "1e-16") if smoke else SCAN_EPS
        return [run_call(Ns, eps_list, c) for c in cstars]
    if workload == "grid-direct":
        N = 32 if smoke else 512
        return [grid_call(N, "1e-16", "modified", 1, ("--solver", "direct"))]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
