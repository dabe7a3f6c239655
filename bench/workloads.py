"""Inputs and output checks of the three benchmark workloads.

Every op is generated from ``(seed, k)`` alone, so a seed fixes the whole
op sequence and any op can be regenerated without running the ones before
it.  Each workload repeats a fixed cycle of op kinds, and the timed loop
only stops at a cycle boundary, so every seed and run length gives the same
mix of op kinds.  omrouter itself only sees the generated CLI arguments or
``SystemParams``.

An op is an :class:`Op`: ``run()`` does the work that is timed and returns
the raw outcome; ``check(outcome)`` inspects it afterwards, outside the
timed interval, and returns ``None`` when it passed or a short reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Reach omrouter's functions through their modules, so that the spans the
# traced run installs on those modules see these calls too.
from omrouter import cli, steady
from omrouter.config import parse_config
from omrouter.errors import ConvergenceError
from omrouter.model import SystemParams

TAU = 2.0 * math.pi

# Probe powers of the microwave pump: the paper's operating range.
POWER_MIN = 30e-9
POWER_MAX = 3e-6

# Known defects.  The timed ops stay clear of them, so that no timed op
# fails; each workload instead runs a few fixed probe ops that hit a known
# defect after its timed loop, untimed, and the result records whether each
# probe still shows the defect.
#
# route: the pump-on report collapses to the pump-off pattern (one
# "reflect" port, omega0 = 0) once the lower split line leaves the default
# +-0.30 omega_m analysis window, between 1.95 and 2.0 uW on the reference
# device.  Timed route ops draw their power from [POWER_MIN, ROUTE_MAX].
ROUTE_MAX = 1.6e-6
ROUTE_PROBE_POWERS = (2.0e-6, 2.5e-6, 3.0e-6)
#
# branch_map: on about 1 in 1500 parameter sets from acceptance criterion
# 3's distribution the ramped solve raises ConvergenceError, because the
# final residual lands just above 1e-10.  The probes are such sets, given
# as (seed, k) of criterion3_params(_rng(seed, k)).
BRANCH_PROBES = ((0, 2030), (0, 3131))

# Seed of acceptance criterion 3's parameter sets in tests/test_acceptance.py.
CRITERION3_SEED = 20260810

# Oracle ops are compared against the closed form over the whole CSV.
ORACLE_TOL = 1e-9

# Subdirectory of the work directory that each op writes its files to.
OP_DIR = "op"


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    # True when a failed probe op hit the known defect it probes for
    known_defect: Callable[[object], bool] = lambda outcome: False
    # extra check done only on a sample of ops, after the timed interval
    spot_check: "Callable[[], str | None] | None" = None


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def stratified_power(u: float, stratum: int, strata: int,
                     top: float = POWER_MAX) -> float:
    """Power at position ``u`` in [0, 1) of log-width stratum ``stratum``
    of ``strata`` over [POWER_MIN, top]."""
    lo, hi = math.log10(POWER_MIN), math.log10(top)
    return float(10.0 ** (lo + (stratum + u) / strata * (hi - lo)))


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def read_csv(path: Path) -> np.ndarray:
    """Data rows of a CSV file written by omrouter, below its header."""
    with open(path, encoding="utf-8") as handle:
        columns = handle.readline().count(",") + 1
        body = handle.read()
    rows = body.count("\n")
    values = np.array(body.replace(",", "\n").split(), dtype=float)
    if values.size != rows * columns:
        raise ValueError(f"{path.name}: ragged rows")
    return values.reshape(rows, columns)


# ---------------------------------------------------------------- route

class Route:
    """``omrouter route`` at a stratified microwave power.

    A cycle is 16 ops: ops 0 and 8 have the pump off, the other 14 draw
    log-uniformly from the 14 log-width strata of [30 nW, 1.6 uW], one each,
    in ascending order.  The probes are routes at 2, 2.5 and 3 uW, where
    the report collapses to the pump-off pattern.
    """

    name = "route"
    strata = 14
    cycle = 16

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.outdir = workdir / OP_DIR

    def power(self, k: int) -> float:
        if k % 8 == 0:
            return 0.0
        pumped = k - k // 8 - 1
        return stratified_power(_rng(self.seed, k).uniform(),
                                pumped % self.strata, self.strata, ROUTE_MAX)

    def op(self, k: int) -> Op:
        return self._op(self.power(k))

    def probes(self) -> list[Op]:
        return [self._op(power) for power in ROUTE_PROBE_POWERS]

    def _op(self, power: float) -> Op:
        argv = ["--out", str(self.outdir), "--set", f"power_p={power!r}",
                "route"]

        def run():
            return _call_cli(argv)[0]

        def report(code):
            if code != 0:
                return None
            return json.loads((self.outdir / "routing_report.json")
                              .read_text(encoding="utf-8"))

        def check(code):
            rep = report(code)
            if rep is None:
                return f"exit code {code}"
            return check_route_report(rep, power)

        def known_defect(code):
            rep = report(code)
            return (rep is not None
                    and [p["label"] for p in rep["ports"]] == ["reflect"]
                    and rep["omega0"] == 0.0)

        kind = "pump_off" if power == 0.0 else "pump_on"
        return Op(kind, run, check, known_defect)


def check_route_report(rep: dict, power: float) -> "str | None":
    labels = [p["label"] for p in rep["ports"]]
    ports = {p["label"]: p for p in rep["ports"]}
    if power == 0.0:
        if labels != ["reflect"]:
            return f"pump off: ports {labels}"
        if not ports["reflect"]["r"] > 0.99:
            return f"pump off: R = {ports['reflect']['r']}"
        return None
    if sorted(labels) != ["reflect-lower", "reflect-upper", "transmit"]:
        return f"pump on at {power:.3g} W: ports {labels}"
    if not rep["omega0"] > 0.0:
        return f"omega0 = {rep['omega0']}"
    lower, mid, upper = (ports[k]["omega"] for k in
                         ("reflect-lower", "transmit", "reflect-upper"))
    if not lower < mid < upper:
        return "ports out of order"
    for label in ("reflect-lower", "reflect-upper"):
        if not ports[label]["r"] > 0.99:
            return f"{label}: R = {ports[label]['r']}"
    return None


# -------------------------------------------------------------- spectra

_FIGURE_FILES = {
    "fig2": ("fig2_reflection.csv", "fig2_transmission.csv"),
    "fig3": ("fig3_transmission.csv",),
    "fig4": ("fig4_noise.csv",),
    "spectrum": ("spectrum.csv",),
}


class Spectra:
    """Spectra commands on seeded operating points.

    A cycle is 10 ops: fig2, fig3, fig4, spectrum and validate in closed
    form, then the same five with the first four through ``--oracle``.
    Each cycle takes ``power_p`` once from each of 10 log-width strata of
    [30 nW, 3 uW], rotated by one stratum per cycle so that every command
    meets every stratum; fig3 takes its two powers from the lower and upper
    half of the range.
    """

    name = "spectra"
    cycle = 10
    commands = ("fig2", "fig3", "fig4", "spectrum", "validate")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.outdir = workdir / OP_DIR
        self.refdir = workdir / "closed"
        self.points = parse_config(env={}).spectrum_points

    def op(self, k: int) -> Op:
        command = self.commands[k % 5]
        oracle = command != "validate" and (k // 5) % 2 == 1
        u = _rng(self.seed, k).uniform(size=3)
        stratum = (k + k // self.cycle) % self.cycle
        power = stratified_power(u[0], stratum, self.cycle)
        sets = ["--set", f"power_p={power!r}"]
        if command == "fig3":
            low = stratified_power(u[1], 0, 2)
            high = stratified_power(u[2], 1, 2)
            sets += ["--set", f"fig3_powers={low!r}, {high!r}"]
        tail = ["validate"] if command == "validate" else (
            ["spectrum"] if command == "spectrum" else ["figure", command])
        argv = ["--out", str(self.outdir)] + sets + tail
        oracle_argv = ["--oracle"] + argv if oracle else argv

        def run():
            return _call_cli(oracle_argv)

        def check(outcome):
            code, stdout = outcome
            if code != 0:
                return f"exit code {code}"
            if command == "validate":
                return (None if "validation passed" in stdout
                        else "validation did not pass")
            for name in _FIGURE_FILES[command]:
                reason = self._check_csv(self.outdir / name)
                if reason:
                    return reason
            return None

        def spot_check():
            closed_argv = ["--out", str(self.refdir)] + sets + tail
            if self.refdir.exists():
                shutil.rmtree(self.refdir)
            code, _ = _call_cli(closed_argv)
            if code != 0:
                return f"closed-form rerun: exit code {code}"
            for name in _FIGURE_FILES[command]:
                got = read_csv(self.outdir / name)
                want = read_csv(self.refdir / name)
                scale = np.maximum(np.abs(got), np.abs(want))
                if not np.all(np.abs(got - want) <= ORACLE_TOL * scale):
                    worst = np.max(np.abs(got - want) / scale)
                    return f"{name}: oracle vs closed {worst:.2e}"
            return None

        kind = command + ("_oracle" if oracle else "")
        return Op(kind, run, check, spot_check=spot_check if oracle else None)

    def probes(self) -> list[Op]:
        return []

    def _check_csv(self, path: Path) -> "str | None":
        try:
            table = read_csv(path)
        except (OSError, ValueError) as exc:
            return f"{path.name}: {exc}"
        if table.shape[0] != self.points:
            return f"{path.name}: {table.shape[0]} rows"
        if not np.all(np.isfinite(table)):
            return f"{path.name}: non-finite value"
        if not np.all(table >= 0.0):
            return f"{path.name}: negative value"
        return None


# ----------------------------------------------------------- branch_map

def criterion3_params(rng: np.random.Generator) -> SystemParams:
    """One parameter set from acceptance criterion 3's distribution."""
    wm = TAU * 10 ** rng.uniform(6.0, 7.5)
    return SystemParams(
        omega_m=wm,
        mass=10 ** rng.uniform(-13.0, -10.0),
        gamma_m=TAU * 10 ** rng.uniform(0.5, 2.5),
        kappa1=TAU * 10 ** rng.uniform(4.0, 5.5),
        kappa2=TAU * 10 ** rng.uniform(2.5, 4.0),
        g1=10 ** rng.uniform(17.0, 19.5),
        g2=10 ** rng.uniform(18.0, 20.0),
        delta_a=rng.uniform(-2.0, 2.0) * wm,
        delta_c=rng.uniform(-2.0, 2.0) * wm,
        omega_l=TAU * 195e12,
        omega_p=TAU * 7.1e9,
        power_l=10 ** rng.uniform(-7.0, -3.5),
        power_p=10 ** rng.uniform(-9.0, -6.0),
        temperature=0.02)


def criterion3_sets() -> list[SystemParams]:
    """The 100 parameter sets acceptance criterion 3 checks, drawn from its
    own generator in its own order."""
    rng = np.random.default_rng(CRITERION3_SEED)
    return [criterion3_params(rng) for _ in range(100)]


class BranchMap:
    """Branch enumeration plus the ramped solve on acceptance criterion 3's
    100 parameter sets.

    A cycle is one pass over the 100 sets, in an order that the seed and
    the pass number draw.  The probes are sets from the same distribution
    on which the ramped solve raises ConvergenceError.
    """

    name = "branch_map"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.sets = criterion3_sets()
        self.cycle = len(self.sets)

    def op(self, k: int) -> Op:
        rnd, i = divmod(k, self.cycle)
        order = _rng(self.seed, rnd).permutation(self.cycle)
        return self._op(self.sets[order[i]])

    def probes(self) -> list[Op]:
        return [self._op(criterion3_params(_rng(*probe)))
                for probe in BRANCH_PROBES]

    def _op(self, params: SystemParams) -> Op:
        def run():
            return (steady.enumerate_branches(params),
                    steady.solve_steady_state(params))

        return Op("branch_map", run, check_branches, residual_defect)


def residual_defect(outcome) -> bool:
    return (isinstance(outcome, ConvergenceError)
            and str(outcome).startswith("steady-state residual"))


def check_branches(outcome) -> "str | None":
    roots, state = outcome
    if len(roots) % 2 != 1:
        return f"{len(roots)} roots"
    if not state.residual < 1e-10:
        return f"residual {state.residual:.2e}"
    if state.q_s not in roots:
        return "selected q_s is not an enumerated root"
    if roots[state.branch_index] != state.q_s:
        return "branch_index does not point at q_s"
    return None


WORKLOADS = {w.name: w for w in (Route, Spectra, BranchMap)}
