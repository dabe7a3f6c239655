"""Run a fixed matrix of omrouter commands and keep every output.

Usage: python tools/cli_matrix.py OUTDIR [--write MANIFEST | --check MANIFEST].
Each run writes OUTDIR/<name>/ (its files, stdout.txt, stderr.txt,
exit.txt) and runs again from its resolved.cfg into <name>.rt/; a round
trip that changes an output is reported and exits 1.  OUTDIR should start
empty.

``--write`` records one SHA-256 per file under OUTDIR in MANIFEST, with the
Python, numpy and BLAS versions and the platform it ran on.  ``--check``
lists every file added, missing or changed against MANIFEST and exits 1 if
there is one.  Output bits depend on that environment, so where it differs
from the manifest's, ``--check`` says so and exits 2 without comparing:
run the matrix in two checkouts instead and compare their OUTDIRs with
``diff -r``."""
import argparse, filecmp, hashlib, json, os, platform, subprocess, sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
POWERS = "0 30nW 300nW 1uW 1.5uW 1.6uW 2.5uW 5uW 7.4uW 8uW 20uW 30uW".split()
RUNS = {f"route_{p}{tag}": ([*flag, "--set", f"power_p={p}"], ["route"])
        for p in POWERS for tag, flag in (("", []), ("_oracle", ["--oracle"]))}
RUNS.update({"steady": ([], ["steady"]), "spectrum": ([], ["spectrum"]),
             "spectrum_oracle": (["--oracle"], ["spectrum"]),
             "sweep": ([], ["sweep-power"]), "validate": ([], ["validate"]),
             "sweep_list": (["--set", "sweep_powers=0, 300nW, 1uW, 1.5uW, "
                             "2uW, 2.5uW"], ["sweep-power"]),
             **{f: ([], ["figure", f]) for f in ("fig2", "fig3", "fig4")},
             # the oracle's noise columns and its pump-off R and T
             **{f"{f}_oracle": (["--oracle"], ["figure", f])
                for f in ("fig2", "fig4")}})
# the microwave pump off at low optical power, where the ramp's stages
# have one candidate root each (all of them at 1 uW, up to scale 0.8 at
# 10 uW)
RUNS.update({f"{cmd}_off_{p}": (["--set", "power_p=0", "--set",
                                  f"power_l={p}"], [cmd])
             for cmd, p in (("steady", "1uW"), ("route", "1uW"),
                            ("steady", "10uW"))})
# one-sided pinning (the other detuning bare, also at 2 uW, where the
# lower reflect port sits at 0.494 omega_m; at 2.5 and 3 uW with delta_a
# bare, where the ramp lands on the pinned root; at 3 and 8 uW with
# delta_c bare, where it does not), the direct branch policy, a sweep whose
# seeded row misses its auto detunings, and a sweep that pins at its rows'
# powers only, not at power_p
BARE = "2pi*10.56MHz"
RUNS.update({f"{cmd}_bare_{side}": (["--set", f"delta_{side}={BARE}"], [cmd])
             for side in "ca" for cmd in ("route", "steady")})
RUNS.update({f"{cmd}_bare_{side}_{p}": (["--set", f"delta_{side}={BARE}",
                                          "--set", f"power_p={p}"], [cmd])
             for cmd, side, p in (("route", "c", "2uW"),
                                  ("route", "a", "2.5uW"),
                                  ("route", "a", "3uW"),
                                  ("steady", "a", "3uW"),
                                  ("route", "c", "3uW"),
                                  ("steady", "c", "3uW"),
                                  ("route", "c", "8uW"))})
# each command that pins and solves, at 8 uW, where the ramp misses omega_m
RUNS.update({f"{cmd}_8uW": (["--set", "power_p=8uW"], [cmd])
             for cmd in ("steady", "spectrum", "validate")})
RUNS["fig3_8uW"] = (["--set", "fig3_powers=300nW, 8uW"], ["figure", "fig3"])
# a power listed twice, and route at a power where the ramped solve fails
# (exit 1, ConvergenceError)
RUNS["fig3_8uW_8uW"] = (["--set", "fig3_powers=8uW, 8uW"], ["figure", "fig3"])
# two powers that agree to 6 significant digits: their columns need
# distinct headers
RUNS["fig3_near_equal"] = (["--set", "fig3_powers=300nW, 300.0000001nW"],
                           ["figure", "fig3"])
RUNS["route_197nW"] = (["--set", "power_p=1.9715142722466877e-07"], ["route"])
# fig3 above 2 uW, with spectrum_min lowered to keep the lower reflect port
# (0.655 omega_m at 2.5 uW, 0.612 at 3 uW), and the sweep on the oracle
RUNS["fig3_2.5uW_3uW"] = (["--set", "fig3_powers=2.5uW, 3uW", "--set",
                           "spectrum_min=0.5"], ["figure", "fig3"])
RUNS["sweep_oracle"] = (["--oracle"], ["sweep-power"])
# a random device (criterion 3's distribution, default_rng(9090) draw 19)
# with delta_c pinned and delta_a bare: the pinned cubic has three real
# roots, two of them on the side of q = 0 away from the net force there;
# delta_c is pinned at the third, which the ramp misses
DRAW_19 = dict(omega_m=6321435.346967736, mass=6.290967646236554e-13,
               gamma_m=454.8809128943795, kappa1=149402.32342885158,
               kappa2=11603.032230476885, g1=7.269189584341966e+18,
               g2=1.893413685314467e+18, delta_a=10873183.9230244,
               delta_c="auto", omega_l=1225221134900019.2,
               omega_p=44610615680.97506, power_l=4.562661080942954e-05,
               power_p=9.071398033275378e-07, temperature=0.02)
RUNS["steady_draw_19"] = ([arg for key, value in DRAW_19.items()
                           for arg in ("--set", f"{key}={value}")],
                          ["steady"])
RUNS.update({"steady_direct": (["--set", "branch_policy=direct"], ["steady"]),
             "sweep_7uW_8uW": (["--set", "sweep_powers=7uW, 8uW"],
                               ["sweep-power"]),
             "sweep_bare_c_8uW": (["--set", f"delta_c={BARE}", "--set",
                                   "power_p=8uW", "--set",
                                   "sweep_powers=0, 300nW"], ["sweep-power"])})


def run(out, name, argv):
    (out / name).mkdir(parents=True, exist_ok=True)
    r = subprocess.run([sys.executable, "-m", "omrouter.cli", "--out", name,
                        *argv], cwd=out, capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
    for part, text in (("stdout", r.stdout.replace(name + "/", "<out>/")),
                       ("stderr", r.stderr), ("exit", f"{r.returncode}\n")):
        (out / name / f"{part}.txt").write_text(text, encoding="utf-8")


def environment():
    """What the output bits depend on besides the source: the Python,
    numpy and BLAS versions and the platform."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "platform": platform.platform()}


def digests(out):
    """The SHA-256 of every file under ``out``, by its relative path."""
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def check(manifest, env, files):
    """The exit code and report lines of ``--check``: 2 if ``manifest``
    was made in an environment other than ``env``, else 1 if a file of
    ``files`` (from :func:`digests`) is added, missing or changed, else 0.
    """
    if manifest["environment"] != env:
        return 2, [f"manifest environment {manifest['environment']}",
                   f"differs from this one {env}: nothing compared; run "
                   "the matrix in two checkouts and compare them with "
                   "diff -r"]
    old = manifest["files"]
    lines = ([f"added: {f}" for f in files if f not in old]
             + [f"missing: {f}" for f in old if f not in files]
             + [f"changed: {f}" for f in files
                if f in old and files[f] != old[f]])
    return (1 if lines else 0), lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", type=Path, metavar="MANIFEST")
    mode.add_argument("--check", type=Path, metavar="MANIFEST")
    args = parser.parse_args()
    manifest = (json.loads(args.check.read_text(encoding="utf-8"))
                if args.check else None)
    out, changed = args.outdir.resolve(), []
    for name, (options, command) in RUNS.items():
        run(out, name, options + command)
        run(out, name + ".rt", ["--config", f"{name}/resolved.cfg", *command])
        rt = filecmp.dircmp(out / name, out / (name + ".rt"), ["resolved.cfg"])
        if rt.diff_files or rt.left_only or rt.right_only:
            changed.append(name)
    code = 1 if changed else 0
    if changed:
        print(f"round trip changed: {changed}")
    if args.write:
        args.write.write_text(json.dumps(
            {"environment": environment(), "files": digests(out)},
            indent=1) + "\n", encoding="utf-8")
    if manifest is not None:
        status, lines = check(manifest, environment(), digests(out))
        print("\n".join(lines or ["every output matches the manifest"]))
        code = status if status == 2 else max(code, status)
    sys.exit(code)
