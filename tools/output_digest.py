"""One SHA-256 per `padic-radial` invocation, over everything it prints and writes.

    python3 tools/output_digest.py [--src PATH]

Runs a fixed list of invocations in-process against the package in PATH
(default: this checkout's ``src/``): the default ``sweep``, a ``sweep`` at
p = 2, 7 with alpha at 1 and 1e-9 either side of it, ``solve`` with
``--solution-out`` and ``--report-out`` on six problems (one whose exact
solution is u0 because I^1 of a constant vanishes, one at p = 1000003, and one
with ``--extend-to -1``, whose window floor once left out level 0),
``apply`` of ``dalpha`` and ``ialpha`` to a fixed radial function,
``apply`` of ``ialpha`` to a left tail p^(440 k) at p = 5, whose seed
once overflowed ``expm1`` (exit 1 with a traceback, exit 0 since), and
to the fixed function at one level past the overflow guard (exit 2, the
error naming the first level past it),
``constants`` at three (p, alpha) with a sigma or a gamma (alpha = 1
among them), a ``sweep`` with an error row, a ``solve`` that exits 2, and
one that exits 3 because a level at kappa = 0.9 needs more than
``--max-iter 200`` steps (exit 0 when the cap was on Picard sweeps),
``verify``, ``verify`` of the ``D^alpha`` oracle at depth 3, where
the oracle's explicit strata reach past the test functions' windows into
their tails, ``apply`` of ``dalpha`` to a file that gives one level
twice (exit 2 naming the line; the last line once won, with exit 0),
five ``solve`` runs past the depth caps that once stood: a window 1848 levels
deep at alpha = 0.05 (once exit 3), a floor search that meets the work limit
on the window width (exit 3), ``--rhs-amplitude 1e306`` at gamma = 0.4,
where N lies near -10 200 (once exit 2, on the radius cap), the same at
gamma = 0.4999, where c_uniform F overflows (once exit 1, a math domain error,
then exit 2 on q_N = inf; exit 3 since, at the work limit), and at gamma = 0.49,
where a step of the level march leaves the double range (exit 2, once as wrong
metadata),
and six invocations that exit 2 before any work: ``apply`` of
``dalpha`` at alpha = 1100, whose d_alpha once overflowed (exit 1 with a
traceback), ``solve`` with ``--max-iter 0`` (once exit 1, an IndexError),
``sweep`` with ``--tol nan``, ``--rhs nosuch`` or ``--gamma-frac nan``
(each once exit 0, with every row a DomainError), and ``constants`` with
``--nmax -1`` (once exit 0, printing only C),
four ``verify`` runs that exit 2 before any cell: an unknown ``--family``
(once exit 0, every cell passing), ``--depth -4`` and ``--depth -1`` (once
exit 0 on the bounds suite, and 18 FAIL lines on the haar suite), and the
right-inverse suite on ``const-minus-indicator``, whose constant right tail
fails the summability conditions (once exit 0, the suite running the other
families instead), and a ``solve`` refused deep below level 0 at
``--rhs-amplitude 1e308``, whose threshold p^(-alpha ell + gamma (ell + 1)) is
past the overflow guard (exit 2 on a ContractionError that names it as 1 / c,
c the step's factor; once on a MagnitudeError raised while formatting it),
and eight invocations at inputs that once failed otherwise: ``constants`` at a
sigma and at a gamma whose kernel denominator rounds to 0 (exit 2 on a
DivergenceError; once exit 1 on a ZeroDivisionError) and a ``solve`` at that
gamma (exit 2; once exit 3 at the work limit), ``constants`` next to
degeneration, where C is C_0 (once 500 times below it), a ``solve`` at
p = 100000007 whose global hypotheses pass the overflow guard (exit 0; once exit
2 after the solve), a ``cos-decay`` solve at a negative amplitude (exit 0;
once refused for a negative bound_M), ``constants`` within 1e-6 of the boundary,
whose a_bound covers d_abs p^(alpha sigma) (once 10 times below it), and a ``zero``
solve at p = 100000007 whose F_l = 0 passes where p^(-alpha l) underflows (a
max_residual; once "residuals unavailable"),
and four more: a ``--rhs-amplitude 1e306`` solve to level -960 at ``--tol 1e-290``,
whose window floor's budget C p^e once multiplied an underflowed p^e (once k_min -995
with truncation_budget 0), ``apply`` of ``ialpha`` to a left tail p^(-k) at alpha = 1.5,
on the boundary rho = -min(1, alpha) (exit 2 on the I^alpha divergence),
``verify`` of the right-inverse suite on the ``power`` family, and a ``cos-decay``
solve to level 1126 at gamma = 0.9, where the residual's weight p^(gamma n) passes the
overflow guard at level 1123 (exit 0; once exit 2 on that weight, after the solve),
and the deep ``cos-decay`` solve at p = 7, alpha = 1 to level 250 that the ``solve-deep``
benchmark workload is shaped after: 257 of its CSV's 275 rows carry a residual and its
uncertainty, so the residual pass shows in the digest level by level.
Each line is the digest of the exit code, stdout, stderr and written files,
then the arguments; an exception that escapes the CLI counts as exit code 1
with its type and message on stderr, as the console script would exit.
Two versions of the package whose outputs are bit for bit the same print
the same lines; run it once with ``--src`` pointing at the other version's
``src/`` to compare.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SOLVES = (
    "--p 2 --alpha 1.5 --gamma 0.25 --u0 1 --rhs cos-decay",
    "--p 3 --alpha 1 --gamma 0.3 --u0 0.5 --rhs cos-decay --rhs-amplitude 0.075 "
    "--rhs-beta 2.5 --extend-to 120",
    "--p 7 --alpha 0.5 --gamma 0.2 --u0 1.25 --rhs bounded-sigmoid --rhs-amplitude 0.05 "
    "--extend-to 2",
    "--p 2 --alpha 1 --gamma 0 --u0 1 --rhs const --rhs-amplitude 0.2 --rhs-beta 2.5",
    "--p 1000003 --alpha 1.5 --gamma 0.4 --u0 1 --rhs cos-decay",
    "--p 2 --alpha 1.5 --gamma 0.25 --u0 1 --rhs cos-decay --rhs-amplitude 5 --extend-to -1",
)
# kernel constants at a sigma, on the alpha = 1 branch too, and the bound constants at a gamma
CONSTANTS = (
    "--p 2 --alpha 1.5 --sigma 0.3",
    "--p 2 --alpha 1 --sigma 0",
    "--p 3 --alpha 0.5 --gamma 0.2",
)
# invocations that fail: an error row of sweep, exit code 2 at a continuation level, and
# exit code 3 at a level whose steps pass the cap
FAILING = (
    "sweep --p-list 2,100000007 --alpha-list 1.5",
    "solve --p 7 --alpha 1.5 --gamma 0.3 --u0 1 --rhs bounded-sigmoid --extend-to 400",
    "solve --p 3 --alpha 0.8 --gamma 0.1 --u0 0.5 --rhs bounded-sigmoid --rhs-amplitude 0.4 "
    "--extend-to 4 --max-iter 200",
)
# u(p^k) on [-12, 12] between a constant left tail and a decaying power law
FUNCTION = "3 -12 12 0.75 const:0.75 power:0.5:-0.8\n" + "".join(
    f"{k} {0.75 + 0.1 * ((7 * k) % 11 - 5) / (1 + abs(k))!r}\n" for k in range(-12, 13))
# one level between a left tail 5^(440 k) and a zero right tail; level 1 given twice;
# the indicator of the unit sphere; a left tail 2^(-k)
INPUTS = {"u.txt": FUNCTION, "steep.txt": "5 0 0 0.0 power:1.0:440 zero\n0 1.0\n",
          "twice.txt": "2 0 1 0.0 zero zero\n0 1.0\n1 2.0\n1 5.0\n",
          "sphere.txt": "2 0 0 0.0 zero zero\n0 1.0\n",
          "ptail.txt": "2 0 0 0.0 power:1:-1 zero\n0 1.0\n"}
# solves past the radius cap at level -60 and the floor stop where p^(-gamma k) leaves
# the double range: a deep window, the work limit, N near -10 200 with F = 1e306, and
# F = 1e306 where c_uniform F overflows or a step leaves the double range
DEEP = (
    "solve --p 2 --alpha 0.05 --gamma 0.025 --u0 1 --rhs cos-decay",
    "solve --p 2 --alpha 0.5 --gamma 0.499999999 --u0 1 --rhs zero",
    "solve --p 2 --alpha 0.5 --gamma 0.4 --u0 1 --rhs cos-decay --rhs-amplitude 1e306",
    "solve --p 2 --alpha 0.5 --gamma 0.4999 --u0 1 --rhs cos-decay --rhs-amplitude 1e306",
    "solve --p 2 --alpha 0.5 --gamma 0.49 --u0 1 --rhs cos-decay --rhs-amplitude 1e306",
)
# invocations refused before any work: no step allowed at a level, and a grid-wide sweep
# option that every cell would refuse (a tolerance of nan, an rhs outside the catalog,
# a gamma fraction of nan), and a negative --nmax
REFUSED = (
    "solve --p 2 --alpha 1.5 --gamma 0.25 --u0 1 --rhs cos-decay --max-iter 0",
    "sweep --tol nan",
    "sweep --rhs nosuch",
    "sweep --gamma-frac nan",
    "constants --p 2 --alpha 1 --gamma 0.25 --nmax -1",
)
# verify options refused before the first suite runs, and a continuation refused deep
# below level 0
REFUSED_LATER = (
    "verify --suite haar --family nosuch",
    "verify --suite bounds --depth -4",
    "verify --suite haar --depth -1",
    "verify --suite right-inverse --family const-minus-indicator",
    "solve --p 3 --alpha 1 --gamma 0.5 --u0 1 --rhs cos-decay --rhs-amplitude 1e308",
)
# a kernel denominator that rounds to 0, C next to degeneration, global hypotheses past the
# overflow guard, a negative amplitude, a_bound next to the boundary, and F_l = 0 where the
# power underflows
ONCE_FAILING = (
    "constants --p 2 --alpha 0.5 --sigma -0.9999999999999999",
    "constants --p 2 --alpha 0.5 --gamma 0.49999999999999994",
    "solve --p 2 --alpha 0.5 --gamma 0.49999999999999994 --u0 1 --rhs zero",
    "constants --p 2 --alpha 0.5 --gamma 0.499999999 --nmax 2",
    "solve --p 100000007 --alpha 4 --gamma 0.5 --u0 1 --rhs cos-decay --extend-to 1",
    "solve --p 2 --alpha 1.5 --gamma 0.25 --u0 1 --rhs cos-decay --rhs-amplitude -0.1",
    "constants --p 2 --alpha 0.5 --sigma -0.9999999",
    "solve --p 100000007 --alpha 1.5 --gamma 0.5 --u0 1 --rhs zero --extend-to 20",
)

# a window floor certified where p^e alone underflows: C ~ M = 1e306 must scale it as one power
DEEP_FLOOR = ("--p 2 --alpha 1.5 --gamma 0.4 --u0 0 --rhs cos-decay --rhs-amplitude 1e306 "
              "--extend-to -960 --tol 1e-290")


def invocations(tmp: Path) -> list:
    for name, text in INPUTS.items():
        (tmp / name).write_text(text)
    runs = [["sweep"], ["sweep", "--p-list", "2,7", "--alpha-list", "0.999999999,1,1.000000001"]]
    for i, line in enumerate(SOLVES):
        runs.append(["solve", *line.split(), "--solution-out", str(tmp / f"sol{i}.txt"),
                     "--report-out", str(tmp / f"rep{i}.json")])
    for op, alpha in (("dalpha", "1.5"), ("dalpha", "0.5"), ("ialpha", "1.5"), ("ialpha", "1")):
        runs.append(["apply", "--op", op, "--alpha", alpha, "--input", str(tmp / "u.txt"),
                     "--levels=-30:30"])
    runs.append(["apply", "--op", "ialpha", "--alpha", "2", "--input", str(tmp / "steep.txt")])
    # one level past the overflow guard of 3^(1.5 k): the error names level 425, where it starts
    runs.append(["apply", "--op", "ialpha", "--alpha", "1.5", "--input", str(tmp / "u.txt"),
                 "--levels", "430"])
    runs += [["constants", *line.split()] for line in CONSTANTS]
    return runs + [line.split() for line in FAILING] + [
        ["verify"], ["verify", "--suite", "dalpha-oracle", "--depth", "3"],
        ["apply", "--op", "dalpha", "--alpha", "1.5", "--input", str(tmp / "twice.txt")],
        ["apply", "--op", "dalpha", "--alpha", "1100", "--input", str(tmp / "sphere.txt")],
    ] + [line.split() for line in DEEP + REFUSED + REFUSED_LATER + ONCE_FAILING] + [
        ["solve", *DEEP_FLOOR.split()],
        ["apply", "--op", "ialpha", "--alpha", "1.5", "--input", str(tmp / "ptail.txt")],
        ["verify", "--suite", "right-inverse", "--family", "power"],
        "solve --p 2 --alpha 1 --gamma 0.9 --u0 1 --rhs cos-decay --extend-to 1126".split(),
        ("solve --p 7 --alpha 1 --gamma 0.3 --u0 1.25 --rhs cos-decay --rhs-amplitude 0.075 "
         "--rhs-beta 2.5 --extend-to 250").split(),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, parser.parse_args().src)
    from padicradial import cli

    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for argv in invocations(tmp):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    code = 1
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            digest = hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode())
            for path in sorted(tmp.glob("*")):
                if path.name not in INPUTS:
                    digest.update(path.name.encode() + b"\n" + path.read_bytes())
                    path.unlink()
            shown = " ".join(a.replace(name, "$TMP") for a in argv)
            print(digest.hexdigest(), shown)


if __name__ == "__main__":
    main()
