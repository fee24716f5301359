"""Command-line front end.

Subcommands: ``forward`` (march the scheme and dump the fields),
``reference`` (closed-form values at chosen points), ``make-obs``
(synthetic clean + noisy observation files), ``invert`` (recover the
orders from an observation file), ``experiment`` (the full noise-sweep
table for a builtin or configured problem).

Exit codes: 0 success, 1 validation/config error, 2 numerical failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import io as fio
from .errors import NumericalError, QuadratureError, ValidationError
from .experiments import BUILTIN_EXPERIMENTS, ExperimentSpec, builtin_experiment, run_experiment
from .inversion import _replicate_seeds, add_noise, invert_orders
from .laplace import invert_with_error
from .solver import extract_observation, scheme_constants, solve_forward

__all__ = ["main"]

_IDS = ", ".join(sorted(BUILTIN_EXPERIMENTS))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default, which this
    # interface reserves for numerical failures; usage errors are
    # validation errors here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracmim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, seed=False):
        p.add_argument(
            "--config", required=config_required, help="path to a JSON experiment config"
        )
        p.add_argument("--out", default=None, help="output directory (default: .)")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = sub.add_parser("forward", help="solve the forward problem and write the fields")
    common(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("reference", help="closed-form reference values at config points")
    common(p)
    p.set_defaults(func=cmd_reference)

    p = sub.add_parser("make-obs", help="write clean and noisy observation files")
    common(p, seed=True)
    p.set_defaults(func=cmd_make_obs)

    p = sub.add_parser("invert", help="recover the fractional orders from observations")
    common(p)
    p.add_argument("--obs", required=True, help="observation CSV (t,u1) to invert")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("experiment", help="run a full noise-sweep experiment table")
    p.add_argument(
        "table", nargs="?", help=f"builtin experiment id ({_IDS}); omit when using --config"
    )
    common(p, config_required=False, seed=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def _load_spec(args) -> ExperimentSpec:
    table = getattr(args, "table", None)  # only ``experiment`` takes a builtin id
    if table and args.config:
        raise ValidationError("give either a builtin table id or --config, not both")
    if table:
        spec = builtin_experiment(table)
    elif args.config:
        spec = fio.load_config(args.config)
    else:
        raise ValidationError(f"experiment needs a builtin table id ({_IDS}) or --config")
    if getattr(args, "seed", None) is not None:  # only make-obs and experiment take --seed
        spec = spec.with_seed(args.seed)
    return spec


def _out_dir(args, spec: ExperimentSpec) -> Path:
    """The output directory, checked but not made.

    A command makes it just before it writes its first file, so a refused
    run leaves none behind.  One that could not be made or written to is
    refused up front, judged on its nearest existing ancestor, so that a
    long run does not fail only when it writes.
    """
    out = Path(args.out or spec.out_dir or ".")
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"output directory {out}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(f"output directory {out} is not writable")
    return out


def cmd_forward(args, spec: ExperimentSpec, out: Path) -> int:
    sol = solve_forward(spec.params, spec.grid)
    obs = extract_observation(sol, spec.x0)
    out.mkdir(parents=True, exist_ok=True)
    fio.write_solution_csv(out / "solution.csv", sol)
    fio.write_observation(out / "observation.csv", obs)
    if not args.quiet:
        mobile, immobile = scheme_constants(spec.params, spec.grid).dominance_margins()
        print(
            f"grid {spec.grid.m}x{spec.grid.n}, T={spec.grid.T:g}: "
            f"u1 in [{sol.u1.min():.6g}, {sol.u1.max():.6g}], "
            f"u2 in [{sol.u2.min():.6g}, {sol.u2.max():.6g}]"
        )
        print(
            f"{spec.grid.n} time steps, dominance margins {mobile:.6g} (mobile) "
            f"and {immobile:.6g} (immobile)"
        )
        print(f"wrote {out / 'solution.csv'} and {out / 'observation.csv'}")
    return 0


def cmd_reference(args, spec: ExperimentSpec, out: Path) -> int:
    rows = []
    for x, t in spec.reference_points:
        try:
            u1, u2, err = invert_with_error(x, t, spec.params, spec.quadrature)
            rows.append((x, t, u1, u2, err))
        except QuadratureError as e:
            print(f"warning: ({x:g}, {t:g}): {e}", file=sys.stderr)
            rows.append((x, t, float("nan"), float("nan"), float("nan")))
    out.mkdir(parents=True, exist_ok=True)
    fio.write_reference_csv(out / "reference.csv", rows)
    if not args.quiet:
        print(f"wrote {len(rows)} reference value(s) to {out / 'reference.csv'}")
    return 0


def cmd_make_obs(args, spec: ExperimentSpec, out: Path) -> int:
    clean = extract_observation(solve_forward(spec.params, spec.grid), spec.x0)
    out.mkdir(parents=True, exist_ok=True)
    fio.write_observation(out / "obs_clean.csv", clean)
    written = [out / "obs_clean.csv"]
    for delta in spec.noise_levels:
        seed = _replicate_seeds(spec.seed, delta, 1)[0]
        noisy = add_noise(clean, delta, seed)
        path = out / f"obs_noise_{delta:g}.csv"
        fio.write_observation(path, noisy)
        written.append(path)
    if not args.quiet:
        print(f"wrote {len(written)} observation file(s) to {out}")
    return 0


def cmd_invert(args, spec: ExperimentSpec, out: Path) -> int:
    obs = fio.read_observation(args.obs, x0=spec.x0)
    result = invert_orders(obs, spec.params, spec.grid, spec.inversion, spec.exact_orders)
    out.mkdir(parents=True, exist_ok=True)
    fio.write_inversion_report(
        out / "inversion_report.json", result, out / "convergence_trace.csv"
    )
    if not args.quiet:
        msg = (
            f"recovered (alpha, gamma) = ({result.z_inv[0]:.8f}, {result.z_inv[1]:.8f}) "
            f"in {result.iterations} iteration(s), stop: {result.stop_reason}"
        )
        if result.rel_error is not None:
            msg += f", rel error {result.rel_error:.3e}"
        print(msg)
        print(f"wrote {out / 'inversion_report.json'} and {out / 'convergence_trace.csv'}")
    return 0


def _table_base(name: str) -> str:
    """``table_<name>``, the stem of a table's files in one directory.

    A name that cannot be part of such a file name is refused, so that a
    table is not run only to fail when it is written.
    """
    if any(c and c in name for c in (os.sep, os.altsep, "\0")):
        raise ValidationError(f"table name {name!r} holds a path separator or a NUL")
    base = f"table_{name}"
    try:
        size = len(os.fsencode(f"{base}.json"))  # the longest of its three file names
    except UnicodeEncodeError:
        raise ValidationError(f"table name {name!r} cannot be encoded as a file name") from None
    if size > 255:  # NAME_MAX of common file systems
        raise ValidationError(
            f"a table name of {len(name)} characters makes table_<name>.json longer than 255 bytes"
        )
    return base


def cmd_experiment(args, spec: ExperimentSpec, out: Path) -> int:
    base = _table_base(spec.name)
    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    table = run_experiment(spec, progress=progress)
    out.mkdir(parents=True, exist_ok=True)
    fio.write_experiment_table(out / f"{base}.csv", table)
    if not args.quiet:
        print(table.to_markdown(), end="")
        stem = out / base
        print(f"wrote {stem}.csv, {stem}.md and {stem}.json")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _load_spec(args)
        return args.func(args, spec, _out_dir(args, spec))
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
