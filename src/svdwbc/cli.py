"""Command-line front end.

Subcommands: verify, solve-bae, partition, efp-finite, density, efp-thermo.
Outputs are JSON (or CSV for density profiles) with the fully resolved
configuration embedded, so a run can be reproduced from its own output.
Exit codes: 0 success, 1 verification failure, 2 bad input, 3 convergence
failure, 4 singular parameters.
"""

import argparse
import functools
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import algebra, bethe, determinant, thermo, verify
from .algebra import AnisotropyParam, LatticeSpec
from .errors import ConvergenceError, PoleError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_SINGULAR = 4


def _parse_list(text, count, what, kind=float):
    """The values of a list flag: a comma (or blank) separated list, or @file
    holding one; exactly `count` of them unless count is None."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    vals = tuple(kind(tok) for tok in text.replace(",", " ").split())
    if count is not None and len(vals) != count:
        raise ValueError(f"expected {count} {what}, got {len(vals)}")
    return vals


def _config_flags(path, parser):
    """The lines `key = value` (or `key value`) of a config file as the
    flags `--key=value` of `parser`, the subcommand's own parser; '#'
    starts a comment."""
    flags = []
    with open(path) as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, val = (line.split("=" if "=" in line else None, 1) + [""])[:2]
            key, val = key.strip(), val.strip()
            if not val:
                raise ValueError(f"{path}, line {number}: no value for config key {key!r}")
            flag = "--" + key.replace("_", "-")
            if flag not in parser._option_string_actions:
                raise ValueError(f"unknown config key: {key}")
            flags.append(f"{flag}={val}")
    return flags


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _payload(command, config, results):
    return {
        "command": command,
        "config": config,
        "created": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }


def _cmd_verify(args):
    gamma = AnisotropyParam(args.gamma)
    checks = verify.run_battery(gamma, M=args.M, seed=args.seed, draws=args.draws, tol=args.tol)
    config = {
        "gamma": args.gamma,
        "M": args.M,
        "seed": args.seed,
        "draws": args.draws,
        "tol": args.tol,
    }
    ok = all(c["passed"] for c in checks)
    payload = _payload("verify", config, {"checks": checks, "all_passed": ok})
    _emit(payload, args.out)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['check']:34s} residual={c['residual']:.3e} "
              f"tol={c['tolerance']:.1e}", file=sys.stderr)
    if not ok:
        first = next(c["check"] for c in checks if not c["passed"])
        print(f"verification failed: first failing check is {first}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _resolve_roots(args):
    M = args.M if args.M else 2 * args.N
    if not M:
        raise ValueError("provide --M or --N")
    if args.N and M != 2 * args.N:
        raise ValueError(f"--M {M} and --N {args.N} disagree: M = 2N")
    homogeneous = args.mu in (None, "homogeneous")
    mu = (0.0,) * M if homogeneous else _parse_list(args.mu, M, "inhomogeneities")
    spec = LatticeSpec(M, mu)
    ns, vs = bethe.ground_state_numbers(spec.N)
    if getattr(args, "numbers", None):
        ns = _parse_list(args.numbers, spec.N, "quantum numbers")
    if getattr(args, "parities", None):
        vs = _parse_list(args.parities, spec.N, "parities", int)
    return bethe.solve_bae(ns, vs, spec, AnisotropyParam(args.gamma), tol=args.tol)


def _cmd_solve_bae(args):
    roots = _resolve_roots(args)
    config = {"gamma": args.gamma, "M": len(roots.mu), "mu": args.mu or "homogeneous",
              "tol": args.tol}
    payload = _payload("solve-bae", config, roots.to_json_dict())
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_partition(args):
    """Z = r_sign <N|N> at any M: log|<N|N>| always, the norm where it is
    finite, and Z by brute force up to algebra.BRUTE_FORCE_MAX_M; a value
    that does not apply is null."""
    roots = _resolve_roots(args)
    spec = roots.spec
    config = {"gamma": args.gamma, "M": spec.M, "mu": args.mu or "homogeneous", "tol": args.tol}
    norm = determinant.gaudin_norm(roots)
    results = {
        "Z_bruteforce": None,
        "norm_determinant": [norm.real, norm.imag] if np.isfinite(norm) else None,
        "log_abs_norm": float(determinant.log_gaudin_norm(roots)[1]),
        "r_sign": roots.r_sign,
        "relative_difference": None,
    }
    if spec.M <= algebra.BRUTE_FORCE_MAX_M:
        z = algebra.partition_bruteforce(roots.values, spec, roots.gamma)
        results["Z_bruteforce"] = [z.real, z.imag]
        results["relative_difference"] = abs(z - roots.r_sign * norm) / abs(z)
    payload = _payload("partition", config, results)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_efp_finite(args):
    """One window at offset --k, or with --k all every offset of one profile;
    the payload's efp, window_columns and bruteforce are then lists over k."""
    roots = _resolve_roots(args)
    M, n = len(roots.mu), args.n
    brute = None
    if args.k == "all":
        value = determinant.efp_profile(roots, n).tolist()
        columns = [list(range(k + 1, k + n + 1)) for k in range(M - n + 1)]
        if M <= algebra.BRUTE_FORCE_MAX_M:
            pair = algebra.correlator_pair(roots.values, roots.spec, roots.gamma)
            brute = [algebra.correlator_from_pair(pair, roots.spec, c).real for c in columns]
    else:
        value = determinant.efp_finite(roots, args.k, n)
        columns = list(range(args.k + 1, args.k + n + 1))
        if M <= algebra.BRUTE_FORCE_MAX_M:
            brute = algebra.correlator_bruteforce(roots.values, roots.spec, roots.gamma, columns)
    config = {
        "gamma": args.gamma, "M": M, "mu": args.mu or "homogeneous",
        "k": args.k, "n": n, "tol": args.tol,
    }
    results = {"efp": value, "window_columns": columns, "bruteforce": brute}
    payload = _payload("efp-finite", config, results)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_density(args):
    gamma = AnisotropyParam(args.gamma)
    grid = thermo.contour_grid(gamma, args.cutoff, args.points)
    mu = None if args.mu in (None, "homogeneous") else _parse_list(args.mu, None, "centres")
    theta = thermo.ground_state_theta(grid)
    prof = thermo.solve_density(theta, grid, gamma, mu=mu, check_resolution=True)
    # traversal order: the real branch left to right, then the shifted one
    # right to left; lexsort is stable, so equal keys keep the node order
    order = np.lexsort((np.where(grid.shifted, -grid.x, grid.x), grid.shifted))
    branch = np.where(grid.shifted, "shifted", "real")[order].tolist()
    cols = [a[order].tolist() for a in (grid.x, prof.rho_tot, prof.rho_p, prof.theta)]
    out = args.out or "density.csv"
    with open(out, "w", newline="") as fh:
        fh.write("branch,x,rho_tot,rho_p,theta\r\n" + "".join(
            "%s,%.17g,%.17g,%.17g,%.17g\r\n" % row for row in zip(branch, *cols)
        ))
    meta = {
        "config": {"gamma": args.gamma, "cutoff": grid.cutoff, "points": args.points,
                   "mu": args.mu or "homogeneous"},
        "filling": prof.filling(),
        "rho_tot_0": float(np.real(prof.rho_tot_at(0.0))),
        "csv": out,
    }
    with open(out + ".meta.json", "w") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(json.dumps(meta, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_efp_thermo(args):
    gamma = AnisotropyParam(args.gamma)
    grid = thermo.contour_grid(gamma, args.cutoff, args.points)
    theta = thermo.ground_state_theta(grid)
    # a negative n reaches efp_thermo, which rejects it before any window count
    window = (_parse_list(args.mu_window, args.n, "window columns")
              if args.mu_window and args.n >= 0 else (0.0,) * args.n)
    res = thermo.efp_thermo(
        args.n, window, theta, grid, gamma, mc_samples=args.samples, seed=args.seed,
    )
    config = {
        "gamma": args.gamma, "n": args.n, "mu_window": window,
        "cutoff": grid.cutoff, "points": args.points,
        "samples": res.samples, "seed": args.seed,
    }
    results = {
        "efp": res.value,
        "imag_residual": res.imag_residual,
        "stderr": res.stderr,
    }
    payload = _payload("efp-thermo", config, results)
    _emit(payload, args.out)
    return EXIT_OK


def _shared_flags(p):
    p.add_argument("--gamma", type=float, default=0.6, help="anisotropy in (0, pi/2)")
    p.add_argument("--config", type=str, default=None,
                   help="key=value file supplying flag defaults")
    p.add_argument("--out", type=str, default=None, help="output file")


def _lattice_flags(p, roots=True):
    """--tol and --M; with `roots` also the lattice's --N and --mu."""
    _shared_flags(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--M", type=int, default=0, help="lattice size (even)")
    if roots:
        p.add_argument("--N", type=int, default=0, help="number of roots (M = 2N)")
        p.add_argument("--mu", type=str, default=None,
                       help="'homogeneous', comma list, or @file")


def _grid_flags(p):
    _shared_flags(p)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--points", type=int, default=256, help="points per branch")


def _verify_flags(p):
    _lattice_flags(p, roots=False)
    p.set_defaults(M=4, tol=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--draws", type=int, default=100)


def _solve_bae_flags(p):
    _lattice_flags(p)
    p.add_argument("--numbers", type=str, default=None,
                   help="quantum numbers, comma list or @file (default: symmetric filling)")
    p.add_argument("--parities", type=str, default=None,
                   help="+-1 parities, comma list or @file (default: all +1)")


def _offset(text):
    """--k: an integer offset or 'all'."""
    if text == "all":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'all', got {text!r}") from None


def _efp_finite_flags(p):
    _lattice_flags(p)
    p.add_argument("--k", type=_offset, default=0,
                   help="window offset (columns k+1..k+n), or 'all' for every offset")
    p.add_argument("--n", type=int, default=1, help="window length")


def _density_flags(p):
    _grid_flags(p)
    p.add_argument("--mu", type=str, default=None,
                   help="'homogeneous', comma list or @file for the averaged driving term")


def _efp_thermo_flags(p):
    _grid_flags(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--mu-window", dest="mu_window", type=str, default=None,
                   help="window columns, comma list or @file (default: homogeneous zeros)")
    p.add_argument("--samples", type=int, default=200000, help="Monte Carlo samples (n >= 4)")
    p.add_argument("--seed", type=int, default=42)


# name -> (help line, function adding its flags, handler)
_SUBCOMMANDS = {
    "verify": ("run the brute-force cross-check battery", _verify_flags, _cmd_verify),
    "solve-bae": ("solve the Bethe equations (ground-state numbers by default)",
                  _solve_bae_flags, _cmd_solve_bae),
    "partition": ("partition function, brute force vs determinant", _lattice_flags,
                  _cmd_partition),
    "efp-finite": ("finite-size emptiness formation probability", _efp_finite_flags,
                   _cmd_efp_finite),
    "density": ("thermodynamic density profile (CSV)", _density_flags, _cmd_density),
    "efp-thermo": ("multiple-integral emptiness formation probability", _efp_thermo_flags,
                   _cmd_efp_thermo),
}


def build_parser(command=None):
    """The argument parser.  For a known `command` only that subcommand's
    parser is built; otherwise (no command, --help, a misspelling) all of
    them, so the top-level help and the invalid-choice message list every
    subcommand.  The top-level usage reads the same either way.  Each of
    these seven parsers is built once per process and then shared, so a
    caller must not change the parser it is given."""
    return _parser(command if command in _SUBCOMMANDS else None)


@functools.cache
def _parser(command):
    """build_parser for a known subcommand name, or None for all of them.
    Argparse looks up stdout, stderr and the terminal width when it prints,
    not when it is built, so a shared parser prints what a new one would."""
    parser = argparse.ArgumentParser(
        prog="svdwbc",
        description="Six-vertex model with domain wall boundaries: "
                    "verification suite, Bethe solver, densities and "
                    "emptiness formation probabilities.",
    )
    names = [command] if command else list(_SUBCOMMANDS)
    # one subparser would shrink the usage's {choices}; an explicit metavar
    # keeps it, and is left unset otherwise because argparse then names the
    # argument by it in the invalid-choice message
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_, add_flags, func = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_)
        add_flags(p)
        p.set_defaults(func=func)
    return parser


def _subparser(parser, command):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _parse_args(parser, argv):
    """parser.parse_args(argv), except that when argv starts with the
    subcommand, arguments it does not take are reported by the subcommand's
    parser, whose usage lists the flags it does take (argparse would report
    them with the top-level usage)."""
    args, extra = parser.parse_known_args(argv)
    if extra:
        if argv[0] == args.command:
            parser = _subparser(parser, args.command)
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = _parse_args(parser, argv)
        if args.config:
            # the file's flags go first, so the command line's own win
            flags = _config_flags(args.config, _subparser(parser, args.command))
            args = _parse_args(parser, [args.command, *flags, *argv[1:]])
        return args.func(args)
    except SystemExit as exc:  # argparse exits 2 on a bad flag and 0 after --help
        return exc.code
    except PoleError as exc:
        print(f"singular parameters: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
