"""Command-line front end.

Subcommands: verify, solve-bae, partition, efp-finite, density, efp-thermo.
Outputs are JSON (or CSV for density profiles) with the fully resolved
configuration embedded, so a run can be reproduced from its own output.
Exit codes: 0 success, 1 verification failure, 2 bad input, 3 convergence
failure, 4 singular parameters.
"""

import argparse
import csv
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


def _parse_mu(text, M):
    """Inhomogeneity source: 'homogeneous', a comma list, or @file."""
    if text is None or text == "homogeneous":
        return (0.0,) * M
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read().strip()
    vals = tuple(float(tok) for tok in text.replace(",", " ").split())
    if M and len(vals) != M:
        raise ValueError(f"expected {M} inhomogeneities, got {len(vals)}")
    return vals


def _load_config_file(path):
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, val = line.split("=", 1)
            else:
                key, val = line.split(None, 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _coerce(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _apply_config_defaults(args, argv):
    """Config file supplies defaults; flags given on the command line win."""
    if not getattr(args, "config", None):
        return args
    file_vals = _load_config_file(args.config)
    for key, val in file_vals.items():
        if not hasattr(args, key):
            raise ValueError(f"unknown config key: {key}")
        flag = "--" + key.replace("_", "-")
        if any(tok == flag or tok.startswith(flag + "=") for tok in argv):
            continue  # explicit flag overrides the file
        setattr(args, key, _coerce(val))
    return args


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
    mu = _parse_mu(args.mu, M)
    spec = LatticeSpec(M, mu)
    ns, vs = bethe.ground_state_numbers(spec.N)
    if getattr(args, "numbers", None):
        ns = tuple(float(t) for t in args.numbers.replace(",", " ").split())
    if getattr(args, "parities", None):
        vs = tuple(int(t) for t in args.parities.replace(",", " ").split())
    return bethe.solve_bae(ns, vs, spec, AnisotropyParam(args.gamma), tol=args.tol)


def _cmd_solve_bae(args):
    roots = _resolve_roots(args)
    config = {"gamma": args.gamma, "M": len(roots.mu), "mu": args.mu or "homogeneous",
              "tol": args.tol}
    payload = _payload("solve-bae", config, roots.to_json_dict())
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_partition(args):
    roots = _resolve_roots(args)
    spec = roots.spec
    config = {"gamma": args.gamma, "M": spec.M, "mu": args.mu or "homogeneous", "tol": args.tol}
    z = algebra.partition_bruteforce(roots.values, spec, roots.gamma)
    norm = determinant.gaudin_norm(roots)
    results = {
        "Z_bruteforce": [z.real, z.imag],
        "norm_determinant": [norm.real, norm.imag],
        "r_sign": roots.r_sign,
        "relative_difference": abs(z - roots.r_sign * norm) / abs(z),
    }
    payload = _payload("partition", config, results)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_efp_finite(args):
    roots = _resolve_roots(args)
    value = determinant.efp_finite(roots, args.k, args.n)
    config = {
        "gamma": args.gamma, "M": len(roots.mu), "mu": args.mu or "homogeneous",
        "k": args.k, "n": args.n, "tol": args.tol,
    }
    brute = None
    if len(roots.mu) <= algebra.BRUTE_FORCE_MAX_M:
        brute = algebra.correlator_bruteforce(
            roots.values, roots.spec, roots.gamma, range(args.k + 1, args.k + args.n + 1)
        )
    results = {"efp": value, "window_columns": list(range(args.k + 1, args.k + args.n + 1)),
               "bruteforce": brute}
    payload = _payload("efp-finite", config, results)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_density(args):
    gamma = AnisotropyParam(args.gamma)
    grid = thermo.contour_grid(gamma, args.cutoff, args.points)
    mu = _parse_mu(args.mu, 0) if args.mu not in (None, "homogeneous") else None
    theta = thermo.ground_state_theta(grid)
    prof = thermo.solve_density(theta, grid, gamma, mu=mu, check_resolution=True)
    rows = sorted(
        zip(grid.shifted, grid.x, prof.rho_tot, prof.rho_p, prof.theta),
        key=lambda r: (r[0], r[1] if not r[0] else -r[1]),  # traversal order
    )
    out = args.out or "density.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["branch", "x", "rho_tot", "rho_p", "theta"])
        for shifted, x, rt, rp, th in rows:
            writer.writerow(
                ["shifted" if shifted else "real", f"{x:.17g}", f"{rt:.17g}",
                 f"{rp:.17g}", f"{th:.17g}"]
            )
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
    if args.mu_window:
        window = [float(t) for t in args.mu_window.replace(",", " ").split()]
        if len(window) != args.n:
            raise ValueError(f"--mu-window must list {args.n} values")
    else:
        window = [0.0] * args.n
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="svdwbc",
        description="Six-vertex model with domain wall boundaries: "
                    "verification suite, Bethe solver, densities and "
                    "emptiness formation probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_lattice=True):
        p.add_argument("--gamma", type=float, default=0.6, help="anisotropy in (0, pi/2)")
        p.add_argument("--config", type=str, default=None,
                       help="key=value file supplying flag defaults")
        p.add_argument("--out", type=str, default=None, help="output file")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--tol", type=float, default=1e-12)
        if with_lattice:
            p.add_argument("--M", type=int, default=0, help="lattice size (even)")
            p.add_argument("--N", type=int, default=0, help="number of roots (M = 2N)")
            p.add_argument("--mu", type=str, default=None,
                           help="'homogeneous', comma list, or @file")

    p = sub.add_parser("verify", help="run the brute-force cross-check battery")
    common(p)
    p.set_defaults(M=4, tol=None)
    p.add_argument("--draws", type=int, default=100)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve-bae", help="solve the Bethe equations "
                                         "(ground-state numbers by default)")
    common(p)
    p.add_argument("--numbers", type=str, default=None,
                   help="comma list of quantum numbers (default: symmetric filling)")
    p.add_argument("--parities", type=str, default=None,
                   help="comma list of +-1 parities (default: all +1)")
    p.set_defaults(func=_cmd_solve_bae)

    p = sub.add_parser("partition", help="partition function, brute force vs determinant")
    common(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("efp-finite", help="finite-size emptiness formation probability")
    common(p)
    p.add_argument("--k", type=int, default=0, help="window offset (columns k+1..k+n)")
    p.add_argument("--n", type=int, default=1, help="window length")
    p.set_defaults(func=_cmd_efp_finite)

    p = sub.add_parser("density", help="thermodynamic density profile (CSV)")
    common(p, with_lattice=False)
    p.add_argument("--mu", type=str, default=None,
                   help="'homogeneous' or comma list for the averaged driving term")
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--points", type=int, default=256, help="points per branch")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("efp-thermo", help="multiple-integral emptiness formation probability")
    common(p, with_lattice=False)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--mu-window", dest="mu_window", type=str, default=None,
                   help="window column values (default: homogeneous zeros)")
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--samples", type=int, default=200000, help="Monte Carlo samples (n >= 4)")
    p.set_defaults(func=_cmd_efp_thermo)

    return parser


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        args = _apply_config_defaults(args, argv)
        return args.func(args)
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
