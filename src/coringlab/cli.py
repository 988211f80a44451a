"""Command-line front end: validate inputs, run the checks, emit reports.

Commands
    validate     algebra / extension / bialgebra axiom report for input files
    cohomology   relative cochain dims; tensor-power dims when certified
    amitsur      tensor-power complex of the extension's coring + DGA laws
    verify-iso   the full comparison-isomorphism check suite
    gs-compare   simplicial vs incidence-extension cohomology dims
    hopf-check   HH^n of K over its unit line k ⊆ K against dim K times
                 the dual cobar dims

Reports are deterministic: json mode never includes wall-clock data
unless --timing is passed, so identical inputs give identical bytes.
Exit status is 0 exactly when every emitted check passed, 1 when one
failed, and 2 for unusable inputs (parse errors, caps, bad flags, algebras
that break their own laws).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .algebras import dual_hopf, trivial_extension, validate
from .amitsur import build_amitsur
from .corings import build_f2, endo_coring, hopf_coring, sweedler_coring
from .dga import DEFAULT_TRIALS, cohomology_dims, verify_dga
from .errors import AxiomError, CoringLabError, NoD2CertificateError, SchemaError
from .hochschild import DEFAULT_DEGREE, HARD_DEGREE_CAP, build_complex
from .isomorphism import verify_main_theorem
from .linalg import Field
from .reporting import Report
from .schemas import detect_kind, load_algebra, load_extension, load_hopf, read_json
from .simplicial import DEFAULT_DIM_CAP, GS_DEGREE_CAP, gs_compare, parse_complex

# gs-compare defaults shallower than the algebraic commands: the
# incidence algebra of even a small complex has a large tensor square.
DEGREE_DEFAULTS = {"gs-compare": 1}
# gs-compare builds the cochain complex one degree above its own top
DEGREE_CAPS = {"gs-compare": GS_DEGREE_CAP}


def _payload(cfg: argparse.Namespace, report: Report) -> dict:
    return {
        "command": cfg.command,
        "inputs": [str(p) for p in cfg.paths],
        "config": {
            "cap": cfg.cap,
            "format": cfg.out_format,
            "max_degree": cfg.max_degree,
            "prime": cfg.prime,
            "seed": cfg.seed,
            "trials": cfg.trials,
        },
        "ok": report.ok,
        "checks": [c.to_dict() for c in report.checks],
    }


def _markdown(payload: dict) -> str:
    lines = [f"# coringlab {payload['command']}", ""]
    for path in payload["inputs"]:
        lines.append(f"- input: `{path}`")
    config = ", ".join(f"{k}={v}" for k, v in sorted(payload["config"].items()))
    lines.append(f"- config: {config}")
    lines.append(f"- result: {'pass' if payload['ok'] else 'FAIL'}")
    if "elapsed_seconds" in payload:
        lines.append(f"- elapsed: {payload['elapsed_seconds']}s")
    lines += ["", "| check | status | detail |", "| --- | --- | --- |"]
    for check in payload["checks"]:
        detail = ", ".join(f"{k}={v}" for k, v in check["detail"].items())
        status = "pass" if check["ok"] else "FAIL"
        lines.append(f"| {check['name']} | {status} | {detail} |")
    return "\n".join(lines) + "\n"


def _emit(payload: dict, out_format: str) -> None:
    # numpy values become plain JSON ones, so both formats print the same;
    # markdown reads the plain values back, in the checks' own key order
    if out_format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, default=lambda o: o.tolist()))
    else:
        print(_markdown(json.loads(json.dumps(payload, default=lambda o: o.tolist()))), end="")


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed arguments and returns a Report


def _require_laws(**algebras) -> None:
    """Raise AxiomError naming the first violated identity of any algebra."""
    for role, a in algebras.items():
        res = validate(a)
        if not res.ok:
            raise AxiomError(f"{role} algebra laws fail: {res.failures[0]}")


def _load_extension(cfg: argparse.Namespace):
    e = load_extension(read_json(cfg.paths[0]))
    _require_laws(ambient=e.ambient, sub=e.sub)
    return e


def cmd_validate(cfg: argparse.Namespace) -> Report:
    report = Report("validate")
    for path in cfg.paths:
        name = Path(path).name
        try:
            obj = read_json(path)
            kind = detect_kind(obj)
            if kind == "algebra":
                a = load_algebra(obj)
                res = validate(a)
                report.add(f"{name}: algebra laws", res.ok,
                           dim=a.dim, prime=a.p, failures=res.failures)
            elif kind == "extension":
                e = load_extension(obj)
                ambient, sub = validate(e.ambient), validate(e.sub)
                report.add(f"{name}: ambient algebra laws", ambient.ok,
                           dim=e.ambient.dim, failures=ambient.failures)
                report.add(f"{name}: subalgebra laws", sub.ok,
                           dim=e.sub.dim, failures=sub.failures)
                report.add(f"{name}: inclusion axioms", True, prime=e.p)
            else:
                load_hopf(obj)
                report.add(f"{name}: bialgebra axioms", True,
                           dim=obj["dim"], prime=obj["field"]["prime"])
        except SchemaError as err:
            report.add(f"{name}: parse", False, error=str(err))
        except AxiomError as err:
            report.add(f"{name}: axioms", False, error=str(err))
    return report


def cmd_cohomology(cfg: argparse.Namespace) -> Report:
    e = _load_extension(cfg)
    report = Report("cohomology")
    cc = build_complex(e, max(2, cfg.max_degree))
    hoch = cohomology_dims(cc)[:cfg.max_degree]
    report.add("hochschild cohomology", True, dims=hoch)
    cert = build_f2(e, cc)
    if cert.bijective:
        x = build_amitsur(endo_coring(e, cert), cfg.max_degree)
        amit = cohomology_dims(x)
        report.add("amitsur cohomology", True, dims=amit)
        report.add("cohomology dims agree", hoch == amit,
                   hochschild=hoch, amitsur=amit)
    else:
        # documented downgrade: emit the certificate numbers, keep exit 0
        report.add("amitsur section", True,
                   status="skipped: no depth-two certificate",
                   hom_dim=cert.hom_dim, square_dim=cert.square_dim,
                   f2_rank=cert.f2_rank)
    return report


def cmd_amitsur(cfg: argparse.Namespace) -> Report:
    e = _load_extension(cfg)
    cert = build_f2(e)
    if cert.bijective:
        coring, kind = endo_coring(e, cert), "endomorphism"
    else:
        coring, kind = sweedler_coring(e), "sweedler"
    x = build_amitsur(coring, cfg.max_degree)
    report = Report("amitsur")
    report.add("coring", True, kind=kind,
               carrier_dim=coring.carrier_dim, base_dim=coring.base.dim)
    report.add("omega dims", True, dims=x.dims())
    report.add("cohomology", True, dims=cohomology_dims(x))
    laws = verify_dga(x, trials=cfg.trials, seed=cfg.seed)
    report.checks.extend(laws.checks)
    return report


def cmd_verify_iso(cfg: argparse.Namespace) -> Report:
    e = _load_extension(cfg)
    try:
        witness = verify_main_theorem(e, max_degree=cfg.max_degree,
                                      trials=cfg.trials, seed=cfg.seed)
    except NoD2CertificateError as err:
        report = Report("verify-iso")
        report.add("depth-two certificate", False, error=str(err))
        return report
    return witness.report


def cmd_gs(cfg: argparse.Namespace) -> Report:
    text = Path(cfg.paths[0]).read_text(encoding="utf-8")
    s = parse_complex(text, cap=cfg.cap)
    return gs_compare(s, Field(cfg.prime), max_n=cfg.max_degree, cap=cfg.cap)


def cmd_hopf(cfg: argparse.Namespace) -> Report:
    h = load_hopf(read_json(cfg.paths[0]))
    algebra = h.algebra
    _require_laws(underlying=algebra)
    report = Report("hopf-check")
    hoch = cohomology_dims(build_complex(trivial_extension(algebra), cfg.max_degree))
    report.add("hochschild dims over the unit line", True, dims=hoch)
    cobar = cohomology_dims(build_amitsur(hopf_coring(dual_hopf(h)), cfg.max_degree))
    report.add("dual cobar dims", True, dims=cobar)
    for n in range(2, cfg.max_degree):
        report.add(f"H^{n} factorization", hoch[n] == algebra.dim * cobar[n],
                   hochschild=hoch[n], cobar=cobar[n], algebra_dim=algebra.dim)
    return report


HANDLERS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "amitsur": cmd_amitsur,
    "verify-iso": cmd_verify_iso,
    "gs-compare": cmd_gs,
    "hopf-check": cmd_hopf,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing argv
    leaves it as it was, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="coringlab",
        description="exact finite-field checks for ring extensions and corings")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("validate", "report algebra/extension/bialgebra axioms for input files"),
        ("cohomology", "cohomology dimensions of an extension, both complexes"),
        ("amitsur", "tensor-power complex of the extension's coring"),
        ("verify-iso", "run the full comparison-isomorphism suite"),
        ("gs-compare", "simplicial vs incidence-extension cohomology"),
        ("hopf-check", "cohomology over the unit line against the dual cobar complex"),
    ]
    for name, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("paths", nargs="+" if name == "validate" else 1,
                        metavar="FILE", help="input file")
        sp.add_argument("--field", type=int, default=5, dest="prime",
                        help="prime for commands that choose their own field")
        sp.add_argument("--max-degree", type=int, default=None,
                        help="top tensor degree "
                             f"(hard cap {DEGREE_CAPS.get(name, HARD_DEGREE_CAP)})")
        sp.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help="law-check pairs per degree pair: all basis pairs if at "
                             "most TRIALS of them, else TRIALS random pairs")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for the random trials")
        sp.add_argument("--format", choices=("json", "markdown"),
                        default="json", dest="out_format")
        sp.add_argument("--cap", type=int, default=DEFAULT_DIM_CAP,
                        help="incidence-algebra dimension cap")
        sp.add_argument("--timing", action="store_true",
                        help="include elapsed seconds in the report")
    return parser


def config_from_args(args: argparse.Namespace,
                     parser: argparse.ArgumentParser) -> argparse.Namespace:
    """The parsed arguments, checked, with the command's default degree."""
    if args.max_degree is None:
        args.max_degree = DEGREE_DEFAULTS.get(args.command, DEFAULT_DEGREE)
    cap = DEGREE_CAPS.get(args.command, HARD_DEGREE_CAP)
    if not 1 <= args.max_degree <= cap:
        parser.error(f"--max-degree must be between 1 and the hard cap {cap}"
                     + (f" of {args.command}" if args.command in DEGREE_CAPS else ""))
    try:
        Field(args.prime)
    except ValueError as err:
        parser.error(f"--field: {err}")
    if args.trials < 1:
        parser.error("--trials must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args, parser)
    started = time.perf_counter()
    try:
        report = HANDLERS[cfg.command](cfg)
    except (CoringLabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    payload = _payload(cfg, report)
    if cfg.timing:
        payload["elapsed_seconds"] = round(time.perf_counter() - started, 3)
    _emit(payload, cfg.out_format)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
