"""Command-line interface.

Exit codes: 0 all requested checks passed, 1 a verification or
validation failed or an internal error, 2 usage or parse errors. Each
command formats its result once, into the JSON payload; the text view is
rendered from that payload's strings, so text and JSON output carry the
same data. Identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import graded
from .determinacy import check_determinacy, reverify_certificate
from .equivalence import (
    RescalingWitness,
    WitnessFault,
    leading_coefficients,
    normalize_harmonic,
    reduce_general,
    verify_biharmonic,
)
from .harmonic import almansi_decompose, harmonic_pair, harmonic_split
from .polyring import InputError, PolyParseError, format_poly, parse_poly
from .selftest import format_report, run_selftest


# Accepted range (low, high) of each range-checked option, per command;
# high None means no upper limit. The upper limits and the input degree
# caps below are the work budget: the largest accepted input takes about a
# minute on a 2-core Xeon, `determinacy` at level 24 about 12-14 s (a
# dense germ of order 2 or 3 whose top block leaves a monomial uncovered).
# main() checks them before running the command; a value out of range is a
# usage error.
RANGES = {
    "harmonic": {"k": (1, 14000)},
    "kernel": {"k": (0, 450), "s": (0, None)},
    "span": {"k": (1, 300), "s": (0, 300)},
    "almansi": {"s": (1, 400)},
    "determinacy": {"k": (1, 24)},
    "reduce": {"k": (1, 36)},
    "biharm": {"k": (5, 36)},
    "selftest": {"max_degree": (1, None)},
}
# Highest accepted degree of the input polynomial.
MAX_DEGREE = {"almansi": 400, "split": 800}


class UsageError(InputError):
    """An option or input outside what the command accepts (exit 2)."""


def _check_ranges(args) -> None:
    for option, (low, high) in RANGES.get(args.command, {}).items():
        value = getattr(args, option)
        flag = f"--{option.replace('_', '-')}"
        if value is None:
            continue
        if value < low:
            raise UsageError(f"{args.command} requires {flag} >= {low}")
        if high is not None and value > high:
            raise UsageError(f"{args.command} requires {flag} <= {high}")


def _check_degree(args) -> None:
    cap = MAX_DEGREE.get(args.command)
    if cap is not None and args.poly.degree() > cap:
        raise UsageError(f"{args.command} requires a polynomial of degree <= {cap}")


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
    else:
        print(text)


def cmd_harmonic(args) -> int:
    pair = harmonic_pair(args.k)
    payload = {"k": args.k, "f": format_poly(pair.f), "g": format_poly(pair.g)}
    _emit(args, payload, f"f_{args.k} = {payload['f']}\ng_{args.k} = {payload['g']}")
    return 0


def cmd_kernel(args) -> int:
    space = graded.kernel_basis(args.k, args.s)
    basis = [format_poly(p) for p in space.basis]
    text = [f"kernel of Laplacian^{args.s} on P_{args.k}: dimension {space.dim}"]
    text.extend(f"  {b}" for b in basis)
    _emit(args, {"k": args.k, "s": args.s, "dimension": space.dim, "basis": basis}, "\n".join(text))
    return 0


def cmd_span(args) -> int:
    space = graded.product_space(args.s, args.k)
    basis = [format_poly(p) for p in space.basis]
    text = [
        f"span of degree-{args.s} multiples of the degree-{args.k} harmonics "
        f"in P_{args.s + args.k}: dimension {space.dim}"
    ]
    text.extend(f"  {b}" for b in basis)
    _emit(
        args,
        {"k": args.k, "s": args.s, "degree": args.s + args.k, "dimension": space.dim, "basis": basis},
        "\n".join(text),
    )
    return 0


def cmd_almansi(args) -> int:
    u = format_poly(args.poly)
    layers = [format_poly(h) for h in almansi_decompose(args.poly, args.s).components]
    text = [f"almansi layers of {u} at order {args.s}:"]
    text.extend(f"  r^{2 * j} * ({h})" for j, h in enumerate(layers))
    _emit(args, {"s": args.s, "input": u, "layers": layers}, "\n".join(text))
    return 0


def cmd_split(args) -> int:
    h, q = (format_poly(part) for part in harmonic_split(args.poly))
    _emit(
        args,
        {"input": format_poly(args.poly), "harmonic": h, "radial_factor": q},
        f"harmonic part: {h}\nradial part:   (x^2 + y^2) * ({q})",
    )
    return 0


def cmd_determinacy(args) -> int:
    level = args.k
    cert = check_determinacy(args.poly, level)
    if cert.verdict and not reverify_certificate(cert):
        raise WitnessFault("determinacy certificate failed exact re-verification")
    payload = {
        "germ": format_poly(args.poly),
        "level": level,
        "verdict": cert.verdict,
        "products": len(cert.products),
        "missing": format_poly(cert.missing) if cert.missing else None,
    }
    h = payload["germ"]
    if cert.verdict:
        text = f"{h} is {level}-determined (criterion passed, {payload['products']} products)"
    else:
        text = (
            f"criterion inconclusive for {level}-determinacy of {h}; "
            f"first uncovered monomial: {payload['missing']}"
        )
    _emit(args, payload, text)
    return 0 if cert.verdict else 1


def cmd_reduce(args) -> int:
    germ = args.poly
    k = args.k
    if germ.order() < k:
        raise InputError(f"germ has terms of degree below k = {k}")
    leading = germ.graded_component(k)
    if germ == leading and leading:
        # pure homogeneous form: a linear normalisation witness suffices
        coeffs = leading_coefficients(germ, k)
        if coeffs is None:
            raise InputError("degree-k form is not harmonic")
        witness = normalize_harmonic(coeffs[0], coeffs[1], k)
        payload = witness.to_json_dict()
        rescaling = isinstance(witness, RescalingWitness)
        _emit(args, payload, _rescaling_text(payload) if rescaling else _chain_text(payload))
        return 0 if witness.verified else 1
    if k < 5:
        raise UsageError("reduce requires --k >= 5 unless the germ is purely harmonic")
    payload = reduce_general(germ, k).to_json_dict()
    _emit(args, payload, _chain_text(payload))
    return 0


def _chain_text(chain: dict) -> str:
    """The text view of a WitnessChain's JSON payload."""
    lines = [
        f"source:   {chain['source']}",
        f"target:   {chain['target']}",
        f"bound:    {chain['bound']}",
        f"verified: {str(chain['verified']).lower()}",
    ]
    for i, phi in enumerate(chain["maps"]):
        lines.append(f"map {i}: x -> {phi['x']}")
        lines.append(f"       y -> {phi['y']}")
    cert = chain["certificate"]
    if cert is not None:
        lines.append(
            f"determinacy: level {cert['level']} "
            f"(criterion at {cert['criterion_level']}, ok={str(cert['ok']).lower()})"
        )
    return "\n".join(lines)


def _rescaling_text(witness: dict) -> str:
    """The text view of a RescalingWitness's JSON payload."""
    a, b, k = witness["a"], witness["b"], witness["k"]
    return (
        f"rescaling witness for ({a})*f_{k} + ({b})*g_{k}:\n"
        f"  z -> delta*z for every delta with delta^{k} = {a} - ({b})*i\n"
        f"  verified: {str(witness['verified']).lower()}"
    )


def cmd_biharm(args) -> int:
    payload = verify_biharmonic(args.k, args.poly).to_json_dict()
    _emit(args, payload, _chain_text(payload))
    return 0


def cmd_selftest(args) -> int:
    report = run_selftest(seed=args.seed, max_degree=args.max_degree)
    print(format_report(report, args.format))
    return 0 if report.passed else 1


def ascii_int(text: str) -> int:
    """An integer option: an optional sign and ASCII digits, nothing else.

    int() would also read any Unicode decimal digit, underscores and
    surrounding whitespace, so "٣" or "1_0" would run as 3 or 10.
    argparse reports the ValueError as "invalid ascii_int value".
    """
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(text)
    return int(text)


class _CommandParser(argparse.ArgumentParser):
    """A command's parser that reads a single-dash word which is none of its
    options as a positional, so a polynomial with a leading minus sign
    ("-x^2", "-4*x*y") is the `poly` argument rather than an unknown
    option. `-h`, the long options and `--` are unaffected."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] not in ("", "-"):
            if arg_string[:2] not in self._option_string_actions:
                return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmgerm",
        description=(
            "Exact computation with plane function-germs whose leading term is "
            "harmonic: polyharmonic kernels, Almansi layers, determinacy "
            "certificates and explicit right-equivalence witnesses."
        ),
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("harmonic", help="print the degree-k harmonic generator pair")
    p.add_argument("--k", type=ascii_int, required=True)
    p.set_defaults(run=cmd_harmonic)

    p = sub.add_parser("kernel", help="basis of the iterated-Laplacian kernel on P_k")
    p.add_argument("--k", type=ascii_int, required=True)
    p.add_argument("--s", type=ascii_int, required=True)
    p.set_defaults(run=cmd_kernel)

    p = sub.add_parser("span", help="span of degree-s multiples of the degree-k harmonics")
    p.add_argument("--k", type=ascii_int, required=True)
    p.add_argument("--s", type=ascii_int, required=True)
    p.set_defaults(run=cmd_span)

    p = sub.add_parser("almansi", help="harmonic layer expansion of a polyharmonic polynomial")
    p.add_argument("poly")
    p.add_argument("--s", type=ascii_int, required=True)
    p.set_defaults(run=cmd_almansi)

    p = sub.add_parser("split", help="split homogeneous p as harmonic + (x^2+y^2)*q")
    p.add_argument("poly")
    p.set_defaults(run=cmd_split)

    p = sub.add_parser("determinacy", help="Jacobian-ideal determinacy certificate at level k")
    p.add_argument("poly")
    p.add_argument("--k", type=ascii_int, required=True, help="determinacy level to certify")
    p.set_defaults(run=cmd_determinacy)

    p = sub.add_parser("reduce", help="witness chain composing a germ down to f_k")
    p.add_argument("poly")
    p.add_argument("--k", type=ascii_int, required=True, help="degree of the harmonic leading term")
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("biharm", help="witness that f_k + R ~ f_k for R with vanishing 2-fold Laplacian")
    p.add_argument("poly", help="the perturbation R, order above k")
    p.add_argument("--k", type=ascii_int, required=True)
    p.set_defaults(run=cmd_biharm)

    p = sub.add_parser("selftest", help="run the full verification grid")
    p.add_argument("--seed", type=ascii_int, default=0)
    p.add_argument("--max-degree", type=ascii_int, default=None)
    p.set_defaults(run=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        if "poly" in vars(args):
            args.poly = parse_poly(args.poly)
            _check_degree(args)
        return args.run(args)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:  # a refused argument, raised by the library or a command
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # a failed witness check or another defect: no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
