"""Command-line front end: analyze | generate | verify | catalog.

Every Hessian verdict comes from H_f at seeded points.  `analyze` then tries
exact certificates of a vanishing verdict in order of cost: the cone vertex,
a polar relation and det H_f ≡ 0 under DETERMINANT_BUDGET monomial
products, which alone bounds it.  With a relation, it runs the identity
battery on ψ_g, all symbolic, and on P^4 certifies the normal form and then
the plane curve off ψ_g itself; a failed P^4 stage exits 4 as
`classification.<stage>`.  No report block is a sample: `analyze` evaluates
∇f at no point, and --seed reaches its results only through the H_f sample.
`generate`, `catalog` and the gn suite stop at the cone vertex.

`parse_args` reads argv against one table, FLAGS, with exact flag names:
`--flag value` or `--flag=value`, where a value may start with '-'.  A
subcommand returns its report, `generate`'s with the instance, and `main`
alone writes files.

Exit codes: 0 success (also -h/--help); 1 verification suite failure; 2 parse
error, bad invocation or input outside a computation's domain (such as
exponents past the exponent field), or a --json or --out path that cannot be
written, after which no file the run created is left; 3 zero, constant or
non-homogeneous input; 4 internal check violation (an identity the
construction guarantees failed); 5 parameter validation failure, also
`generate` with --out and --json naming one file, refused before any work;
6 seeded retry budget exhausted.
Every nonzero exit prints its reason on stderr, a usage error after the usage.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

from .cones import cone_test
from .errors import (
    HesseLabError,
    InternalCheckError,
    ParseError,
    RetryBudgetError,
    ValidationError,
)
from .gn import GNSkeleton, instance_to_dict, validate_skeleton
from .hessian import (
    DETERMINANT_BUDGET,
    hessian_matrix,
    rank_verdict,
    sample_kernels,
    symbolic_determinant,
)
from .poly import parse
from .psi import DEFAULT_MAX_RELATION_DEGREE, build_psi, find_polar_relation
from .reports import (
    SCHEMA,
    cone_block,
    gn_entry,
    hessian_block,
    p4_classification,
    psi_block,
    psi_identity_battery,
    relation_block,
    relation_search_block,
    run_all_suites,
    run_gn_suite,
    run_lowdim_suite,
    run_p4_suite,
    run_psi_suite,
    with_vertex,
)

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_HOMOGENEOUS = 3
EXIT_INTERNAL_CHECK = 4
EXIT_VALIDATION = 5
EXIT_RETRY = 6

REQUIRED = object()  # the default of a flag that must be given
# per subcommand, each flag's kind and default; a kind is int, str, bool (a
# switch, no value), list (repeatable, kept in order) or a tuple of choices
FLAGS = {
    "analyze": {"--poly": (str, REQUIRED), "--max-relation-degree": (int, DEFAULT_MAX_RELATION_DEGREE)},
    "generate": {**{f"--{name}": (int, REQUIRED) for name in GNSkeleton._fields}, "--out": (str, None)},
    "verify": {"--suite": (("lowdim", "gn", "psi", "p4", "all"), REQUIRED), "--count": (int, 10),
               "--mutate": (bool, False)},
    "catalog": {"--types": (list, REQUIRED), "--count": (int, 1)},
}
COMMON = {"--seed": (int, 0), "--json": (str, None), "--no-timings": (bool, False)}
FLAGS = {command: {**flags, **COMMON} for command, flags in FLAGS.items()}


class UsageError(Exception):
    """(subcommand or None, reason): exit 2 with its usage; a reason of None asks for help."""


def usage(command=None):
    """The synopsis of one subcommand, or of all of them, read off FLAGS."""
    if command is None:
        return "\n       ".join(map(usage, FLAGS))
    words = [f"hesse-lab {command}"]
    for flag, (kind, default) in FLAGS[command].items():
        value = "|".join(kind) if type(kind) is tuple else flag[2:].upper().replace("-", "_")
        word = flag if kind is bool else f"{flag} {value}" + " ..." * (kind is list)
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def _choice(name, value, choices, command=None):
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise UsageError(command, f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    return value


def parse_args(argv):
    """argv read against FLAGS, `--flag value` or `--flag=value`; a value is
    the next token even when it starts with '-'.  Flag names are exact."""
    if not argv or argv[0] in ("-h", "--help"):
        raise UsageError(None, None if argv else "the following arguments are required: command")
    command = _choice("command", argv[0], FLAGS)
    table, given, unknown = FLAGS[command], {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise UsageError(command, None)
        flag, explicit, value = token.partition("=")
        kind = table.get(flag, (None,))[0]
        if kind is None or (kind is bool and explicit):  # a switch takes no value
            unknown.append(token)
            continue
        if kind is not bool and not explicit:
            value = next(tokens, None)
            if value is None:
                raise UsageError(command, f"argument {flag}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(command, f"argument {flag}: invalid int value: {value!r}") from None
        elif type(kind) is tuple:
            value = _choice(flag, value, kind, command)
        given[flag] = True if kind is bool else [*given.get(flag, ()), value] if kind is list else value
    missing = [flag for flag, (_, default) in table.items() if default is REQUIRED and flag not in given]
    if missing:
        raise UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(command, f"unrecognized arguments: {' '.join(unknown)}")
    values = {flag: given.get(flag, default) for flag, (_, default) in table.items()}
    return SimpleNamespace(command=command, **{f[2:].replace("-", "_"): v for f, v in values.items()})


def _check_positive(flag, value):
    if value < 1:
        raise ValidationError([f"{flag} must be >= 1 (got {value})"])


def cmd_analyze(args):
    _check_positive("--max-relation-degree", args.max_relation_degree)
    f = parse(args.poly)
    if f.is_zero() or not f.is_homogeneous() or f.degree() == 0:
        if f.is_zero():
            reason = "the polynomial is zero"
        elif f.is_homogeneous():
            reason = "degree 0"
        else:
            degrees = ", ".join(str(e) for e in sorted({sum(e) for e in f.as_dict()}))
            reason = f"terms of degrees {degrees} occur"
        print(f"input must be nonzero homogeneous: {reason}", file=sys.stderr)
        return EXIT_NOT_HOMOGENEOUS, _doc(
            {"poly": args.poly}, {"error": "input must be nonzero homogeneous"}, args
        )
    n1, d = f.nvars, f.degree()
    # one sample of H_f gives the verdict, the polar image's dimension and W
    sample = sample_kernels(f, seed=args.seed)
    verdict = rank_verdict(f, sample.ranks)
    vertex = cone_test(f)
    verdict = with_vertex(verdict, vertex)
    results = {
        "hessian": hessian_block(verdict),
        "cone": cone_block(vertex),
        "polar_image_dim": sample.rank - 1 if d >= 2 else None,
    }
    code = EXIT_OK
    if verdict.vanishes and not vertex.is_cone and d >= 2:
        rel = find_polar_relation(f, sample.span, args.max_relation_degree)
        results["polar_relation"] = relation_block(rel) if rel else None
        results["relation_search"] = relation_search_block(sample, args.max_relation_degree, n1)
        if rel is not None:
            # PolarRelation refuses a nonzero certificate: h_f ≡ 0 is proven
            verdict = verdict.upgraded("polar_relation")
            psi = build_psi(f, rel)
            results["psi"] = psi_block(psi)
            results["identity_checks"], failed = psi_identity_battery(f, psi)
            if n1 == 5:
                results["classification"], stages = p4_classification(f, psi)
                failed += [f"classification.{stage}" for stage in stages]
            if failed:
                print(f"identity battery failed: {', '.join(failed)}", file=sys.stderr)
                code = EXIT_INTERNAL_CHECK
        else:
            # the last certificate: det H_f, expanded under a fixed budget
            det = symbolic_determinant(hessian_matrix(f), DETERMINANT_BUDGET)
            if det:
                raise InternalCheckError("det H_f is nonzero, against the sampled verdict")
            if det is not None:
                verdict = verdict.upgraded("determinant")
        results["hessian"] = hessian_block(verdict)
    return code, _doc({"poly": args.poly}, results, args)


def cmd_generate(args):
    if args.out and args.json and os.path.realpath(args.out) == os.path.realpath(args.json):
        raise ValidationError(
            [f"--out and --json name one file ({args.out}); the report would overwrite the instance"]
        )
    skel = GNSkeleton(*(getattr(args, name) for name in GNSkeleton._fields))
    instance, verdict, entry = gn_entry(skel, args.seed)
    results = {
        "instance": instance_to_dict(instance),
        "hessian": hessian_block(verdict),
        "cone": cone_block(instance.vertex),
        "core_multiplicity": entry["core_multiplicity"],
        "core_multiplicity_expected": skel.d - instance.mu,
    }
    return EXIT_OK, _doc({"skeleton": list(skel)}, results, args)


def cmd_verify(args):
    _check_positive("--count", args.count)
    if args.suite == "lowdim":
        block = {"lowdim": run_lowdim_suite(args.count, args.seed)}
    elif args.suite == "gn":
        block = {"gn": run_gn_suite(args.count, args.seed)}
    elif args.suite == "psi":
        block = {"psi": run_psi_suite(mutate=args.mutate)}
    elif args.suite == "p4":
        block = {"p4": run_p4_suite(args.seed)}
    else:
        block = run_all_suites(args.count, args.seed, mutate=args.mutate)
    input_block = {"suite": args.suite}
    if args.suite in ("lowdim", "gn", "all"):
        input_block["count"] = args.count  # the psi and p4 suites have fixed inputs
    failed = [name for name, suite in block.items() if name != "ok" and not suite["ok"]]
    if failed:
        print(f"verification suite failed: {', '.join(failed)}", file=sys.stderr)
    return EXIT_SUITE_FAILED if failed else EXIT_OK, _doc(input_block, block, args)


def cmd_catalog(args):
    _check_positive("--count", args.count)
    skeletons = []
    problems = []
    for text in args.types:
        parts = text.split(",")
        if len(parts) != 6:
            problems.append(f"skeleton {text!r} is not a sextuple n,t,m,hdeg,psideg,d")
            continue
        try:
            nums = [int(x) for x in parts]
        except ValueError:
            problems.append(f"skeleton {text!r} has non-integer entries")
            continue
        skel = GNSkeleton(*nums)
        try:
            validate_skeleton(skel)
        except ValidationError as exc:
            problems.extend(f"{text}: {v}" for v in exc.violations)
            continue
        skeletons.append(skel)
    if problems:
        raise ValidationError(problems)
    entries = []
    for skel in skeletons:
        for i in range(args.count):
            inst, _, entry = gn_entry(skel, args.seed + i)
            entries.append({**entry, "instance": instance_to_dict(inst)})
    return EXIT_OK, _doc({"types": args.types, "count": args.count}, {"catalog": entries}, args)


def _doc(input_block, results, args):
    return {
        "schema": SCHEMA,
        "input": input_block,
        "results": results,
        "seeds": {"master": args.seed},
    }


def _emit(doc, args, started):
    """Write generate's instance to --out and the report to --json, or to
    stdout; when a file cannot be written, remove those this call created."""
    if not args.no_timings:
        doc["timings"] = {"elapsed_s": round(time.time() - started, 3)}
    text = json.dumps(doc, indent=2) + "\n"
    files = {args.out: json.dumps(doc["results"]["instance"], indent=2) + "\n"} if getattr(args, "out", None) else {}
    if args.json:
        files[args.json] = text
    created = [path for path in files if not os.path.exists(path)]
    try:
        for path, content in files.items():
            with open(path, "w") as fh:
                fh.write(content)
    except OSError:
        for path in filter(os.path.exists, created):
            os.remove(path)
        raise
    if args.json:
        print(f"report written to {args.json}")
    else:
        sys.stdout.write(text)


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        command, reason = exc.args
        if reason is None:
            print(f"usage: {usage(command)}")
            return EXIT_OK
        prog = " ".join(filter(None, ("hesse-lab", command)))
        print(f"usage: {usage(command)}", f"{prog}: error: {reason}", sep="\n", file=sys.stderr)
        return EXIT_PARSE
    started = time.time()
    handlers = {
        "analyze": cmd_analyze,
        "generate": cmd_generate,
        "verify": cmd_verify,
        "catalog": cmd_catalog,
    }
    try:
        code, doc = handlers[args.command](args)
        _emit(doc, args, started)
    except OSError as exc:  # the only files written are --json and --out
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"validation: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except RetryBudgetError as exc:
        print(f"retry budget exhausted: {exc}", file=sys.stderr)
        return EXIT_RETRY
    except InternalCheckError as exc:
        print(f"internal check violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_CHECK
    except HesseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
