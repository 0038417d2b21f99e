"""Command-line front end: analyze | generate | verify | catalog.

Every Hessian verdict comes from H_f at seeded points.  `analyze` then tries
exact certificates of a vanishing verdict in order of cost: the cone vertex,
a polar relation and, for at most DEFAULT_SIZE_CAP variables, det H_f ≡ 0
under DETERMINANT_BUDGET monomial products.  `generate`, `catalog` and the
gn suite stop at the cone vertex.

Exit codes: 0 success; 1 verification suite failure; 2 parse error, bad
invocation or input outside a computation's domain (such as exponents past
the exponent field); 3 zero, constant or non-homogeneous input; 4 internal
check violation (an identity the construction guarantees failed); 5
parameter validation failure; 6 seeded retry budget exhausted.  Every
nonzero exit prints its reason on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

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
    DEFAULT_SIZE_CAP,
    DETERMINANT_BUDGET,
    hessian_matrix,
    rank_verdict,
    sample_kernels,
    symbolic_determinant,
)
from .poly import parse
from .psi import DEFAULT_MAX_RELATION_DEGREE, build_psi, find_polar_relation, sample_image
from .reports import (
    CURVE_SAMPLES,
    IMAGE_SAMPLES,
    SCHEMA,
    cone_block,
    gn_entry,
    hessian_block,
    image_block,
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


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="hesse-lab",
        description="Exact analysis of hypersurfaces with vanishing Hessian.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        sp.add_argument("--json", metavar="PATH", help="write the JSON report here")
        sp.add_argument(
            "--no-timings",
            action="store_true",
            help="omit the timings block (byte-deterministic output)",
        )

    a = sub.add_parser("analyze", help="full pipeline on one polynomial")
    common(a)
    a.add_argument("--poly", required=True, help="polynomial in x-variables")
    a.add_argument(
        "--max-relation-degree",
        type=int,
        default=DEFAULT_MAX_RELATION_DEGREE,
        help="polar relation search cap",
    )

    g = sub.add_parser("generate", help="build one seeded construction instance")
    common(g)
    for flag in ("n", "t", "m", "hdeg", "psideg", "d"):
        g.add_argument(f"--{flag}", type=int, required=True)
    g.add_argument("--out", metavar="PATH", help="write the instance JSON here")

    v = sub.add_parser("verify", help="run a verification suite")
    common(v)
    v.add_argument(
        "--suite", required=True, choices=("lowdim", "gn", "psi", "p4", "all")
    )
    v.add_argument("--count", type=int, default=10, help="instances per family")
    v.add_argument(
        "--mutate",
        action="store_true",
        help="testing aid: corrupt the psi components; the suite must then fail",
    )

    c = sub.add_parser("catalog", help="batch-generate instances with metadata")
    common(c)
    c.add_argument(
        "--types",
        action="append",
        required=True,
        metavar="n,t,m,hdeg,psideg,d",
        help="skeleton sextuple; repeatable",
    )
    c.add_argument("--count", type=int, default=1, help="instances per skeleton")

    return p


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
        rel = find_polar_relation(f, args.max_relation_degree, sample.span)
        results["polar_relation"] = relation_block(rel) if rel else None
        results["relation_search"] = relation_search_block(sample, args.max_relation_degree, n1)
        if rel is not None:
            # PolarRelation refuses a nonzero certificate: h_f ≡ 0 is proven
            verdict = verdict.upgraded("polar_relation")
            psi = build_psi(f, rel)
            results["psi"] = psi_block(psi)
            # one ψ_g image sample: the battery reads its first IMAGE_SAMPLES
            # points, and on P^4 the curve stage reads all of them
            image = sample_image(psi, CURVE_SAMPLES if n1 == 5 else IMAGE_SAMPLES, args.seed)
            checks, head, polar_sample, failed = psi_identity_battery(f, psi, image, args.seed)
            results["identity_checks"] = checks
            results["image"] = image_block(head)
            results["polar_image"] = image_block(polar_sample)
            if n1 == 5:
                results["classification"], stages = p4_classification(f, image, args.seed)
                failed += [f"classification.{stage}" for stage in stages]
            if failed:
                print(f"identity battery failed: {', '.join(failed)}", file=sys.stderr)
                code = EXIT_INTERNAL_CHECK
        elif n1 <= DEFAULT_SIZE_CAP:
            # the last certificate: det H_f, expanded under a fixed budget
            det = symbolic_determinant(hessian_matrix(f), DETERMINANT_BUDGET)
            if det:
                raise InternalCheckError("det H_f is nonzero, against the sampled verdict")
            if det is not None:
                verdict = verdict.upgraded("determinant")
        results["hessian"] = hessian_block(verdict)
    return code, _doc({"poly": args.poly}, results, args)


def cmd_generate(args):
    skel = GNSkeleton(
        n=args.n, t=args.t, m=args.m, hdeg=args.hdeg, psideg=args.psideg, d=args.d
    )
    instance, verdict, entry = gn_entry(skel, args.seed)
    data = instance_to_dict(instance)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    results = {
        "instance": data,
        "hessian": hessian_block(verdict),
        "cone": cone_block(instance.vertex),
        "core_multiplicity": entry["core_multiplicity"],
        "core_multiplicity_expected": skel.d - instance.mu,
    }
    return EXIT_OK, _doc(
        {"skeleton": [args.n, args.t, args.m, args.hdeg, args.psideg, args.d]},
        results,
        args,
    )


def cmd_verify(args):
    _check_positive("--count", args.count)
    if args.suite == "lowdim":
        block = {"lowdim": run_lowdim_suite(args.count, args.seed)}
    elif args.suite == "gn":
        block = {"gn": run_gn_suite(args.count, args.seed)}
    elif args.suite == "psi":
        block = {"psi": run_psi_suite(args.seed, mutate=args.mutate)}
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
    if not args.no_timings:
        doc["timings"] = {"elapsed_s": round(time.time() - started, 3)}
    text = json.dumps(doc, indent=2) + "\n"
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
        print(f"report written to {args.json}")
    else:
        sys.stdout.write(text)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error or help
        return exc.code
    started = time.time()
    handlers = {
        "analyze": cmd_analyze,
        "generate": cmd_generate,
        "verify": cmd_verify,
        "catalog": cmd_catalog,
    }
    try:
        code, doc = handlers[args.command](args)
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
    _emit(doc, args, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
