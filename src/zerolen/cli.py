"""Command-line interface wiring the computation and verification modules.

Exit codes: 0 on success/pass, 1 on a verification failure, 2 on usage errors,
3 when a search exceeds its node budget (``ZEROLEN_MAX_NODES``).
JSON output (``--json``) is deterministic; timing fields are suppressed there.
"""

from __future__ import annotations

import argparse
import json
import sys

from .atoms import classify_c2c4, enumerate_atoms
from .budget import ResourceLimitError
from .families import (
    REGISTRY,
    family_member,
    match_family,
    witness_sequence,
)
from .groups import davenport_lower_bound, parse_group
from .lengths import delta, engine_for, rho
from .numerical import (
    NumericalMonoid,
    ProductMonoid,
    verify_elasticity_gap,
    verify_thm57_case,
    y_L_bound,
)
from .sequences import parse_sequence
from .system import (
    bounded_intersection,
    bounded_system,
    compare_systems,
    delta_star,
    observed_delta,
    resolve_bound,
    rho_k,
)
from .verify import TARGETS, run_verification


class UsageError(Exception):
    pass


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, default=str))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def _gens(text: str) -> NumericalMonoid:
    return NumericalMonoid(int(t) for t in text.replace(" ", "").split(",") if t)


def cmd_atoms(args) -> int:
    group = parse_group(args.group)
    subset = None
    if args.subset:
        supports = [parse_sequence(group, t).support for t in args.subset.split(";")]
        if any(len(s) != 1 for s in supports):
            raise UsageError("each --subset term must name exactly one element")
        subset = [s[0] for s in supports]
    catalog = enumerate_atoms(group, subset)
    payload = {
        "group": group.label,
        "davenport": catalog.davenport,
        "davenport_lower_bound": davenport_lower_bound(group).value,
        "counts": {str(k): v for k, v in catalog.counts().items()},
    }
    if args.full:
        payload["atoms"] = [a.literal() for a in catalog]
    if args.classify:
        report = classify_c2c4(catalog)
        payload["classes"] = {k: len(v) for k, v in sorted(report.classes.items())}
        payload["classification_ok"] = report.ok
    _emit(payload, args.json)
    return 0


def cmd_lengths(args) -> int:
    group = parse_group(args.group)
    seq = parse_sequence(group, args.sequence)
    lengths = engine_for(group).length_set(seq)
    _emit(
        {
            "lengths": list(lengths),
            "delta": list(delta(lengths)),
            "rho": str(rho(lengths)),
            "min": lengths[0],
            "max": lengths[-1],
        },
        args.json,
    )
    return 0


def cmd_system(args) -> int:
    group = parse_group(args.group)
    subset = group.elements if args.with_zero else None
    system = bounded_system(group, subset, args.max_len)
    sets = []
    for entry in system.entries:
        row = {"lengths": list(entry.lengths), "min_length": entry.min_length}
        if args.emit_witness:
            row["witness"] = entry.witness.literal()
        sets.append(row)
    _emit(
        {
            "group": group.label,
            "bound": system.bound,
            "count": len(system),
            "observed_delta": list(observed_delta(system)),
            "sets": sets,
        },
        args.json,
    )
    return 0


def cmd_delta_star(args) -> int:
    group = parse_group(args.group)
    bound = resolve_bound(group, args.max_len)
    _emit(
        {
            "group": group.label,
            "bound": bound,
            "delta_star": list(delta_star(group, bound)),
        },
        args.json,
    )
    return 0


def cmd_rho_k(args) -> int:
    group = parse_group(args.group)
    cert = rho_k(group, args.k)
    _emit(
        {
            "group": group.label,
            "k": cert.k,
            "value": cert.value,
            "exact": cert.exact,
            "method": cert.method,
            "witness": cert.witness.literal() if cert.witness else "",
        },
        args.json,
    )
    return 0


def cmd_compare(args) -> int:
    ga, gb = parse_group(args.group_a), parse_group(args.group_b)
    sa = bounded_system(ga, ga.elements, args.max_len)
    sb = bounded_system(gb, gb.elements, args.max_len)
    rep = compare_systems(sa, sb)
    _emit(
        {
            "margin": rep.margin,
            "a_in_b": rep.a_in_b.holds,
            "a_minus_b": [list(L) for L in rep.a_in_b.missing_certified],
            "b_in_a": rep.b_in_a.holds,
            "b_minus_a": [list(L) for L in rep.b_in_a.missing_certified],
        },
        args.json,
    )
    return 0


def cmd_intersect(args) -> int:
    groups = [parse_group(t) for t in args.groups]
    rep = bounded_intersection(groups, max_value=args.max_value)
    _emit(
        {
            "groups": [g.label for g in rep.groups],
            "max": rep.max_value,
            "sets": [list(L) for L in rep.sets],
            "unconfirmed": [f"{list(L)} in {g}" for L, g in rep.unconfirmed],
        },
        args.json,
    )
    return 0 if not rep.unconfirmed else 1


def cmd_family(args) -> int:
    if args.action == "list":
        rows = [
            {
                "id": br.id,
                "group": br.group.label if br.group else "all",
                "formula": br.formula,
            }
            for br in REGISTRY
        ]
        _emit({"families": rows}, args.json)
        return 0
    if args.action in ("member", "witness"):
        fam, sep, branch = args.id.partition(":")
        branch = branch if sep else None
        if args.action == "member":
            member = family_member(fam, branch, y=args.y, k=args.k)
            _emit({"id": args.id, "member": sorted(member)}, args.json)
            return 0
        group = parse_group(args.group) if args.group else None
        wit = witness_sequence(fam, branch, y=args.y, k=args.k, group=group)
        _emit({"id": args.id, "witness": wit.literal()}, args.json)
        return 0
    # match
    if not args.group:
        raise UsageError("family match needs a group: family match <group> --set 2,5")
    group = parse_group(args.group)
    if not args.set:
        raise UsageError("family match needs --set with comma-separated lengths")
    lengths = [int(t) for t in args.set.replace(" ", "").split(",") if t]
    matches = match_family(group, lengths)
    _emit(
        {
            "group": group.label,
            "set": sorted(set(lengths)),
            "matches": [
                {"family": m.family, "branch": m.branch, "y": m.y, "k": m.k}
                for m in matches
            ],
        },
        args.json,
    )
    return 0 if matches else 1


def cmd_verify(args) -> int:
    report = run_verification(args.target, bound=args.bound)
    payload = report.as_dict(with_time=not args.json)
    _emit(payload, args.json)
    return 0 if report.status == "pass" else 1


def cmd_nm(args) -> int:
    if args.action == "lengths":
        H = _gens(args.gens)
        L = H.length_set(args.a)
        _emit(
            {
                "monoid": repr(H),
                "a": args.a,
                "lengths": list(L),
                "delta": list(delta(L)),
                "rho": str(rho(L)),
            },
            args.json,
        )
        return 0
    if args.action == "invariants":
        H = _gens(args.gens)
        _emit(
            {
                "monoid": repr(H),
                "elasticity": str(H.elasticity()),
                "min_delta": H.min_delta(),
                "frobenius": H.frobenius,
            },
            args.json,
        )
        return 0
    if args.action == "verify-gap":
        H = _gens(args.gens)
        rep = verify_elasticity_gap(H, args.bound)
        _emit(
            {
                "monoid": repr(H),
                "bound": rep.bound,
                "beta": str(rep.gap.beta),
                "checked": rep.checked,
                "counterexamples": list(rep.counterexamples),
                "status": "pass" if rep.ok else "fail",
            },
            args.json,
        )
        return 0 if rep.ok else 1
    if args.action == "verify-57":
        H = _gens(args.gens)
        rep = verify_thm57_case(H, args.case, args.bound)
        _emit(
            {
                "monoid": repr(H),
                "case": rep.case,
                "bound": rep.bound,
                "status": rep.status,
                "hypothesis_failures": list(rep.hypothesis_failures),
                "missing": [list(L) for L in rep.missing],
                "extra": [list(L) for L in rep.extra],
            },
            args.json,
        )
        return 0 if rep.status == "pass" else 1
    # verify-56
    factors = [_gens(part) for part in args.gens.split(";") if part]
    D = ProductMonoid(factors)
    L = [int(t) for t in args.L.split(",") if t]
    rep = y_L_bound(D, L, args.bound)
    _emit(
        {
            "factors": [repr(H) for H in factors],
            "L": sorted(set(L)),
            "y_L": rep.y_l,
            "window": list(rep.window),
            "search_bound": rep.search_bound,
            "violations": [list(v) for v in rep.violations],
            "status": "pass" if rep.ok else "fail",
        },
        args.json,
    )
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zerolen",
        description="factorization length sets over finite abelian groups "
        "and numerical monoids",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = add("atoms", help="enumerate minimal zero-sum sequences")
    s.add_argument("group")
    s.add_argument("--subset", help="';'-separated element literals")
    s.add_argument("--full", action="store_true")
    s.add_argument("--classify", action="store_true",
                   help="classify the C2xC4 catalog")
    s.set_defaults(fn=cmd_atoms)

    s = add("lengths", help="length set of a zero-sum sequence")
    s.add_argument("group")
    s.add_argument("sequence")
    s.set_defaults(fn=cmd_lengths)

    s = add("system", help="bounded system of sets of lengths")
    s.add_argument("group")
    s.add_argument("--max-len", type=int, dest="max_len")
    s.add_argument("--with-zero", action="store_true")
    s.add_argument("--emit-witness", action="store_true")
    s.set_defaults(fn=cmd_system)

    s = add("delta-star", help="bounded delta-star certificate")
    s.add_argument("group")
    s.add_argument("--max-len", type=int, dest="max_len")
    s.set_defaults(fn=cmd_delta_star)

    s = add("rho-k", help="k-th elasticity certificate")
    s.add_argument("group")
    s.add_argument("k", type=int)
    s.set_defaults(fn=cmd_rho_k)

    s = add("compare", help="bounded inclusion between two systems")
    s.add_argument("group_a")
    s.add_argument("group_b")
    s.add_argument("--max-len", type=int, dest="max_len")
    s.set_defaults(fn=cmd_compare)

    s = add("intersect", help="bounded intersection of systems")
    s.add_argument("groups", nargs="+")
    s.add_argument("--max-value", type=int)
    s.set_defaults(fn=cmd_intersect)

    s = sub.add_parser("family", help="closed-form families")
    s.set_defaults(fn=cmd_family)
    family = s.add_subparsers(dest="action", required=True)

    def add_family(action, help, member=False):
        s = family.add_parser(action, parents=[common], help=help)
        if member:  # member and witness read one branch at (y, k)
            s.add_argument("id", help="family and branch, such as T46:L6")
            s.add_argument("--y", type=int, default=0)
            s.add_argument("--k", type=int, default=0)
        return s

    add_family("list", "every registered family branch")
    add_family("member", "the member of a branch at (y, k)", member=True)
    s = add_family("witness", "a witness sequence of that member", member=True)
    s.add_argument("--group", help="the group of a branch that names none")
    s = add_family("match", "the branches that hold a set of lengths")
    # optional for argparse, so that a missing group is a one-line error
    s.add_argument("group", nargs="?")
    s.add_argument("--set", help="comma-separated lengths")

    s = add("verify", help="run a named verification target")
    s.add_argument("target", choices=TARGETS)
    s.add_argument("--bound", type=int)
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("nm", help="numerical monoid computations")
    s.set_defaults(fn=cmd_nm)
    nm = s.add_subparsers(dest="action", required=True)

    def add_nm(action, help, bound=False):
        s = nm.add_parser(action, parents=[common], help=help)
        s.add_argument("gens")
        if bound:  # only the three checks read a bound
            s.add_argument("--bound", type=int, default=200)
        return s

    add_nm("lengths", "length set of an element").add_argument("a", type=int)
    add_nm("invariants", "elasticity, min distance and Frobenius number")
    add_nm("verify-gap", "elasticity gap up to the bound", bound=True)
    s = add_nm("verify-57", "F(P)xD1 against the C3 or C3+C3 family", bound=True)
    s.add_argument("--case", choices=("b2", "b3"), default="b2")
    s = add_nm("verify-56", "y_L shift bound of L in a product", bound=True)
    s.add_argument("--L", default="2,3")

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
