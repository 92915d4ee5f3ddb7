"""Command-line interface wiring the computation and verification modules.

Exit codes: 0 on success/pass, 1 on a verification failure, 2 on usage errors,
3 when a search exceeds its node budget (``ZEROLEN_MAX_NODES``).  Each of the
last two is one ``error:`` line on stderr, with nothing on stdout.  Each action
has one handler, which returns its payload and exit code; ``main`` prints the
payload once, and a reader that closes stdout early ends it quietly, with the
command's own exit code.
JSON output (``--json``) is deterministic; timing fields are suppressed there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .atoms import classify_c2c4, enumerate_atoms
from .budget import ResourceLimitError
from .families import (
    INTERSECTION,
    REGISTRY,
    FamilyBranch,
    intersection_witness,
    match_family,
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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ``UsageError``; its subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


def _ints(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list such as ``2,3`` or ``2, 3``."""
    try:
        if values := tuple(int(t) for t in text.split(",") if t.strip()):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_lists(text: str) -> tuple[tuple[int, ...], ...]:
    """``;``-separated integer lists such as ``2,3;2,5``, one per factor."""
    if lists := tuple(_ints(part) for part in text.split(";") if part):
        return lists
    raise argparse.ArgumentTypeError(f"expected ';'-separated lists, got {text!r}")


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, default=str))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def cmd_atoms(args) -> tuple[dict, int]:
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
    return payload, 0


def cmd_lengths(args) -> tuple[dict, int]:
    group = parse_group(args.group)
    seq = parse_sequence(group, args.sequence)
    lengths = engine_for(group).length_set(seq)
    return {
        "lengths": list(lengths),
        "delta": list(delta(lengths)),
        "rho": str(rho(lengths)),
        "min": lengths[0],
        "max": lengths[-1],
    }, 0


def cmd_system(args) -> tuple[dict, int]:
    group = parse_group(args.group)
    subset = group.elements if args.with_zero else None
    system = bounded_system(group, subset, args.max_len)
    sets = []
    for entry in system.entries:
        row = {"lengths": list(entry.lengths), "min_length": entry.min_length}
        if args.emit_witness:
            row["witness"] = entry.witness.literal()
        sets.append(row)
    return {
        "group": group.label,
        "bound": system.bound,
        "count": len(system),
        "observed_delta": list(observed_delta(system)),
        "sets": sets,
    }, 0


def cmd_delta_star(args) -> tuple[dict, int]:
    group = parse_group(args.group)
    bound = resolve_bound(group, args.max_len)
    return {
        "group": group.label,
        "bound": bound,
        "delta_star": list(delta_star(group, bound)),
    }, 0


def cmd_rho_k(args) -> tuple[dict, int]:
    group = parse_group(args.group)
    cert = rho_k(group, args.k)
    return {
        "group": group.label,
        "k": cert.k,
        "value": cert.value,
        "exact": cert.exact,
        "method": cert.method,
        "witness": cert.witness.literal() if cert.witness else "",
    }, 0


def cmd_compare(args) -> tuple[dict, int]:
    ga, gb = parse_group(args.group_a), parse_group(args.group_b)
    sa = bounded_system(ga, ga.elements, args.max_len)
    sb = bounded_system(gb, gb.elements, args.max_len)
    rep = compare_systems(sa, sb)
    return {
        "margin": rep.margin,
        "a_in_b": rep.a_in_b.holds,
        "a_minus_b": [list(L) for L in rep.a_in_b.missing_certified],
        "b_in_a": rep.b_in_a.holds,
        "b_minus_a": [list(L) for L in rep.b_in_a.missing_certified],
    }, 0


def cmd_intersect(args) -> tuple[dict, int]:
    groups = [parse_group(t) for t in args.groups]
    rep = bounded_intersection(groups, max_value=args.max_value)
    return {
        "groups": [g.label for g in rep.groups],
        "max": rep.max_value,
        "sets": [list(L) for L in rep.sets],
        "unconfirmed": [f"{list(L)} in {g}" for L, g in rep.unconfirmed],
    }, 1 if rep.unconfirmed else 0


def cmd_family_list(args) -> tuple[dict, int]:
    rows = [
        {
            "id": br.id,
            "group": br.group.label if br.group else "all",
            "formula": br.formula,
        }
        for br in REGISTRY
    ]
    return {"families": rows}, 0


def _family_branches(args) -> tuple[str, str | None, list[FamilyBranch]]:
    """(family, branch, branches) of an ID such as ``T46:L6``; no ``:``, no branch."""
    family, sep, branch = args.id.partition(":")
    branch = branch if sep else None
    return family, branch, [
        br for br in REGISTRY if br.family == family and branch in (None, br.branch)
    ]


def cmd_family_member(args) -> tuple[dict, int]:
    family, branch, found = _family_branches(args)
    if not found:
        raise ValueError(f"unknown family {family!r} (branch {branch!r})")
    y, k = args.y, args.k
    for br in found:
        member = br.try_member(y, k)
        if member is not None:
            return {"id": args.id, "member": sorted(member)}, 0
    raise ValueError(
        f"(y={y}, k={k}) outside the domain of {family}: "
        + "; ".join(br.formula for br in found)
    )


def cmd_family_witness(args) -> tuple[dict, int]:
    group = parse_group(args.group) if args.group else None
    family, branch, found = _family_branches(args)
    y, k = args.y, args.k
    if family == INTERSECTION.family:
        if group is None:
            raise ValueError("the intersection family needs an explicit group")
        wit = intersection_witness(group, y, k)
        return {"id": args.id, "witness": wit.literal()}, 0
    for br in found:
        if group in (None, br.group) and br.try_member(y, k) is not None:
            return {"id": args.id, "witness": br.witness(y, k).literal()}, 0
    raise ValueError(
        f"no witness for family {family!r} branch {branch!r} at (y={y}, k={k})"
    )


def cmd_family_match(args) -> tuple[dict, int]:
    group = parse_group(args.group)
    matches = match_family(group, args.set)
    return {
        "group": group.label,
        "set": sorted(set(args.set)),
        "matches": [
            {"family": m.family, "branch": m.branch, "y": m.y, "k": m.k}
            for m in matches
        ],
    }, 0 if matches else 1


def cmd_verify(args) -> tuple[dict, int]:
    report = run_verification(args.target, bound=args.bound)
    return report.as_dict(with_time=not args.json), 0 if report.status == "pass" else 1


def cmd_nm_lengths(args) -> tuple[dict, int]:
    H = NumericalMonoid(args.gens)
    L = H.length_set(args.a)
    return {
        "monoid": repr(H),
        "a": args.a,
        "lengths": list(L),
        "delta": list(delta(L)),
        "rho": str(rho(L)),
    }, 0


def cmd_nm_invariants(args) -> tuple[dict, int]:
    H = NumericalMonoid(args.gens)
    return {
        "monoid": repr(H),
        "elasticity": str(H.elasticity()),
        "min_delta": H.min_delta(),
        "frobenius": H.frobenius,
    }, 0


def cmd_nm_verify_gap(args) -> tuple[dict, int]:
    H = NumericalMonoid(args.gens)
    rep = verify_elasticity_gap(H, args.bound)
    return {
        "monoid": repr(H),
        "bound": rep.bound,
        "beta": str(rep.gap.beta),
        "checked": rep.checked,
        "counterexamples": list(rep.counterexamples),
        "status": "pass" if rep.ok else "fail",
    }, 0 if rep.ok else 1


def cmd_nm_verify_57(args) -> tuple[dict, int]:
    H = NumericalMonoid(args.gens)
    rep = verify_thm57_case(H, args.case, args.bound)
    return {
        "monoid": repr(H),
        "case": rep.case,
        "bound": rep.bound,
        "status": rep.status,
        "hypothesis_failures": list(rep.hypothesis_failures),
        "missing": [list(L) for L in rep.missing],
        "extra": [list(L) for L in rep.extra],
    }, 0 if rep.status == "pass" else 1


def cmd_nm_verify_56(args) -> tuple[dict, int]:
    factors = [NumericalMonoid(gens) for gens in args.gens]
    rep = y_L_bound(ProductMonoid(factors), args.L, args.bound)
    return {
        "factors": [repr(H) for H in factors],
        "L": sorted(set(args.L)),
        "y_L": rep.y_l,
        "window": list(rep.window),
        "search_bound": rep.search_bound,
        "violations": [list(v) for v in rep.violations],
        "status": "pass" if rep.ok else "fail",
    }, 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="zerolen",
        description="factorization length sets over finite abelian groups "
        "and numerical monoids",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help, parent=sub):
        s = parent.add_parser(name, parents=[common], help=help)
        s.set_defaults(fn=fn)
        return s

    s = add("atoms", cmd_atoms, "enumerate minimal zero-sum sequences")
    s.add_argument("group")
    s.add_argument("--subset", help="';'-separated element literals")
    s.add_argument("--full", action="store_true")
    s.add_argument("--classify", action="store_true",
                   help="classify the C2xC4 catalog")

    s = add("lengths", cmd_lengths, "length set of a zero-sum sequence")
    s.add_argument("group")
    s.add_argument("sequence")

    s = add("system", cmd_system, "bounded system of sets of lengths")
    s.add_argument("group")
    s.add_argument("--max-len", type=int, dest="max_len")
    s.add_argument("--with-zero", action="store_true")
    s.add_argument("--emit-witness", action="store_true")

    s = add("delta-star", cmd_delta_star, "bounded delta-star certificate")
    s.add_argument("group")
    s.add_argument("--max-len", type=int, dest="max_len")

    s = add("rho-k", cmd_rho_k, "k-th elasticity certificate")
    s.add_argument("group")
    s.add_argument("k", type=int)

    s = add("compare", cmd_compare, "bounded inclusion between two systems")
    s.add_argument("group_a")
    s.add_argument("group_b")
    s.add_argument("--max-len", type=int, dest="max_len")

    s = add("intersect", cmd_intersect, "bounded intersection of systems")
    s.add_argument("groups", nargs="+")
    s.add_argument("--max-value", type=int)

    s = sub.add_parser("family", help="closed-form families")
    family = s.add_subparsers(dest="action", required=True)
    add("list", cmd_family_list, "every registered family branch", family)

    def add_branch(action, fn, help):  # member and witness read one branch at (y, k)
        s = add(action, fn, help, family)
        s.add_argument("id", help="family and branch, such as T46:L6")
        s.add_argument("--y", type=int, default=0)
        s.add_argument("--k", type=int, default=0)
        return s

    add_branch("member", cmd_family_member, "the member of a branch at (y, k)")
    s = add_branch("witness", cmd_family_witness, "a witness sequence of that member")
    s.add_argument("--group", help="the group of a branch that names none")
    s = add("match", cmd_family_match, "the branches that hold a set of lengths",
            family)
    s.add_argument("group")
    s.add_argument("--set", type=_ints, required=True, help="comma-separated lengths")

    s = add("verify", cmd_verify, "run a named verification target")
    s.add_argument("target", choices=TARGETS)
    s.add_argument("--bound", type=int)

    s = sub.add_parser("nm", help="numerical monoid computations")
    nm = s.add_subparsers(dest="action", required=True)

    def add_nm(action, fn, help, bound=False, gens=_ints):
        s = add(action, fn, help, nm)
        s.add_argument("gens", type=gens)
        if bound:  # only the three checks read a bound
            s.add_argument("--bound", type=int, default=200)
        return s

    s = add_nm("lengths", cmd_nm_lengths, "length set of an element")
    s.add_argument("a", type=int)
    add_nm("invariants", cmd_nm_invariants,
           "elasticity, min distance and Frobenius number")
    add_nm("verify-gap", cmd_nm_verify_gap, "elasticity gap up to the bound",
           bound=True)
    s = add_nm("verify-57", cmd_nm_verify_57,
               "F(P)xD1 against the C3 or C3+C3 family", bound=True)
    s.add_argument("--case", choices=("b2", "b3"), default="b2")
    s = add_nm("verify-56", cmd_nm_verify_56, "y_L shift bound of L in a product",
               bound=True, gens=_int_lists)
    s.add_argument("--L", type=_ints, default="2,3")

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, code = args.fn(args)
    except (ValueError, UsageError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimitError) else 2
    try:
        _emit(payload, args.json)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
