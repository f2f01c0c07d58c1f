"""Command-line driver: verification suites, ad-hoc pullback and pairing
queries, and JSON export of the named corpus.

``SUITES`` registers the suites of :mod:`effcone.suites` by module name; it
supplies the ``verify`` choices, and ``verify all`` runs them all.  Each
suite is called through its ``<name>_suite`` entry point here, which loads
the suites module, and ``emit_report`` renders the rows.

Every effcone module but ``picard`` and ``scalars`` is imported where it
is called, so that each command loads only the modules it runs:
``intersect`` the batch reader (:mod:`effcone.batches`), ``pullback``
``gluing`` and the writer (:mod:`effcone.writer`), ``export`` ``corpus``
and the writer, and ``verify`` the suites and those of their modules that
it runs (``chow`` and ``certify`` only with the suites that call them).

Exit codes: 0 when every check passes, 1 on any failing row (an internal
error in a suite is one), 2 on usage or input errors and on a refused budget.
A refused budget is a ``picard.ResourceGuardError``. A builder raises it
before it builds anything, so ``export`` is refused before ``--output`` is
opened, and a view before it lists anything; ``pullback`` checks its view's
count before it opens ``--output``, and ``verify --direct-max-d`` before any
suite runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import stat
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

from . import picard
from .picard import EXPORT_BUDGET  # noqa: F401  (the budget the commands are held to)
from .scalars import scalar_to_json

if TYPE_CHECKING:  # annotations alone; the suites load with verify
    from .suites import CheckRow

DEFAULT_MAX_D = 12
DIRECT_ROUTE_DEFAULT_CAP = 6  # the default of verify --direct-max-d, not a guard


class InputError(ValueError):
    """A file or argument the user supplied cannot be used."""


# ---------------------------------------------------------------------------
# reports and suites


def emit_report(rows: Sequence[CheckRow], fmt: str = "text") -> str:
    """Render check rows, ordered by module then check name."""
    rows = sorted(rows, key=lambda r: (r.module, r.check))
    failed = sum(1 for r in rows if not r.ok)
    if fmt == "json":
        payload = {
            "checks": [
                {
                    "module": r.module,
                    "check": r.check,
                    "status": "pass" if r.ok else "fail",
                    "expected": r.expected,
                    "actual": r.actual,
                    "citation": r.citation,
                }
                for r in rows
            ],
            "summary": {"checks": len(rows), "failed": failed},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    def show(value):
        return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))

    lines = []
    for r in rows:
        status = "PASS" if r.ok else "FAIL"
        lines.append(
            f"{status}  {r.module}/{r.check}  expected={show(r.expected)} actual={show(r.actual)}  [{r.citation}]"
        )
    lines.append(f"{len(rows)} checks, {failed} failed")
    return "\n".join(lines) + "\n"


# Each suite runs in effcone.suites, loaded when its entry point here is
# called; the defaults of --max-d and --direct-max-d are the command line's.


def trigonal_suite() -> List[CheckRow]:
    from . import suites

    return suites.trigonal_suite()


def gonal_suite(max_d: int = DEFAULT_MAX_D, direct_max_d: int = DIRECT_ROUTE_DEFAULT_CAP) -> List[CheckRow]:
    from . import suites

    return suites.gonal_suite(max_d, direct_max_d)


def gp_suite() -> List[CheckRow]:
    from . import suites

    return suites.gp_suite()


def chow_suite() -> List[CheckRow]:
    from . import suites

    return suites.chow_suite()


def certificate_suite(direct_max_d: int = DIRECT_ROUTE_DEFAULT_CAP) -> List[CheckRow]:
    from . import suites

    return suites.certificate_suite(direct_max_d)


def property_suite(**options) -> List[CheckRow]:
    """``suites.property_suite``, ``reps`` defaulting to ``suites.PROPERTY_REPS``."""
    from . import suites

    return suites.property_suite(**options)


# Each entry looks its suite up by name when called, so that a suite
# replaced on this module (a test double, a timing wrapper) is the one run.
SUITES: Dict[str, Callable[[argparse.Namespace], List[CheckRow]]] = {
    "trigonal": lambda args: trigonal_suite(),
    "gonal": lambda args: gonal_suite(args.max_d, args.direct_max_d),
    "gp": lambda args: gp_suite(),
    "chow": lambda args: chow_suite(),
    "certify": lambda args: certificate_suite(args.direct_max_d),
    "properties": lambda args: property_suite(),
}


# ---------------------------------------------------------------------------
# file commands


def _text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _decode(path: str, text: str):
    """The JSON document in ``text``, with its errors worded for ``path``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise InputError(f"{path}: JSON value cannot be read: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply to read: {exc}") from exc


def _replaced(output: str) -> bool:
    """Whether ``output`` is written through a new file beside it, which
    then replaces it: when it names a regular file or nothing yet.
    Anything else (a device such as /dev/full, a FIFO, a symbolic link
    such as /dev/stdout, a directory, a path with no file name or one
    that cannot be looked up) is opened and written in place, and ``open``
    words its error."""
    if not os.path.basename(output):
        return False
    try:
        return stat.S_ISREG(os.lstat(output).st_mode)
    except FileNotFoundError:
        return True
    except OSError:
        return False


def _write_replacing(item, output: str) -> None:
    """Write ``item`` to a new file in ``output``'s directory and rename it
    onto ``output`` after the last write, so that a failure at any point
    removes the new file and leaves ``output`` as it was.  The new file is
    created as ``open(output, "w")`` would create it, under the umask, and
    takes the mode of the file it replaces."""
    from . import writer

    head, name = os.path.split(output)
    try:
        mode = stat.S_IMODE(os.stat(output).st_mode)
    except FileNotFoundError:
        mode = None
    attempt = 0
    while True:
        temp = os.path.join(head, f".{name}.{os.getpid()}-{attempt}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            attempt += 1
        except OSError as exc:  # worded for output, as open(output) would word it
            raise OSError(exc.errno, exc.strerror, output) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            writer.write_json(item, fh.write)
        os.replace(temp, output)
    except BaseException:
        os.unlink(temp)
        raise


def _dump_json(item, output: str | None) -> None:
    """Stream the canonical text of a class or profile into ``output``, or
    to stdout when it is omitted, a chunk of entries at a time.  Every
    refusal comes before this call.  A regular file, or a path with
    nothing there yet, is only replaced once the whole text is written
    (:func:`_write_replacing`); any other ``output`` is written in place.
    An empty ``output`` is a path like any other."""
    from . import writer

    if output is None:
        writer.write_json(item, sys.stdout.write)
        return
    try:
        if _replaced(output):
            _write_replacing(item, output)
        else:
            with open(output, "w", encoding="utf-8") as fh:
                writer.write_json(item, fh.write)
    except OSError as exc:  # opening, a write, the flush at close, or the rename
        raise InputError(f"cannot write {output}: {exc}") from exc


def _read(path: str, parse, what: str, profile: picard.CurveProfile | None = None):
    """Parse the JSON file at ``path`` with ``parse``; a file that does not
    hold a ``what`` is an input error, worded here for either route.  A
    space mismatch with ``profile`` is passed on as it is.

    A regular file in the writer's layout is first given to ``parse`` as
    the document of ``picard.batched_class``, read in batches (see
    :mod:`effcone.batches`); a class read against ``profile`` keeps only its
    support, and only such a class is walked.
    A file of the other kind is refused from its tail.  Any other file, or
    one the batch reader refuses (``picard.NotCanonical``), is decoded
    whole and read entry by entry, which words every error.

    The text is freed as soon as it is decoded, before ``parse`` runs: on
    a large file it is as large as the parse's own working set.  The cycle
    collector is paused for the decode and the parse, and then put back
    as it was.  A decoded JSON value is a tree with no cycles, so a
    collection can find nothing in it, yet the allocations of a large file
    start collections that walk the whole young tree. A pause around the
    decode alone would only defer that walk to the first collection after
    it; by the end of the parse the tree is freed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj = picard.batched_class(path, profile)
        try:
            if obj is not None:
                try:
                    return parse(obj)
                except picard.NotCanonical:
                    pass
            obj = _decode(path, _text(path))
            return parse(obj)
        except (InputError, picard.SpaceMismatchError):
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: not a {what} file: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _check_pencil_markings(d: int) -> None:
    """Refuse a degree d >= 3 whose gonal pencil and gluing pullback land
    on 4d - 4 > 64 markings, before anything of degree d is built."""
    if d >= 3:
        picard._check_n(4 * d - 4)


def _cmd_pullback(args) -> int:
    from . import gluing

    cls = _read(args.input, picard.mg_class_from_json, "genus-g class")
    if cls.g != args.g:
        raise InputError(f"class lives on genus {cls.g}, but --g {args.g} was given")
    result = gluing.glue_pullback(cls, args.m)
    # the view counts its entries combinatorially; len() itself would refuse
    # a count past sys.maxsize (64 markings)
    picard._check_budget(result.boundary.__len__(), f"the pullback to {result.n} markings")
    _dump_json(result, args.output)
    return 0


def _cmd_intersect(args) -> int:
    prof = _read(args.profile, picard.profile_from_json, "profile")
    cls = _read(args.class_file, picard.m1n_class_from_json, "marked-space class", prof)
    out = scalar_to_json(picard.pair(prof, cls))
    print(out if isinstance(out, str) else json.dumps(out))
    return 0


# each builder is given the corpus module and looks its function up when
# called, so that a wrapped one (bench/layers.py times them) is the one that runs
_EXPORTERS = {
    "gp": lambda corpus: corpus.gp_class(),
    "pullback-trigonal": lambda corpus: corpus.golden_pullback("trigonal"),
    "pullback-gp": lambda corpus: corpus.golden_pullback("gp"),
    "profile-trig": lambda corpus: corpus.profile("trig"),
    "profile-bnd": lambda corpus: corpus.profile("bnd"),
    "profile-gp": lambda corpus: corpus.profile("gp"),
}


def _cmd_export(args) -> int:
    from . import corpus

    name = args.name
    if name in _EXPORTERS:
        item = _EXPORTERS[name](corpus)
    elif match := re.fullmatch(r"bn\(([0-9]+)\)", name):
        d = int(match.group(1))
        _check_pencil_markings(d)  # its gluing pullback lands on 4d - 4 markings
        item = corpus.bn_class(d)
    elif match := re.fullmatch(r"profile-gonal\(([0-9]+)\)", name):
        item = corpus.profile("gonal", int(match.group(1)))  # refused past the budget before it is built
    else:
        known = ", ".join(sorted(_EXPORTERS) + ["bn(d)", "profile-gonal(d)"])
        raise InputError(f"unknown corpus item {name!r}; known: {known}")
    _dump_json(item, args.output)
    return 0


def _cmd_verify(args) -> int:
    from . import corpus
    from .suites import _suite

    d = args.direct_max_d
    if d >= 3:
        # the direct route builds profile-gonal(d) whole; refused before any suite runs
        what = f"--direct-max-d {d} (profile-gonal({d}) on {4 * d - 4} markings)"
        picard._check_budget(corpus.gonal_support(d), what)
    # the sign sweep reads the d-gonal pencil for d = 3 .. --max-d; a range
    # below 3, or past 64 markings as for bn(d), is refused before any suite runs
    if args.max_d < 3:
        raise InputError(f"report range must reach at least d = 3, got {args.max_d}")
    _check_pencil_markings(args.max_d)
    names = SUITES if args.suite == "all" else (args.suite,)
    internal = (ArithmeticError,)
    if "certify" in names:  # certify is loaded only for its suite
        from .certify import CertificateRefused

        internal += (CertificateRefused,)
    rows = []
    for name in names:
        try:
            rows += SUITES[name](args)
        # an internal consistency check failed; the other suites still report
        except internal as exc:
            actual = f"{type(exc).__name__}: {exc}"
            rows += _suite(name, [("internal_error", "no error", actual, "internal consistency failure")])
    sys.stdout.write(emit_report(rows, "json" if args.json else "text"))
    return 0 if all(r.ok for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effcone",
        description=(
            "Exact verification of divisor-class pullbacks, test-curve pairings, "
            "and extremality certificates on moduli of marked genus-one curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("suite", choices=("all", *SUITES))
    verify.add_argument("--max-d", type=int, default=DEFAULT_MAX_D, help="sign sweep bound")
    verify.add_argument(
        "--direct-max-d",
        type=int,
        default=DIRECT_ROUTE_DEFAULT_CAP,
        help="cap for the full-enumeration route",
    )
    verify.add_argument("--json", action="store_true", help="emit the JSON report")

    pullback = sub.add_parser("pullback", help="pull a genus-g class back along the gluing map")
    pullback.set_defaults(run=_cmd_pullback)
    pullback.add_argument("--g", type=int, required=True)
    pullback.add_argument("--m", type=int, required=True)
    pullback.add_argument("--input", required=True, help="genus-g class JSON file")
    pullback.add_argument("--output", help="destination file (stdout when omitted)")

    intersect = sub.add_parser("intersect", help="pair a profile against a class")
    intersect.set_defaults(run=_cmd_intersect)
    intersect.add_argument("--profile", required=True, help="profile JSON file")
    intersect.add_argument("--class", dest="class_file", required=True, help="class JSON file")

    export = sub.add_parser("export", help="write a named corpus item as JSON")
    export.set_defaults(run=_cmd_export)
    export.add_argument("--name", required=True, help="e.g. bn(3), gp, pullback-trigonal, profile-gonal(4)")
    export.add_argument("--output", help="destination file (stdout when omitted)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    # InputError, MarkingIndexError, SpaceMismatchError, ResourceGuardError
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): what is still buffered
        # goes to devnull, so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # stdout cannot take the output (a full disk); the rest goes to
        # devnull as above
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
