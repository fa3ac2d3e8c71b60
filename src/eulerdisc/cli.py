"""Command-line interface.

Each subcommand reads one YAML input file, runs the corresponding
pipeline, and emits a report: human-readable lines followed by a
deterministic JSON block introduced by a `--- structured ---` marker.
Identical inputs and seeds produce byte-identical reports.

Exit codes: 1 for input and parse errors, for an input file that cannot
be read or an output file that cannot be opened, and for a reader that
closes the report's pipe early, 2 for hypothesis violations (e.g. a
disconnected graph) and for usage errors, 3 for size-limit refusals.

Each command imports its pipeline in its own body, so a call loads only
the modules it runs, and `--version` and `--help` load none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import __version__
from .errors import HypothesisError, InputError, SizeLimitError


class _Chunked:
    """A report value given as a list of chunks, whose join is its text.
    `_emit` writes the chunks one by one, in a human line or as a JSON
    string, and never joins them."""

    __slots__ = ("chunks",)

    def __init__(self, chunks):
        self.chunks = chunks


def _emit(human_lines, structured, output):
    """Write the report piece by piece: each human line, the marker, then
    the JSON block as `json.dump` would write it, so that no copy of the
    whole report is built.  A line or a structured value may be `_Chunked`.
    """
    chunked = []  # the chunks of the value the JSON encoder is at

    def default(value):
        # the encoder's hook for a value it cannot encode: a `_Chunked`
        # value stands in as "", the token the encoder yields next
        if not isinstance(value, _Chunked):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        chunked.append(value.chunks)
        return ""

    encoder = json.JSONEncoder(indent=2, sort_keys=True, default=default)
    try:
        target = open(output, "w") if output else nullcontext(sys.stdout)
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc.strerror}")
    with target as out:
        for line in human_lines:
            out.writelines(line.chunks if isinstance(line, _Chunked) else (line,))
            out.write("\n")
        out.write("--- structured ---\n")
        for token in encoder.iterencode(structured):
            if chunked:
                # JSON escapes each character on its own, so the escaped
                # chunks join to the escaped text
                out.write('"')
                out.writelines(json.dumps(chunk)[1:-1] for chunk in chunked.pop())
                out.write('"')
            else:
                out.write(token)
        out.write("\n")
        out.flush()


def _load(path, expected_kinds):
    from .formats import document_kind, load_document

    doc = load_document(path)
    kind = document_kind(doc)
    if kind not in expected_kinds:
        raise InputError(
            f"{path}: expected a {' or '.join(expected_kinds)} document, got {kind}"
        )
    return doc, kind


def _load_pattern(path):
    """The pattern graph of a pattern or energy-graph document, which must
    be connected."""
    from .formats import ingest_cosmo, ingest_pattern
    from .graphs import is_connected

    doc, kind = _load(path, ("pattern", "cosmo"))
    if kind == "pattern":
        g = ingest_pattern(doc)
    else:
        from .cosmo import cosmo_pattern

        g = cosmo_pattern(ingest_cosmo(doc))
    if not is_connected(g):
        raise HypothesisError(
            "precondition violated: pattern graph must be connected"
        )
    return g


def _load_cosmo(path):
    from .formats import ingest_cosmo

    doc, _ = _load(path, ("cosmo",))
    return ingest_cosmo(doc)


# name -> (run, options); `run(args)` gets the parsed arguments
_COMMANDS = {}

_OUTPUT = (("-o", "--output"), dict(metavar="FILE", help="Write the report to a file instead of stdout."))
_SEED = (("--seed",), dict(type=int, default=0, metavar="INTEGER",
                           help="Random seed for sampling and witness search.  [default: %(default)s]"))
_NO_WITNESS = (("--no-witness",), dict(action="store_true",
                                       help="Skip the witness search; exponents report unknown."))


def _command(name, *options):
    """Register the decorated `run(args)` as the subcommand `name`: its
    docstring is the help, and it takes INPUT and then `options`, each a
    pair of flags and `add_argument` keywords."""

    def register(run):
        _COMMANDS[name] = (run, options)
        return run

    return register


@_command("pad", (("--check-degree",), dict(
    action="store_true", help="Verify the degree identity against the edge polytope volume.")), _OUTPUT)
def pad(args):
    """Principal A-determinant of a bipartite pattern (or energy graph)."""
    from .discriminant import degree_check, pad_sparse
    from .lattice import edge_config

    g = _load_pattern(args.input)
    e = pad_sparse(g)
    lines = ["principal A-determinant", f"E_A = {e}",
             f"degree = {e.total_degree()}", f"factors = {len(e.factors)}"]
    structured = {
        "command": "pad",
        "degree": e.total_degree(),
        "factors": [{"poly": p, "exponent": k} for p, k in e.as_pairs()],
    }
    if args.check_degree:
        ok = degree_check(e, edge_config(g))
        lines.append(f"degree identity: {'ok' if ok else 'MISMATCH'}")
        structured["degree_identity"] = ok
    _emit(lines, structured, args.output)


@_command("euler-disc", _SEED, _NO_WITNESS, _OUTPUT)
def euler_disc_cmd(args):
    """Euler discriminant of a parametrized family, with multiplicities."""
    from .discriminant import euler_disc
    from .formats import ingest_family

    doc, _ = _load(args.input, ("family",))
    rep = euler_disc(ingest_family(doc), seed=args.seed, find_witnesses=not args.no_witness)
    structured = {"command": "euler-disc", "seed": args.seed}
    structured.update(rep.to_dict())
    _emit(str(rep).splitlines(), structured, args.output)


@_command("beta", _OUTPUT)
def beta_cmd(args):
    """Signed Euler characteristic of the arrangement complement whose
    coefficient block is the given matrix (the Crapo beta invariant of
    the matrix prefixed with an identity block)."""
    from .formats import ingest_matrix
    from .matroid import signed_euler_char

    doc, _ = _load(args.input, ("matrix",))
    value = signed_euler_char(ingest_matrix(doc))
    _emit([f"beta = {value}"], {"command": "beta", "beta": value}, args.output)


@_command("polytope", _OUTPUT)
def polytope(args):
    """Dimension, normalized volume, and f-vector of an edge polytope."""
    from .lattice import edge_config, volume_and_f_vector

    vol, fv = volume_and_f_vector(edge_config(_load_pattern(args.input)))
    d = len(fv)
    lines = [f"dimension = {d}", f"volume = {vol}", f"f-vector = {tuple(fv)}"]
    _emit(
        lines,
        {"command": "polytope", "dimension": d, "volume": vol, "f_vector": list(fv)},
        args.output,
    )


@_command("cosmo-psi", _OUTPUT)
def cosmo_psi(args):
    """Flat-space wavefunction coefficient of a tree."""
    from .cosmo import wavefunction

    psi = wavefunction(_load_cosmo(args.input))
    # path6's numerator is 159,328 terms and about 5 MB of text: it is
    # printed in chunks, which the report writes one by one, and the
    # polynomial is dropped once they exist
    num = psi.num.text_chunks()
    den = str(psi.den)
    structured = {
        "command": "cosmo-psi",
        "numerator": _Chunked(num),
        # the wavefunction's denominator carries no constant factor; the
        # key stays in the report format
        "denominator_constant": 1,
        "denominator_factors": [
            {"poly": p, "exponent": e} for p, e in psi.den.as_pairs()
        ],
    }
    del psi
    lines = ["wavefunction coefficient", _Chunked(["numerator = ", *num]),
             f"denominator = {den}"]
    _emit(lines, structured, args.output)


@_command("cosmo-facets", _OUTPUT)
def cosmo_facets(args):
    """Facet hyperplanes of the polytope attached to an energy graph."""
    from .cosmo import facet_forms

    forms = facet_forms(_load_cosmo(args.input))
    lines = [f"facets = {len(forms)}"]
    for f in forms:
        lines.append(f"  {f.constant}  alpha={''.join(map(str, f.alpha))}")
    _emit(
        lines,
        {
            "command": "cosmo-facets",
            "facets": [
                {"constant": str(f.constant), "alpha": list(f.alpha)}
                for f in forms
            ],
        },
        args.output,
    )


@_command("cosmo-disc", _SEED, _NO_WITNESS, _OUTPUT)
def cosmo_disc(args):
    """Euler discriminant of the physical coefficient family of an
    energy graph."""
    from .cosmo import cosmo_euler_disc

    rep = cosmo_euler_disc(_load_cosmo(args.input), seed=args.seed,
                           find_witnesses=not args.no_witness)
    structured = {"command": "cosmo-disc", "seed": args.seed}
    structured.update(rep.to_dict())
    _emit(str(rep).splitlines(), structured, args.output)


def _parser(add_parser, **kwargs):
    """A parser with `--help` but no `-h`, and no abbreviated long
    options."""
    parser = add_parser(add_help=False, allow_abbrev=False, **kwargs)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def main(args=None, prog_name=None):
    """Principal A-determinants and Euler discriminants of sparse
    hyperplane arrangements.

    Parses `args` (default: sys.argv[1:]) and runs the command.  Returns
    on success; raises SystemExit with the exit code otherwise."""
    parser = _parser(argparse.ArgumentParser, prog=prog_name or "eulerdisc",
                     description=main.__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"eulerdisc, version {__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name, (run, options) in _COMMANDS.items():
        sub = _parser(commands.add_parser, name=name, help=run.__doc__, description=run.__doc__)
        sub.add_argument("input", metavar="INPUT")
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(run=run)
    parsed = parser.parse_args(args)
    try:
        parsed.run(parsed)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        sys.exit(2)
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        sys.exit(3)
    except BrokenPipeError:
        # the reader is gone: what stdout still buffers goes to devnull, so
        # the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
