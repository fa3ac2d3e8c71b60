"""Command-line interface.

Each subcommand reads one YAML input file, runs the corresponding
pipeline, and emits a report: human-readable lines followed by a
deterministic JSON block introduced by a `--- structured ---` marker.
Identical inputs and seeds produce byte-identical reports.

Exit codes: 1 for input and parse errors, 2 for hypothesis violations
(e.g. a disconnected graph), 3 for size-limit refusals.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext

import click

from . import __version__
from .cosmo import (
    cosmo_euler_disc,
    cosmo_pad,
    cosmo_pattern,
    facet_forms,
    wavefunction,
)
from .discriminant import degree_check, euler_disc, pad_sparse
from .errors import HypothesisError, InputError, SizeLimitError
from .formats import (
    document_kind,
    ingest_cosmo,
    ingest_family,
    ingest_matrix,
    ingest_pattern,
    load_document,
)
from .graphs import is_connected
from .lattice import edge_config, f_vector, lattice_normalize, normalized_volume
from .matroid import signed_euler_char


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
    stdout = click.get_text_stream("stdout")
    with open(output, "w") if output else nullcontext(stdout) as out:
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
    doc = load_document(path)
    kind = document_kind(doc)
    if kind not in expected_kinds:
        raise InputError(
            f"{path}: expected a {' or '.join(expected_kinds)} document, got {kind}"
        )
    return doc, kind


def _run(body):
    try:
        body()
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except HypothesisError as exc:
        click.echo(f"hypothesis violation: {exc}", err=True)
        sys.exit(2)
    except SizeLimitError as exc:
        click.echo(f"size limit: {exc}", err=True)
        sys.exit(3)


def _load_pattern(path):
    """The pattern graph of a pattern or energy-graph document, which must
    be connected."""
    doc, kind = _load(path, ("pattern", "cosmo"))
    if kind == "pattern":
        g = ingest_pattern(doc)
    else:
        g = cosmo_pattern(ingest_cosmo(doc))
    if not is_connected(g):
        raise HypothesisError(
            "precondition violated: pattern graph must be connected"
        )
    return g


@click.group()
@click.version_option(version=__version__, prog_name="eulerdisc")
def main():
    """Principal A-determinants and Euler discriminants of sparse
    hyperplane arrangements."""


@main.command()
@click.argument("input_path", metavar="INPUT")
@click.option("--check-degree", is_flag=True, help="Verify the degree identity against the edge polytope volume.")
@click.option("-o", "--output", default=None, help="Write the report to a file instead of stdout.")
def pad(input_path, check_degree, output):
    """Principal A-determinant of a bipartite pattern (or energy graph)."""

    def body():
        g = _load_pattern(input_path)
        e = pad_sparse(g)
        lines = ["principal A-determinant", f"E_A = {e}",
                 f"degree = {e.total_degree()}", f"factors = {len(e.factors)}"]
        structured = {
            "command": "pad",
            "degree": e.total_degree(),
            "factors": [{"poly": p, "exponent": k} for p, k in e.as_pairs()],
        }
        if check_degree:
            ok = degree_check(e, edge_config(g))
            lines.append(f"degree identity: {'ok' if ok else 'MISMATCH'}")
            structured["degree_identity"] = ok
        _emit(lines, structured, output)

    _run(body)


@main.command("euler-disc")
@click.argument("input_path", metavar="INPUT")
@click.option("--seed", default=0, show_default=True, help="Random seed for sampling and witness search.")
@click.option("--no-witness", is_flag=True, help="Skip the witness search; exponents report unknown.")
@click.option("-o", "--output", default=None, help="Write the report to a file instead of stdout.")
def euler_disc_cmd(input_path, seed, no_witness, output):
    """Euler discriminant of a parametrized family, with multiplicities."""

    def body():
        doc, _ = _load(input_path, ("family",))
        fam = ingest_family(doc)
        rep = euler_disc(fam, seed=seed, find_witnesses=not no_witness)
        structured = {"command": "euler-disc", "seed": seed}
        structured.update(rep.to_dict())
        _emit(str(rep).splitlines(), structured, output)

    _run(body)


@main.command("beta")
@click.argument("input_path", metavar="INPUT")
@click.option("-o", "--output", default=None, help="Write the report to a file instead of stdout.")
def beta_cmd(input_path, output):
    """Signed Euler characteristic of the arrangement complement whose
    coefficient block is the given matrix (the Crapo beta invariant of
    the matrix prefixed with an identity block)."""

    def body():
        doc, _ = _load(input_path, ("matrix",))
        rows = ingest_matrix(doc)
        value = signed_euler_char(rows)
        _emit(
            [f"beta = {value}"],
            {"command": "beta", "beta": value},
            output,
        )

    _run(body)


@main.command()
@click.argument("input_path", metavar="INPUT")
@click.option("--max-points", default=None, type=int, help="Override the point-count bound for face enumeration.")
@click.option("-o", "--output", default=None, help="Write the report to a file instead of stdout.")
def polytope(input_path, max_points, output):
    """Dimension, normalized volume, and f-vector of an edge polytope."""

    def body():
        g = _load_pattern(input_path)
        c = edge_config(g)
        d, _ = lattice_normalize(c)
        vol = normalized_volume(c)
        fv = f_vector(c, max_points=max_points)
        lines = [f"dimension = {d}", f"volume = {vol}",
                 f"f-vector = {tuple(fv)}"]
        _emit(
            lines,
            {"command": "polytope", "dimension": d, "volume": vol,
             "f_vector": list(fv)},
            output,
        )

    _run(body)


@main.command("cosmo-psi")
@click.argument("input_path", metavar="INPUT")
@click.option("-o", "--output", default=None, help="Write the report to a file instead of stdout.")
def cosmo_psi(input_path, output):
    """Flat-space wavefunction coefficient of a tree."""

    def body():
        doc, _ = _load(input_path, ("cosmo",))
        g = ingest_cosmo(doc)
        psi = wavefunction(g)
        # path6's numerator is 159,328 terms and about 5 MB of text: it is
        # printed in chunks, which the report writes one by one, and the
        # polynomial is dropped once they exist
        num = psi.num.text_chunks()
        den = str(psi.den)
        if psi.den_const != 1:
            den = f"{psi.den_const} * {den}"
        structured = {
            "command": "cosmo-psi",
            "numerator": _Chunked(num),
            "denominator_constant": psi.den_const,
            "denominator_factors": [
                {"poly": p, "exponent": e} for p, e in psi.den.as_pairs()
            ],
        }
        del psi
        lines = ["wavefunction coefficient", _Chunked(["numerator = ", *num]),
                 f"denominator = {den}"]
        _emit(lines, structured, output)

    _run(body)


@main.command("cosmo-facets")
@click.argument("input_path", metavar="INPUT")
@click.option("--max-vertices", default=8, show_default=True, help="Vertex bound for subgraph enumeration.")
@click.option("-o", "--output", default=None, help="Write the report to a file instead of stdout.")
def cosmo_facets(input_path, max_vertices, output):
    """Facet hyperplanes of the polytope attached to an energy graph."""

    def body():
        doc, _ = _load(input_path, ("cosmo",))
        g = ingest_cosmo(doc)
        forms = facet_forms(g, max_vertices=max_vertices)
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
            output,
        )

    _run(body)


@main.command("cosmo-disc")
@click.argument("input_path", metavar="INPUT")
@click.option("--seed", default=0, show_default=True, help="Random seed for sampling and witness search.")
@click.option("--no-witness", is_flag=True, help="Skip the witness search; exponents report unknown.")
@click.option("-o", "--output", default=None, help="Write the report to a file instead of stdout.")
def cosmo_disc(input_path, seed, no_witness, output):
    """Euler discriminant of the physical coefficient family of an
    energy graph."""

    def body():
        doc, _ = _load(input_path, ("cosmo",))
        g = ingest_cosmo(doc)
        rep = cosmo_euler_disc(g, seed=seed, find_witnesses=not no_witness)
        structured = {"command": "cosmo-disc", "seed": seed}
        structured.update(rep.to_dict())
        _emit(str(rep).splitlines(), structured, output)

    _run(body)


if __name__ == "__main__":
    main()
