"""Edge-list serialisation.

The paper's framework ingests SNAP-style plain-text edge lists: one
``src dst`` pair per line, ``#`` comments allowed.  That format is kept here
so synthetic datasets round-trip through the same loader a real deployment
would use.
"""

from __future__ import annotations

import io
import os
import zipfile
import zlib
from typing import Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_npz",
    "write_npz",
]

PathLike = Union[str, os.PathLike]

#: Endpoint ids must fit the int64 arrays the graph is built from.
_INT64 = np.iinfo(np.int64)


def read_edge_list(
    path: PathLike,
    num_vertices: int = None,
    drop_self_loops: bool = False,
    deduplicate: bool = False,
    comment: str = "#",
) -> DiGraph:
    """Read a whitespace-separated edge list file into a :class:`DiGraph`.

    Parameters
    ----------
    path:
        Input file.  Each non-comment line must contain two integer ids
        (additional columns are rejected — a silent drop would hide data
        corruption).
    num_vertices:
        Optional fixed vertex-count; inferred from the data otherwise.
    drop_self_loops, deduplicate:
        Cleanup applied during construction.
    comment:
        Lines starting with this prefix are skipped.

    Raises
    ------
    GraphFormatError
        On any unparseable line, with the line number in the message.
    """
    srcs = []
    dsts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(comment):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'src dst', got {stripped!r}"
                )
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer endpoint in {stripped!r}"
                ) from exc
            if min(src, dst) < _INT64.min or max(src, dst) > _INT64.max:
                raise GraphFormatError(
                    f"{path}:{lineno}: endpoint outside int64 in {stripped!r}"
                )
            srcs.append(src)
            dsts.append(dst)
    builder = GraphBuilder(
        num_vertices=num_vertices,
        drop_self_loops=drop_self_loops,
        deduplicate=deduplicate,
    )
    builder.add_edges(
        np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64)
    )
    return builder.build()


def write_npz(graph: DiGraph, path: PathLike) -> None:
    """Write the graph as a compressed NumPy archive.

    Orders of magnitude faster to load than text edge lists for large
    graphs; used when experiments cache generated stand-ins.
    """
    src, dst = graph.edges()
    np.savez_compressed(
        path,
        num_vertices=np.int64(graph.num_vertices),
        src=src,
        dst=dst,
    )


def read_npz(path: PathLike) -> DiGraph:
    """Read a graph written by :func:`write_npz`.

    A file that is not a readable archive of the right shape — empty,
    truncated, corrupt, pickled, a bare ``.npy`` array, or with a
    non-scalar vertex count — raises :class:`GraphFormatError` naming
    the path.  A missing or unreadable file raises the ``OSError``.
    """
    try:
        with np.load(path) as data:
            return DiGraph(
                int(data["num_vertices"]), data["src"], data["dst"]
            )
    except KeyError as exc:
        raise GraphFormatError(
            f"{path}: not a repro graph archive (missing {exc})"
        ) from exc
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError, TypeError) as exc:
        raise GraphFormatError(
            f"{path}: not a readable graph archive ({exc})"
        ) from exc


def write_edge_list(graph: DiGraph, path: PathLike, header: bool = True) -> None:
    """Write the graph as a SNAP-style edge list.

    Parameters
    ----------
    graph:
        Graph to serialise (canonical edge order is preserved).
    path:
        Output file path.
    header:
        Emit a comment header with vertex/edge counts (as SNAP files do).
    """
    src, dst = graph.edges()
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# Directed graph: {os.fspath(path)}\n")
            fh.write(
                f"# Nodes: {graph.num_vertices} Edges: {graph.num_edges}\n"
            )
        buf = io.StringIO()
        for u, v in zip(src.tolist(), dst.tolist()):
            buf.write(f"{u}\t{v}\n")
        fh.write(buf.getvalue())
