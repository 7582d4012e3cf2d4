"""Flatness predicates: is every edge curvature zero, and which structures force it.

Connected graphs of girth at least five are flat exactly when they are a
path, a cycle, or a star; regular girth-4 graphs are flat exactly when every
edge has a perfect matching between its endpoint neighborhoods.  Both
classifiers re-check their structural answer against edge-wise curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curvature import ricci_auto
from .errors import GraphInputError, NotApplicableError
from .graph import Graph, connected_components, core_neighborhood, girth_at_least
from .matching import has_perfect_matching_between_neighborhoods
from .transport import DEFAULT_ORACLE_CAP


@dataclass(frozen=True)
class FlatnessReport:
    is_flat: bool
    witness_edge: tuple[int, int] | None
    classification: str | None = None
    component_reports: tuple["FlatnessReport", ...] | None = None


def is_ricci_flat(g: Graph, *, cap: int = DEFAULT_ORACLE_CAP) -> FlatnessReport:
    """Whether kappa = 0 on every edge; the witness is the first nonzero edge.

    On disconnected input the overall verdict is the conjunction over
    components and one sub-report per component is attached (flatness is
    edge-local, so each component stands alone).
    """
    components = connected_components(g)
    member = {v: ci for ci, comp in enumerate(components) for v in comp}
    witnesses: dict[int, tuple[int, int]] = {}
    for u, v in g.edges():
        if len(witnesses) == len(components):
            break
        if member[u] not in witnesses and ricci_auto(g, u, v, cap=cap).kappa != 0:
            witnesses[member[u]] = (u, v)
    # edges come in lexicographic order, so the least witness is the first found
    first = min(witnesses.values(), default=None)
    sub = None
    if len(components) > 1:
        sub = tuple(
            FlatnessReport(is_flat=ci not in witnesses, witness_edge=witnesses.get(ci))
            for ci in range(len(components))
        )
    return FlatnessReport(is_flat=first is None, witness_edge=first, component_reports=sub)


def _girth5_shape(g: Graph) -> str:
    n = g.vertex_count
    if n == 1:
        return "path"
    degs = sorted(g.degrees())
    if degs[0] == 2 and degs[-1] == 2:
        return "cycle"
    if degs[:2] == [1, 1] and (n == 2 or (degs[2] == 2 and degs[-1] == 2)):
        return "path"
    if degs[-1] == n - 1 and n >= 3 and degs[:-1] == [1] * (n - 1):
        return "star"
    return "not_flat"


def classify_girth5_flat(g: Graph, *, cap: int = DEFAULT_ORACLE_CAP) -> FlatnessReport:
    """Classify a connected girth >= 5 graph as path, cycle, star, or not flat.

    The shape test is purely structural (degree sequence); its verdict is then
    required to agree with edge-wise flatness.
    """
    if not g.has_girth_5():
        raise NotApplicableError("classification needs girth at least five")
    if len(connected_components(g)) != 1:
        raise GraphInputError("classification needs a connected graph")
    tag = _girth5_shape(g)
    report = is_ricci_flat(g, cap=cap)
    if report.is_flat != (tag != "not_flat"):
        raise RuntimeError(
            f"girth-5 classification {tag!r} disagrees with edge-wise flatness"
        )
    return FlatnessReport(
        is_flat=report.is_flat,
        witness_edge=report.witness_edge,
        classification=tag,
    )


def check_regular_girth4_flat(g: Graph, *, cap: int = DEFAULT_ORACLE_CAP) -> FlatnessReport:
    """Flatness of a regular girth-4 graph via the perfect-matching criterion.

    Every edge is checked both ways (matching existence and kappa = 0) and the
    two answers must agree edge by edge.
    """
    degs = set(g.degrees())
    if len(degs) != 1:
        raise NotApplicableError("graph is not regular")
    if not girth_at_least(g, 4) or g.has_girth_5():
        raise NotApplicableError("girth is not four")
    witness = None
    for u, v in g.edges():
        core = core_neighborhood(g, u, v)
        has_pm, _ = has_perfect_matching_between_neighborhoods(g, u, v, core=core)
        kappa = ricci_auto(g, u, v, cap=cap, core=core).kappa
        if has_pm != (kappa == 0):
            raise RuntimeError(
                f"matching criterion and curvature disagree on edge ({u}, {v})"
            )
        if not has_pm and witness is None:
            witness = (u, v)
    return FlatnessReport(is_flat=witness is None, witness_edge=witness)


def flatness_with_classification(g: Graph, *, cap: int = DEFAULT_ORACLE_CAP) -> FlatnessReport:
    """Flatness report carrying the girth-5 family tag when it applies.

    Graphs outside the classifier's domain (girth below five, or
    disconnected) get the tag not_girth5_applicable instead of an error.
    """
    connected = len(connected_components(g)) == 1
    if connected and g.has_girth_5():
        return classify_girth5_flat(g, cap=cap)
    report = is_ricci_flat(g, cap=cap)
    return FlatnessReport(
        is_flat=report.is_flat,
        witness_edge=report.witness_edge,
        classification="not_girth5_applicable",
        component_reports=report.component_reports,
    )
