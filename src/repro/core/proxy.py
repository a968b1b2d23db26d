"""Proxy graph set management (Section III-A).

The paper deploys three synthetic power-law proxies (Table II) with
exponents 1.95 / 2.1 / 2.25, chosen so that the alpha range of natural
graphs (~1.9 to ~2.4) is covered.  A :class:`ProxySet` owns the generated
graphs and implements the coverage rule: when an incoming natural graph's
fitted alpha falls outside the covered band, an additional proxy is
generated and added (Section III-A.3).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import ProfilingError
from repro.graph.digraph import DiGraph
from repro.obs import context as obs
from repro.powerlaw.generator import SyntheticGraphSpec, generate_from_spec
from repro.powerlaw.validation import fit_alpha_from_graph

__all__ = ["DEFAULT_PROXY_ALPHAS", "ProxySet", "proxy_vertices_for_scale"]

#: The paper's deployed proxy exponents (Table II).
DEFAULT_PROXY_ALPHAS: Tuple[float, ...] = (1.95, 2.1, 2.25)

#: Slack around the covered alpha band before a new proxy is generated.
_COVERAGE_SLACK = 0.1


def proxy_vertices_for_scale(scale: float) -> int:
    """Proxy-graph size matching the paper's 3.2 M vertices at ``scale``."""
    return max(1000, round(3_200_000 * scale))


class ProxySet:
    """A set of synthetic proxy graphs for capability profiling.

    Parameters
    ----------
    num_vertices:
        Vertex count of each proxy.  The paper uses 3.2 M; scale this down
        in proportion to the simulation's ``model_scale``.
    alphas:
        Initial exponents; defaults to the paper's three.
    seed:
        Base seed; proxy ``k`` uses ``seed + k``.

    Notes
    -----
    Generation is lazy and cached — the paper reports 67 s to generate its
    three proxies, emphasising it is a one-time cost; here the cache plays
    that role.
    """

    def __init__(
        self,
        num_vertices: int = 32_000,
        alphas: Iterable[float] = DEFAULT_PROXY_ALPHAS,
        seed: int = 100,
    ):
        if num_vertices < 2:
            raise ProfilingError("proxy graphs need at least 2 vertices")
        alpha_values = tuple(float(a) for a in alphas)
        if not alpha_values:
            raise ProfilingError("at least one proxy alpha is required")
        self.num_vertices = num_vertices
        self.seed = seed
        self._specs: List[SyntheticGraphSpec] = [
            SyntheticGraphSpec(
                name=f"proxy_alpha_{a:.2f}",
                num_vertices=num_vertices,
                alpha=a,
                seed=seed + k,
            )
            for k, a in enumerate(alpha_values)
        ]
        self._cache: Dict[str, DiGraph] = {}

    # ------------------------------------------------------------------ #

    @property
    def alphas(self) -> Tuple[float, ...]:
        return tuple(s.alpha for s in self._specs)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self._specs)

    def graphs(self) -> Dict[str, DiGraph]:
        """All proxy graphs, generating (and caching) as needed."""
        for spec in self._specs:
            if spec.name not in self._cache:
                with obs.span(
                    "proxy/generate",
                    proxy=spec.name,
                    alpha=spec.alpha,
                    vertices=spec.num_vertices,
                    seed=spec.seed,
                ):
                    self._cache[spec.name] = generate_from_spec(spec)
        return dict(self._cache)

    # ------------------------------------------------------------------ #

    def covers(self, alpha: float) -> bool:
        """Whether ``alpha`` lies within the covered band (with slack)."""
        return (
            min(self.alphas) - _COVERAGE_SLACK
            <= alpha
            <= max(self.alphas) + _COVERAGE_SLACK
        )

    def ensure_coverage(self, graph: DiGraph) -> bool:
        """Extend the proxy set if the graph's alpha is uncovered.

        Implements Section III-A.3's rule: compute the input graph's alpha
        (from vertex/edge counts alone); if it falls outside the covered
        range, generate one additional proxy at that alpha.

        Returns
        -------
        bool
            True if a new proxy was added.
        """
        alpha = fit_alpha_from_graph(graph)
        if self.covers(alpha):
            return False
        spec = SyntheticGraphSpec(
            name=f"proxy_alpha_{alpha:.2f}",
            num_vertices=self.num_vertices,
            alpha=alpha,
            seed=self.seed + len(self._specs),
        )
        self._specs.append(spec)
        obs.event(
            "proxy/extend", proxy=spec.name, alpha=alpha, seed=spec.seed
        )
        return True

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:
        return (
            f"ProxySet(num_vertices={self.num_vertices}, "
            f"alphas={tuple(round(a, 3) for a in self.alphas)})"
        )
