"""Website model: pages, embedded-object bundles, links, user categories.

The paper's mining exploits three structural properties of a website:

* pages have *embedded objects* (images, applets, ...) that browsers
  request immediately after the page — these form *bundles* (§3.2);
* pages are *linked*, and users navigate along links — this induces the
  dependency graph (§4.1.1);
* users fall into *categories* (e.g. current students / prospective
  students / faculty / staff / other on a university site) with mostly
  distinct navigation patterns (§3.1).

This module models all three so that synthetic traces exercise exactly
the code paths the real logs would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

__all__ = [
    "EmbeddedObject",
    "Page",
    "Category",
    "Website",
    "SiteSpec",
    "build_site",
]


@dataclass(frozen=True, slots=True)
class EmbeddedObject:
    """An object embedded in a main page (member of the page's bundle)."""

    path: str
    size: int


@dataclass(frozen=True, slots=True)
class Page:
    """A main web page: its size, bundle members, and outgoing links.

    ``dynamic`` marks generated content (CGI/servlet output): the
    response is computed per request, is not cacheable, and costs extra
    CPU — the paper's future-work item, implemented as an extension.
    """

    path: str
    size: int
    embedded: tuple[EmbeddedObject, ...] = ()
    links: tuple[str, ...] = ()
    dynamic: bool = False

    @property
    def bundle_bytes(self) -> int:
        """Total bytes of the page plus its embedded objects."""
        return self.size + sum(o.size for o in self.embedded)

    @property
    def bundle_paths(self) -> tuple[str, ...]:
        """Paths of the page's embedded objects."""
        return tuple(o.path for o in self.embedded)


@dataclass(frozen=True, slots=True)
class Category:
    """A user category and the pages characterising it.

    Attributes
    ----------
    name:
        Category label, e.g. ``"faculty"``.
    entry_pages:
        Pages where sessions of this category start (with the first one
        being the most common entry point).
    member_pages:
        The category's section of the site — the pages its users mostly
        navigate among.
    """

    name: str
    entry_pages: tuple[str, ...]
    member_pages: tuple[str, ...]


class Website:
    """An immutable website: page set plus user categories.

    Parameters
    ----------
    pages:
        All main pages of the site.
    categories:
        User categories (may be empty for structureless sites).
    name:
        Site label used in reports.
    """

    def __init__(
        self,
        pages: Iterable[Page],
        categories: Iterable[Category] = (),
        name: str = "site",
    ) -> None:
        self.name = name
        self._pages: dict[str, Page] = {}
        for p in pages:
            if p.path in self._pages:
                raise ValueError(f"duplicate page path: {p.path}")
            self._pages[p.path] = p
        self.categories: tuple[Category, ...] = tuple(categories)
        for cat in self.categories:
            for path in cat.entry_pages + cat.member_pages:
                if path not in self._pages:
                    raise ValueError(
                        f"category {cat.name!r} references unknown page {path!r}"
                    )
        # Validate links and bundle-path uniqueness across the site.
        seen_objects: dict[str, str] = {}
        for p in self._pages.values():
            for target in p.links:
                if target not in self._pages:
                    raise ValueError(f"page {p.path!r} links to unknown {target!r}")
            for obj in p.embedded:
                owner = seen_objects.setdefault(obj.path, p.path)
                if owner != p.path:
                    raise ValueError(
                        f"embedded object {obj.path!r} appears in two bundles"
                    )
                if obj.path in self._pages:
                    raise ValueError(
                        f"embedded object path collides with page: {obj.path!r}"
                    )

    # -- lookups ---------------------------------------------------------

    @property
    def pages(self) -> Mapping[str, Page]:
        return self._pages

    def page(self, path: str) -> Page:
        return self._pages[path]

    def __contains__(self, path: str) -> bool:
        return path in self._pages

    def page_paths(self) -> list[str]:
        return list(self._pages)

    def object_sizes(self) -> dict[str, int]:
        """Sizes of *all* objects (pages and embedded), keyed by path."""
        sizes: dict[str, int] = {}
        for p in self._pages.values():
            sizes[p.path] = p.size
            for o in p.embedded:
                sizes[o.path] = o.size
        return sizes

    @property
    def total_bytes(self) -> int:
        """Resident size of the whole site (pages + embedded objects)."""
        return sum(self.object_sizes().values())

    @property
    def num_objects(self) -> int:
        """Count of distinct objects (pages + embedded)."""
        return len(self.object_sizes())

    def bundles(self) -> dict[str, tuple[str, ...]]:
        """Ground-truth page → embedded-object-paths mapping."""
        return {p.path: p.bundle_paths for p in self._pages.values()}

    def category_of(self, path: str) -> str | None:
        """Name of the first category containing ``path``, if any."""
        for cat in self.categories:
            if path in cat.member_pages or path in cat.entry_pages:
                return cat.name
        return None


@dataclass(slots=True)
class SiteSpec:
    """Parameters for :func:`build_site`.

    The defaults produce a mid-size departmental site; the workload
    presets in :mod:`repro.logs.workloads` override them to match the
    paper's trace statistics.
    """

    categories: tuple[str, ...] = (
        "current-students", "prospective-students", "faculty", "staff", "other",
    )
    pages_per_category: int = 40
    #: Mean number of embedded objects per page (geometric-ish spread).
    mean_embedded: float = 3.0
    #: Mean main-page size in bytes (log-normal spread).
    mean_page_size: int = 8 * 1024
    #: Mean embedded-object size in bytes.
    mean_object_size: int = 12 * 1024
    #: Out-links per page within its category.
    links_per_page: int = 4
    #: Probability that a link crosses categories.
    cross_link_prob: float = 0.08
    #: Fraction of non-index pages serving dynamic (CGI) content.
    dynamic_fraction: float = 0.0
    seed: int = 7


def _lognormal_size(rng: np.random.Generator, mean: float, sigma: float = 0.6) -> int:
    """Draw a log-normal size with the requested arithmetic mean."""
    import numpy as np

    mu = np.log(mean) - 0.5 * sigma * sigma
    return max(64, int(rng.lognormal(mu, sigma)))


def build_site(spec: SiteSpec | None = None, name: str = "site") -> Website:
    """Generate a category-structured website from a :class:`SiteSpec`.

    Layout: each category gets an index page (its entry point) plus
    ``pages_per_category - 1`` content pages.  Content pages link mostly
    within their category — with a preference for low-numbered
    ("popular") pages so the link graph has hubs — and occasionally
    across categories.  Every page carries a geometric number of embedded
    objects with log-normal sizes.
    """
    # numpy is imported only where its random generator draws, so that
    # replaying a saved workload never loads it.
    import numpy as np

    spec = spec or SiteSpec()
    if spec.pages_per_category < 2:
        raise ValueError("pages_per_category must be >= 2")
    if not 0.0 <= spec.dynamic_fraction < 1.0:
        raise ValueError("dynamic_fraction must be in [0, 1)")
    rng = np.random.default_rng(spec.seed)
    pages: list[Page] = []
    categories: list[Category] = []

    paths_by_cat: dict[str, list[str]] = {}
    for cat in spec.categories:
        paths = [f"/{cat}/index.html"]
        for i in range(1, spec.pages_per_category):
            # Dynamic pages get CGI-style names so the log-side
            # heuristics can recognise them, as they would real logs.
            if rng.random() < spec.dynamic_fraction:
                paths.append(f"/{cat}/query{i:03d}.cgi")
            else:
                paths.append(f"/{cat}/page{i:03d}.html")
        paths_by_cat[cat] = paths

    all_cats = list(spec.categories)
    for cat in all_cats:
        paths = paths_by_cat[cat]
        n = len(paths)
        for idx, path in enumerate(paths):
            # Links: index links broadly; content pages link to a few
            # same-category pages, preferring low indices (hub structure).
            if idx == 0:
                fan = min(n - 1, max(spec.links_per_page * 3, 6))
                targets = list(paths[1:1 + fan])
            else:
                targets = []
                k = spec.links_per_page
                while len(targets) < k:
                    if rng.random() < spec.cross_link_prob and len(all_cats) > 1:
                        other = all_cats[int(rng.integers(len(all_cats)))]
                        if other == cat:
                            continue
                        cand = paths_by_cat[other][0]
                    else:
                        # Zipf-ish preference for low-numbered pages.
                        j = int(rng.zipf(1.6)) % n
                        cand = paths[j]
                    if cand != path and cand not in targets:
                        targets.append(cand)
            dynamic = path.endswith(".cgi")
            n_embedded = int(rng.geometric(1.0 / (spec.mean_embedded + 1e-9)))
            n_embedded = min(n_embedded, 12)
            if dynamic:
                n_embedded = 0  # generated pages carry no static bundle
            stem = path.rsplit(".", 1)[0]
            embedded = tuple(
                EmbeddedObject(
                    path=f"{stem}_img{j}.gif",
                    size=_lognormal_size(rng, spec.mean_object_size),
                )
                for j in range(n_embedded)
            )
            pages.append(Page(
                path=path,
                size=_lognormal_size(rng, spec.mean_page_size),
                embedded=embedded,
                links=tuple(targets),
                dynamic=dynamic,
            ))
        categories.append(Category(
            name=cat,
            entry_pages=(paths[0],),
            member_pages=tuple(paths),
        ))
    return Website(pages, categories, name=name)
