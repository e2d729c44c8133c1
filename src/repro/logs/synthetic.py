"""Synthetic trace generation over a :class:`~repro.logs.site.Website`.

The paper evaluates on logs of the TAMU CS departmental site, the
WorldCup'98 site, and one synthetic trace.  Those logs are not
redistributable, so this module generates statistically matched traffic
(see DESIGN.md §3): sessions arrive as a Poisson process; each session
belongs to a user category and navigates the site's link graph with a
category-specific pattern; page requests drag in their embedded objects
moments later, exactly as browsers do.  A Zipf mode reproduces the
extreme popularity skew of the WorldCup trace.

Generated traffic is emitted as Common-Log-Format records so the entire
pipeline (CLF parsing → sessionization → mining → simulation) runs the
same code paths it would on real logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .records import LogRecord, Trace
from .sessions import trace_from_records
from .site import Category, Website

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

__all__ = [
    "TrafficSpec",
    "TraceGenerator",
]


@dataclass(slots=True)
class TrafficSpec:
    """Parameters of a synthetic traffic run.

    Attributes
    ----------
    num_requests:
        Approximate total number of requests to emit (pages + embedded).
    session_rate:
        Session arrivals per second (Poisson).  Higher rates mean higher
        offered load for the same request count.
    duration_s:
        When set, sessions keep arriving for this many seconds (and
        ``num_requests`` becomes a safety cap) — the mode experiments
        use to apply a *sustained* offered load.  When None, generation
        stops as soon as ``num_requests`` is reached.
    mean_session_pages:
        Mean number of *main pages* per session (geometric).
    max_session_pages:
        Hard cap on pages per session (the geometric tail otherwise
        produces rare marathon sessions that dominate trace duration).
    think_time_mean:
        Mean gap between consecutive page views in a session (seconds,
        exponential).
    embedded_gap:
        Scale of the small delay between a page and each of its embedded
        objects (seconds).
    embed_request_prob:
        Probability that the browser actually fetches a given embedded
        object (client caches suppress some fetches).
    category_mix:
        Relative weights of user categories (defaults to uniform over the
        site's categories).
    link_follow_prob:
        Probability that the next page follows a hyperlink from the
        current page (otherwise the user "teleports").
    same_category_bias:
        How much a user prefers links into their own category section.
    zipf_alpha:
        When set, teleports sample pages from a global Zipf(alpha)
        popularity ranking instead of the user's category section —
        WorldCup-style skew.
    start_time:
        Timestamp of the first session arrival (epoch seconds).
    seed:
        PRNG seed; every run is fully deterministic given the spec.
    """

    num_requests: int = 30_000
    session_rate: float = 20.0
    duration_s: float | None = None
    mean_session_pages: float = 6.0
    max_session_pages: int = 50
    think_time_mean: float = 1.0
    embedded_gap: float = 0.05
    embed_request_prob: float = 0.85
    category_mix: Mapping[str, float] | None = None
    link_follow_prob: float = 0.85
    same_category_bias: float = 4.0
    zipf_alpha: float | None = None
    start_time: float = 1_000_000_000.0
    seed: int = 1

    def validate(self) -> None:
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if self.session_rate <= 0:
            raise ValueError("session_rate must be positive")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.max_session_pages < 1:
            raise ValueError("max_session_pages must be >= 1")
        if not 0.0 <= self.embed_request_prob <= 1.0:
            raise ValueError("embed_request_prob must be in [0, 1]")
        if not 0.0 <= self.link_follow_prob <= 1.0:
            raise ValueError("link_follow_prob must be in [0, 1]")
        if self.zipf_alpha is not None and self.zipf_alpha <= 1.0:
            raise ValueError("zipf_alpha must be > 1")


class TraceGenerator:
    """Generates CLF records / simulator traces for a website.

    One generator instance is deterministic: :meth:`generate_records`
    always returns the same traffic for the same (site, spec) pair.
    """

    def __init__(self, site: Website, spec: TrafficSpec | None = None) -> None:
        # numpy is imported only by the code that draws from its random
        # generator, so that replaying a saved workload never loads it.
        import numpy as np

        self.site = site
        self.spec = spec or TrafficSpec()
        self.spec.validate()
        self._sizes = site.object_sizes()
        self._all_pages = site.page_paths()
        if not self._all_pages:
            raise ValueError("site has no pages")
        cats = site.categories or (
            Category("all", (self._all_pages[0],), tuple(self._all_pages)),
        )
        self._categories: tuple[Category, ...] = tuple(cats)
        mix = self.spec.category_mix
        if mix is None:
            weights = np.ones(len(self._categories))
        else:
            weights = np.array(
                [float(mix.get(c.name, 0.0)) for c in self._categories]
            )
            if weights.sum() <= 0:
                raise ValueError("category_mix assigns no weight to any category")
        self._cat_probs = weights / weights.sum()
        # Global Zipf ranking (used in zipf mode): page order is the rank.
        n = len(self._all_pages)
        if self.spec.zipf_alpha is not None:
            ranks = np.arange(1, n + 1, dtype=float)
            p = ranks ** (-self.spec.zipf_alpha)
            self._zipf_probs = p / p.sum()
        else:
            self._zipf_probs = None

    # -- internal sampling helpers ---------------------------------------

    def _pick_next_page(
        self, rng: np.random.Generator, current: str, cat: Category
    ) -> str:
        import numpy as np

        page = self.site.page(current)
        if page.links and rng.random() < self.spec.link_follow_prob:
            links = page.links
            if len(links) == 1:
                return links[0]
            member = set(cat.member_pages)
            w = np.array([
                self.spec.same_category_bias if t in member else 1.0
                for t in links
            ])
            return links[int(rng.choice(len(links), p=w / w.sum()))]
        # Teleport.
        if self._zipf_probs is not None:
            return self._all_pages[int(rng.choice(len(self._all_pages),
                                                  p=self._zipf_probs))]
        member_pages = cat.member_pages
        # Prefer low-indexed (hub) pages within the section.
        idx = min(int(rng.zipf(1.5)) - 1, len(member_pages) - 1)
        return member_pages[idx]

    def _start_page(self, rng: np.random.Generator, cat: Category) -> str:
        if self._zipf_probs is not None and rng.random() < 0.5:
            return self._all_pages[int(rng.choice(len(self._all_pages),
                                                  p=self._zipf_probs))]
        entries = cat.entry_pages
        return entries[int(rng.integers(len(entries)))]

    # -- generation -------------------------------------------------------

    def generate_records(self) -> list[LogRecord]:
        """Emit the run as time-sorted CLF log records."""
        import numpy as np

        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        records: list[LogRecord] = []
        clock = spec.start_time
        end_time = (
            spec.start_time + spec.duration_s
            if spec.duration_s is not None else None
        )
        session_idx = 0
        while len(records) < spec.num_requests:
            clock += rng.exponential(1.0 / spec.session_rate)
            if end_time is not None and clock >= end_time:
                break
            cat = self._categories[int(rng.choice(len(self._categories),
                                                  p=self._cat_probs))]
            host = f"s{session_idx:07d}.{cat.name[:4]}"
            session_idx += 1
            n_pages = min(
                spec.max_session_pages,
                max(1, int(rng.geometric(1.0 / spec.mean_session_pages))),
            )
            t = clock
            current = self._start_page(rng, cat)
            for step in range(n_pages):
                if step > 0:
                    t += rng.exponential(spec.think_time_mean)
                    current = self._pick_next_page(rng, current, cat)
                records.append(self._record(host, t, current))
                page = self.site.page(current)
                t_obj = t
                for obj in page.embedded:
                    if rng.random() >= spec.embed_request_prob:
                        continue
                    t_obj += rng.exponential(spec.embedded_gap)
                    records.append(self._record(host, t_obj, obj.path))
                t = max(t, t_obj)
                if len(records) >= spec.num_requests:
                    break
        records.sort(key=lambda r: (r.timestamp, r.host, r.path))
        return records

    def _record(self, host: str, t: float, path: str) -> LogRecord:
        return LogRecord(
            host=host,
            timestamp=t,
            method="GET",
            path=path,
            protocol="HTTP/1.1",
            status=200,
            size=self._sizes[path],
        )

    def generate(self, name: str | None = None) -> Trace:
        """Emit the run as a simulator :class:`Trace`.

        The records pass through the real sessionizer, so embedded-object
        tagging and connection grouping use the production code path.
        """
        records = self.generate_records()
        return trace_from_records(
            records, name=name or f"{self.site.name}-trace"
        )
