"""Bundle mining: page → embedded-object sets from web logs.

"As in [7], the web page and its associated embedded objects can be
identified from the log files.  Image files, applets, audio/video
streams, etc. constitute a bundle for the main web page" (§3.2).  The
miner attributes each embedded-object request in a session to the most
recent main page requested shortly before it, and keeps objects whose
attachment confidence clears a support threshold, filtering out
incidental co-occurrences.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from ..logs.records import LogRecord
from ..logs.sessions import Session, looks_embedded, sessionize

__all__ = ["BundleTable", "BundleMiner", "BundleAccumulator"]


class BundleTable:
    """Mined page → embedded-object mapping with reverse lookup."""

    def __init__(self, bundles: Mapping[str, Sequence[str]]) -> None:
        self._bundles: dict[str, tuple[str, ...]] = {
            page: tuple(objs) for page, objs in bundles.items()
        }
        self._owner: dict[str, str] = {}
        for page, objs in self._bundles.items():
            for obj in objs:
                # An object attributed to several pages keeps its
                # first-seen owner; miners resolve ties before this point.
                self._owner.setdefault(obj, page)

    def __len__(self) -> int:
        return len(self._bundles)

    def __contains__(self, page: str) -> bool:
        return page in self._bundles

    def objects_of(self, page: str) -> tuple[str, ...]:
        """Embedded objects of ``page`` (empty when unknown)."""
        return self._bundles.get(page, ())

    def owner_of(self, obj: str) -> str | None:
        """The main page whose bundle contains ``obj``, if mined."""
        return self._owner.get(obj)

    def is_embedded_object(self, path: str) -> bool:
        return path in self._owner

    def as_dict(self) -> dict[str, tuple[str, ...]]:
        return dict(self._bundles)


class BundleMiner:
    """Learns a :class:`BundleTable` from access logs.

    Parameters
    ----------
    attach_window:
        Maximum seconds between a main-page request and an embedded
        request for the object to be attributed to that page.
    min_confidence:
        Minimum fraction of the page's views in which the object was
        fetched, for the object to join the bundle.
    min_page_views:
        Pages seen fewer times than this are not assigned bundles
        (too little evidence).
    """

    def __init__(
        self,
        *,
        attach_window: float = 30.0,
        min_confidence: float = 0.3,
        min_page_views: int = 2,
    ) -> None:
        if attach_window <= 0:
            raise ValueError("attach_window must be positive")
        if not 0.0 < min_confidence <= 1.0:
            raise ValueError("min_confidence must be in (0, 1]")
        if min_page_views < 1:
            raise ValueError("min_page_views must be >= 1")
        self.attach_window = attach_window
        self.min_confidence = min_confidence
        self.min_page_views = min_page_views

    def accumulator(self) -> "BundleAccumulator":
        """A fresh incremental accumulator with this miner's thresholds."""
        return BundleAccumulator(self)

    def mine_sessions(self, sessions: Iterable[Session]) -> BundleTable:
        """Mine bundles from reconstructed sessions."""
        acc = self.accumulator()
        for sess in sessions:
            acc.add_session(sess)
        return acc.finish()

    def mine(self, records: Iterable[LogRecord]) -> BundleTable:
        """Mine bundles straight from raw log records (sessionizing first)."""
        return self.mine_sessions(sessionize(records))


class BundleAccumulator:
    """Incremental counterpart of :meth:`BundleMiner.mine_sessions`.

    Holds only model-sized state (page-view and attachment counters, not
    the sessions themselves), so the streaming pipeline can fold retired
    sessions in one at a time; :meth:`finish` applies the same
    owner-resolution and confidence thresholds as the batch miner, so
    ``accumulate-then-finish`` over the same sessions yields the same
    :class:`BundleTable` regardless of feed order.
    """

    def __init__(self, miner: BundleMiner) -> None:
        self.miner = miner
        self._page_views: Counter[str] = Counter()
        self._attach: Counter[tuple[str, str]] = Counter()

    def add_session(self, sess: Session) -> list[str]:
        """Fold one session's page/embedded-object structure in.

        Returns the session's main-page paths, the same list as
        :meth:`Session.page_paths`, so callers need not classify every
        path a second time.
        """
        attach_window = self.miner.attach_window
        current_page: str | None = None
        page_time = 0.0
        seen_for_page: set[str] = set()
        pages: list[str] = []
        for rec in sess.records:
            if looks_embedded(rec.path):
                if (
                    current_page is not None
                    and rec.timestamp - page_time <= attach_window
                    and rec.path not in seen_for_page
                ):
                    self._attach[(current_page, rec.path)] += 1
                    seen_for_page.add(rec.path)
            else:
                current_page = rec.path
                page_time = rec.timestamp
                seen_for_page = set()
                self._page_views[rec.path] += 1
                pages.append(rec.path)
        return pages

    def finish(self) -> BundleTable:
        """Resolve owners and thresholds into the final table."""
        # Resolve each object to the page with the strongest attachment,
        # then keep attachments clearing the confidence threshold.
        best_owner: dict[str, tuple[int, str]] = {}
        for (page, obj), n in self._attach.items():
            key = (n, page)
            if obj not in best_owner or key > best_owner[obj]:
                best_owner[obj] = (n, page)

        bundles: dict[str, list[str]] = {}
        for obj, (n, page) in best_owner.items():
            views = self._page_views[page]
            if views < self.miner.min_page_views:
                continue
            if n / views >= self.miner.min_confidence:
                bundles.setdefault(page, []).append(obj)
        return BundleTable(
            {p: tuple(sorted(objs)) for p, objs in bundles.items()}
        )
