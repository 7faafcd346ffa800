"""A cache hit carried into a later epoch answers as a fresh service
over the same corpus would.

A write that touches none of an entry's labels leaves the entry in the
cache.  Its cover, instance and ``matched`` still hold, but the drop
counters count what the write added, and a window narrower than the
store's keeps sliding with no write on the entry's labels.
"""

from __future__ import annotations

import pytest

from repro.cluster.protocol import canonical_fingerprint
from repro.incremental import MAX_VIEWS
from repro.index.inverted_index import Document
from repro.service import DigestRequest

from .conftest import make_docs, make_service, run

GOLF = DigestRequest(lam=30.0, labels=("golf",))


@pytest.mark.parametrize("late", [
    Document(999, 9990.0, "nothing relevant here"),
    Document(999, 9990.0, "nba dunk late arrival"),
], ids=["unmatched", "nba"])
@pytest.mark.parametrize("views", [True, False], ids=["views", "no-views"])
def test_a_carried_hit_reports_the_counters_of_its_epoch(views, late):
    service = make_service(views=views)
    service.ingest(make_docs())
    first = run(service.digest(GOLF))
    service.ingest([late])
    hit = run(service.digest(GOLF))
    fresh = make_service(views=views)
    fresh.ingest(make_docs() + [late])
    reference = run(fresh.digest(GOLF))
    assert hit.cached
    assert hit.result.solution is first.result.solution
    assert hit.result.matched == first.result.matched == 8
    assert hit.result.unmatched_dropped == \
        reference.result.unmatched_dropped == 17
    assert canonical_fingerprint(hit.result) == \
        canonical_fingerprint(reference.result)


def windowed_service():
    service = make_service(view_window=1000.0)
    service.set_view_window(("golf",), 60.0)
    return service


def test_a_carried_hit_never_outlives_its_window():
    late = Document(999, 245.0, "nothing relevant here")
    service = windowed_service()
    service.ingest(make_docs(24))  # values 0..230; golf's edge at 170
    first = run(service.digest(GOLF))
    assert [post.value for post in first.result.instance.posts] == \
        [180.0, 210.0]
    # evict golf's view: no view is left to report its window sliding
    for k in range(MAX_VIEWS):
        run(service.digest(DigestRequest(lam=40.0 + k, labels=("nba",))))
    assert all(view.labels != {"golf"} for view in service._views.views())
    service.ingest([late])  # golf's edge moves to 185
    again = run(service.digest(GOLF))
    fresh = windowed_service()
    fresh.ingest(make_docs(24) + [late])
    reference = run(fresh.digest(GOLF))
    assert not again.cached
    assert [post.value for post in again.result.instance.posts] == [210.0]
    assert canonical_fingerprint(again.result) == \
        canonical_fingerprint(reference.result)
