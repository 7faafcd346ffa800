"""Per-solver instrumentation hooks: work counters, spans, clocks.

These tests pin the two contracts of the facade: (a) enabled runs count
the real work units and time through the injectable clock; (b) disabled
runs record nothing and return bit-identical results.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.greedy_sc import _greedy_posts, build_setcover_family, \
    greedy_sc
from repro.core.fastpath import build_family_encoded
from repro.core.instance import Instance
from repro.core.post import Post
from repro.core.scan import order_labels, scan, scan_label, scan_plus
from repro.core.solution import timed_solution
from repro.core.streaming import stream_solve
from repro.experiments.common import make_day_instance
from repro.index.inverted_index import Document
from repro.index.query import TopicQuery
from repro.observability import facade
from repro.pipeline import DiversificationPipeline
from repro.resilience.supervisor import StreamSupervisor, run_supervised
from repro.setcover.greedy import greedy_set_cover


@pytest.fixture
def instance() -> Instance:
    return Instance.from_specs(
        [(0.0, "a"), (1.0, "ab"), (2.5, "b"), (4.0, "ab"),
         (5.0, "a"), (9.0, "b")],
        lam=1.5,
    )


class TestScanCounters:
    def test_window_advances_are_summed_posting_lengths(self, instance):
        # each label's loop advances its index past every position
        # exactly once, with or without Scan+'s covered predicate
        advances = sum(len(instance.posting(a)) for a in instance.labels)
        with facade.session() as bundle:
            scan(instance)
            scan_plus(instance)
        counters = bundle.registry.counters()
        assert advances == 8
        assert counters["scan.window_advances"] == advances
        assert counters["scan_plus.window_advances"] == advances

    def test_scan_records_window_advances(self, instance):
        with facade.session() as bundle:
            observed = scan(instance)
        counters = bundle.registry.counters()
        assert counters["scan.window_advances"] > 0
        assert counters["scan.picks"] == len(observed.posts) \
            or counters["scan.picks"] >= observed.size
        assert counters["scan.labels_processed"] == len(instance.labels)

    def test_scan_results_identical_enabled_vs_disabled(self, instance):
        plain = scan(instance)
        with facade.session():
            observed = scan(instance)
        assert plain.uids == observed.uids

    def test_scan_plus_counters_and_parity(self, instance):
        plain = scan_plus(instance)
        with facade.session() as bundle:
            observed = scan_plus(instance)
        assert plain.uids == observed.uids
        counters = bundle.registry.counters()
        assert counters["scan_plus.window_advances"] > 0
        assert counters["scan_plus.strike_positions"] > 0

    def test_disabled_scan_records_nothing(self, instance):
        bundle = facade.disable()
        assert bundle is None
        scan(instance)
        assert facade.active() is None


def counted_scan_label(plist, lam, is_covered=None):
    """:func:`scan_label` with every index advance counted — the
    instrumented copy of the loop that ``window_advances`` replaced with
    the posting-list length."""
    picks, advances = [], 0
    posts = plist.posts
    n = len(posts)
    i = 0
    while i < n:
        if is_covered is not None and is_covered(i):
            i += 1
            advances += 1
            continue
        left = posts[i]
        j = i
        while j + 1 < n and posts[j + 1].value - left.value <= lam:
            j += 1
            advances += 1
        picks.append(posts[j])
        i = j + 1
        advances += 1
        while i < n and posts[i].value - posts[j].value <= lam:
            i += 1
            advances += 1
    return picks, advances


class TestWindowAdvanceCount:
    """``window_advances`` is published as a length, not counted: the
    loop-level count it stands for must equal the list length."""

    @pytest.mark.parametrize("with_predicate", [False, True],
                             ids=["plain", "covered"])
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=60,
        ),
        lam=st.sampled_from([0.0, 0.5, 1.0, 4.0, 100.0]),
        mask=st.lists(st.booleans(), min_size=60, max_size=60),
    )
    def test_counted_loop_advances_once_per_position(
        self, with_predicate, values, lam, mask
    ):
        plist = Instance.from_specs(
            [(v, "a") for v in values], lam
        ).posting("a")
        covered = (lambda idx: mask[idx]) if with_predicate else None
        picks, advances = counted_scan_label(plist, lam, covered)
        assert picks == scan_label(plist, lam, is_covered=covered)
        assert advances == len(plist)

    @pytest.mark.parametrize("order",
                             ["sorted", "longest_first", "shortest_first"])
    @pytest.mark.parametrize("solver, prefix",
                             [(scan, "scan"), (scan_plus, "scan_plus")])
    def test_counters_per_label_order(self, instance, solver, prefix,
                                      order):
        with facade.session() as bundle:
            solution = solver(instance, order)
        counters = bundle.registry.counters()
        assert counters[f"{prefix}.window_advances"] == 8
        assert counters[f"{prefix}.labels_processed"] == 2
        # picks count per label: a post picked for two labels counts twice
        assert counters[f"{prefix}.picks"] >= solution.size
        if solver is scan:
            per_label = sum(
                len(scan_label(instance.posting(a), instance.lam))
                for a in order_labels(instance, order)
            )
            assert counters["scan.picks"] == per_label

    def test_declared_empty_label_adds_no_advances(self):
        inst = Instance(
            [Post(uid=0, value=0.0, labels=frozenset("a")),
             Post(uid=1, value=3.0, labels=frozenset("ab"))],
            lam=1.0, labels="abz",
        )
        with facade.session() as bundle:
            scan(inst)
            scan_plus(inst)
        counters = bundle.registry.counters()
        assert counters["scan.window_advances"] == 3
        assert counters["scan_plus.window_advances"] == 3
        assert counters["scan.labels_processed"] == 3
        assert counters["scan_plus.labels_processed"] == 3


class TestFamilyBuilderCounters:
    def test_python_builder_counts_enumerated_pairs(self, instance):
        with facade.session() as bundle:
            family, universe = build_setcover_family(instance)
        counters = bundle.registry.counters()
        # every (coverer, covered) enumeration including self-pairs
        assert counters["greedy_sc.family_pairs_enumerated"] >= len(
            universe
        )
        assert counters["greedy_sc.universe_size"] == len(universe)

    def test_numpy_builder_counts_enumerated_and_kept(self, instance):
        with facade.session() as bundle:
            family, universe, _ = build_family_encoded(instance)
        counters = bundle.registry.counters()
        assert counters["fastpath.family_pairs_kept"] >= len(universe)
        # ulp-widened windows enumerate at least what survives the filter
        assert (
            counters["fastpath.family_pairs_enumerated"]
            >= counters["fastpath.family_pairs_kept"]
        )
        assert counters["fastpath.universe_size"] == len(universe)

    def test_greedy_sc_engines_unaffected_by_observation(self, instance):
        plain = greedy_sc(instance, strategy="rescan", engine="numpy")
        with facade.session():
            observed = greedy_sc(instance, strategy="rescan", engine="numpy")
        assert plain.uids == observed.uids


class TestSetCoverCounters:
    SETS = [{1, 2, 3}, {3, 4}, {4, 5, 6}, {1, 6}]

    def test_rescan_counts_rounds_and_updates(self):
        with facade.session() as bundle:
            chosen = greedy_set_cover(self.SETS, strategy="rescan")
        counters = bundle.registry.counters()
        assert counters["setcover.rescan.rounds"] == len(chosen)
        assert counters["setcover.rescan.sets_scanned"] == len(chosen) \
            * len(self.SETS)
        assert counters["setcover.rescan.residual_updates"] > 0

    def test_lazy_heap_counts_pops(self):
        with facade.session() as bundle:
            chosen = greedy_set_cover(self.SETS, strategy="lazy_heap")
        counters = bundle.registry.counters()
        assert counters["setcover.lazy_heap.picks"] == len(chosen)
        assert counters["setcover.lazy_heap.pops"] >= len(chosen)

    def test_greedy_sc_heap_counts_what_the_family_heap_counts(self):
        # the windowed heap makes the family heap's picks in its order,
        # with at most its pops and revalidations, since it leaves out
        # posts that cannot win; one window per (post, label)
        inst = make_day_instance(
            seed=20140328, num_labels=5, lam=300.0, scale=0.002,
        )
        family, universe = build_setcover_family(inst)
        with facade.session() as bundle:
            chosen = greedy_set_cover(
                family, universe=universe, strategy="lazy_heap")
            picks = _greedy_posts(inst, "lazy_heap", "auto")
        counters = bundle.registry.counters()
        assert picks == [inst.posts[k] for k in chosen]
        assert counters["greedy_sc.heap.picks"] == len(chosen)
        assert counters["greedy_sc.heap.pops"] <= \
            counters["setcover.lazy_heap.pops"]
        assert 0 < counters["greedy_sc.heap.revalidations"] <= \
            counters["setcover.lazy_heap.revalidations"]
        assert counters["greedy_sc.windows"] == len(universe)


class TestTimedSolutionClock:
    def test_elapsed_from_observability_clock(self, instance, fake_clock):
        with facade.session(clock=fake_clock(step=0.25)):
            solution = scan(instance)
        assert solution.elapsed == pytest.approx(0.25)

    def test_explicit_clock_argument_wins(self, instance, fake_clock):
        solution = timed_solution(
            "probe", lambda inst: list(inst.posts), instance,
            clock=fake_clock(10.0, 12.0),
        )
        assert solution.elapsed == 2.0

    def test_solver_span_and_histogram_recorded(self, instance):
        with facade.session() as bundle:
            scan(instance)
        names = [span.name for span in bundle.tracer.finished]
        assert "solver.scan" in names
        assert bundle.registry.counters()["solver.scan.calls"] == 1
        hist = bundle.registry.histogram("solver.scan.elapsed")
        assert hist.count == 1


class TestStreamingCounters:
    def test_stream_run_counters(self, instance):
        with facade.session() as bundle:
            result = stream_solve("stream_scan", instance, tau=1.0)
        counters = bundle.registry.counters()
        assert counters["stream.arrivals"] == len(instance.posts)
        assert counters["stream.emissions"] == result.size
        names = [span.name for span in bundle.tracer.finished]
        assert "stream.run" in names
        assert "stream.solve" in names

    def test_windowed_greedy_work_counters(self, instance):
        with facade.session() as bundle:
            stream_solve("stream_greedy_sc", instance, tau=2.0)
        counters = bundle.registry.counters()
        assert counters["stream_greedy.windows"] > 0
        assert counters["stream_greedy.gain_evaluations"] > 0

    def test_stream_results_identical_enabled_vs_disabled(self, instance):
        plain = stream_solve("stream_greedy_sc", instance, tau=2.0)
        with facade.session():
            observed = stream_solve("stream_greedy_sc", instance, tau=2.0)
        assert plain.emissions == observed.emissions


class TestSupervisorCounters:
    def test_admissions_and_drops_mirrored(self, instance):
        supervisor = StreamSupervisor(
            instance.labels, instance.lam, tau=1.0
        )
        bad = instance.posts[0]
        with facade.session() as bundle:
            run_supervised(supervisor, list(instance.posts) + [bad])
        counters = bundle.registry.counters()
        assert counters["supervisor.arrivals"] == len(instance.posts) + 1
        assert counters["supervisor.admitted"] == len(instance.posts)
        # the duplicate uid is dropped and quarantined
        assert counters["supervisor.quarantined"] == 1
        assert counters["supervisor.emissions"] == \
            supervisor.health.emissions
        assert bundle.registry.gauge(
            "supervisor.journal_depth"
        ).value == len(instance.posts)


class TestPipelineCounters:
    QUERIES = [
        TopicQuery("nba", frozenset({"nba", "game"})),
        TopicQuery("storm", frozenset({"storm", "rain"})),
    ]

    def _documents(self):
        return [
            Document(0, 0.0, "nba game tonight"),
            Document(1, 10.0, "storm rain warning"),
            Document(2, 20.0, "nothing relevant here"),
            Document(3, 30.0, "nba game tonight"),  # simhash duplicate
        ]

    def test_digest_counters_and_span(self):
        pipeline = DiversificationPipeline(self.QUERIES, lam=5.0)
        with facade.session() as bundle:
            result = pipeline.digest(self._documents())
        counters = bundle.registry.counters()
        assert counters["pipeline.digests"] == 1
        assert counters["pipeline.documents"] == 4
        assert counters["pipeline.duplicates_dropped"] == \
            result.duplicates_dropped == 1
        assert counters["pipeline.unmatched_dropped"] == \
            result.unmatched_dropped == 1
        digest_spans = [
            span for span in bundle.tracer.finished
            if span.name == "pipeline.digest"
        ]
        assert digest_spans[0].attributes["digest_size"] == result.size

    def test_feed_counters(self):
        pipeline = DiversificationPipeline(
            self.QUERIES, lam=5.0, tau=0.0,
            stream_algorithm="instant",
        )
        with facade.session() as bundle:
            emitted = 0
            for document in self._documents():
                emitted += len(pipeline.feed(document))
            emitted += len(pipeline.finish())
        counters = bundle.registry.counters()
        assert counters["pipeline.fed"] == 4
        assert counters["pipeline.stream_duplicates_dropped"] == 1
        assert counters["pipeline.stream_unmatched_dropped"] == 1
        assert counters["pipeline.stream_emissions"] == emitted

    def test_digest_unchanged_when_disabled(self):
        pipeline = DiversificationPipeline(self.QUERIES, lam=5.0)
        plain = pipeline.digest(self._documents())
        with facade.session():
            observed = pipeline.digest(self._documents())
        assert plain.solution.uids == observed.solution.uids
