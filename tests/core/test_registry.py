"""The algorithm registry."""

import pytest

from repro.core.greedy_sc import greedy_sc
from repro.core.instance import Instance, InstanceColumns
from repro.core.registry import available_algorithms, register, solve, \
    unregister
from repro.core.scan import scan, scan_plus
from repro.core.solution import Solution
from repro.errors import UnknownAlgorithmError


class TestRegistry:
    def test_expected_algorithms_present(self):
        names = available_algorithms()
        for expected in ("opt", "scan", "scan+", "greedy_sc",
                         "brute_force", "exact_setcover"):
            assert expected in names

    def test_solve_dispatches(self, figure2_instance):
        solution = solve("scan", figure2_instance)
        assert isinstance(solution, Solution)
        assert solution.algorithm == "scan"

    @pytest.mark.parametrize("name, direct, kwargs", [
        ("scan", scan, {"label_order": "shortest_first"}),
        ("scan+", scan_plus, {"label_order": "longest_first"}),
        ("greedy_sc", greedy_sc, {"strategy": "lazy_heap"}),
    ], ids=["scan", "scan+", "greedy_sc"])
    def test_served_by_name_matches_direct_call(
        self, figure2_instance, name, direct, kwargs
    ):
        # the name a digest request carries reaches the one serial
        # implementation, keyword options included
        served = solve(name, figure2_instance, **kwargs)
        assert served.algorithm == name
        assert served.uids == direct(figure2_instance, **kwargs).uids

    def test_unknown_name_raises_with_suggestions(self, figure2_instance):
        with pytest.raises(UnknownAlgorithmError) as excinfo:
            solve("scanner", figure2_instance)
        assert "scan" in str(excinfo.value)

    def test_kwargs_forwarded(self, figure2_instance):
        solution = solve("greedy_sc", figure2_instance,
                         strategy="lazy_heap")
        assert solution.size == 2

    def test_register_custom_and_reject_duplicates(self, figure2_instance):
        def fake(instance):
            return Solution.from_posts("fake", list(instance.posts))

        name = "all_posts_test_only"
        if name not in available_algorithms():
            register(name, fake)
        assert solve(name, figure2_instance).size == 4
        with pytest.raises(ValueError):
            register(name, fake)

    def test_unregister_custom_solver(self, figure2_instance):
        from repro.core.registry import unregister

        def fake(instance):
            return Solution.from_posts("fake", list(instance.posts))

        register("ephemeral_test_only", fake)
        assert "ephemeral_test_only" in available_algorithms()
        unregister("ephemeral_test_only")
        assert "ephemeral_test_only" not in available_algorithms()
        # and the name is reusable afterwards
        register("ephemeral_test_only", fake)
        unregister("ephemeral_test_only")

    def test_unregister_unknown_raises(self):
        from repro.core.registry import unregister

        with pytest.raises(UnknownAlgorithmError):
            unregister("never_registered")

    def test_unregister_builtin_refused(self):
        from repro.core.registry import unregister

        with pytest.raises(ValueError):
            unregister("scan")
        assert "scan" in available_algorithms()


class TestSolveOnColumns:
    """``solve`` takes an encoded instance's columns: Scan, Scan+ and
    GreedySC run on them as they are, every other solver on the instance
    they encode."""

    @staticmethod
    def columns(instance):
        return InstanceColumns.decode(instance.to_dict())

    @pytest.mark.parametrize("name", ["scan", "scan+", "greedy_sc"])
    def test_column_solvers_build_only_their_picks(
        self, figure2_instance, name
    ):
        columns = self.columns(figure2_instance)
        solution = solve(name, columns)
        assert columns._instance is None
        assert solution.posts == solve(name, figure2_instance).posts
        assert set(columns._built) == {
            columns.rows[uid] for uid in solution.uids
        }

    @pytest.mark.parametrize("name", ["opt", "brute_force",
                                      "exact_setcover"])
    def test_other_solvers_get_the_instance(self, figure2_instance, name):
        columns = self.columns(figure2_instance)
        solution = solve(name, columns)
        assert columns._instance is not None
        assert solution.uids == solve(name, figure2_instance).uids
        for post in solution.posts:
            assert post is columns.instance.post(post.uid)

    def test_a_custom_solver_gets_the_instance(self, figure2_instance):
        seen = []

        def fake(instance):
            seen.append(instance)
            return Solution.from_posts("fake", list(instance.posts))

        register("columns_test_only", fake)
        try:
            columns = self.columns(figure2_instance)
            assert solve("columns_test_only", columns).size == 4
        finally:
            unregister("columns_test_only")
        assert len(seen) == 1
        assert isinstance(seen[0], Instance)
        assert seen[0] is columns.instance
