"""The warning filters of this repository's pytest settings leave every failure visible."""


def test_a_failing_hypothesis_example_leaves_later_tests_running(request, pytester):
    # a fresh interpreter, so the warning hypothesis raises while it reports is not cached away
    filters = "".join(f"\n    {line}" for line in request.config.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails_on_a_generated_example(x):
            assert x < 5

        def test_runs_after_the_failure():
            pass
        """
    )
    result = pytester.runpytest_subprocess()
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
