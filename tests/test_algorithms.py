"""The algorithm registry that ``ipstable cluster`` and ``bench`` run."""

import argparse
import math

from ipstable import ALGORITHMS, cli, verify_stability

from conftest import random_space


def test_registry_matches_cli_and_pins_each_certified_alpha():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    alg_flag = next(a for a in commands["cluster"]._actions if a.dest == "alg")
    assert list(alg_flag.choices) == list(ALGORITHMS)

    n = 40
    expected = {
        "natural": 2 * math.log2(n),
        "mergesplit": 4 * math.log2(n),
        "fast": 16 * math.log2(n),
        "dp": None,
        "median": (2 * 10.25) ** 2,
        "max": 1.0,
    }
    assert set(expected) == set(ALGORITHMS)
    sp = random_space(n, seed=7)
    for name, alg in ALGORITHMS.items():
        out, trace = alg.run(sp, 3, 1, 10**6)
        assert trace.alpha == expected[name], name
        assert trace.status == "converged", name
        if trace.alpha is not None:
            assert verify_stability(sp, out, alg.objective, trace.alpha).passed, name
