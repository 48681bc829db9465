"""Seeded workload generator: seed 0 is the recipe, other seeds move one key."""

import subprocess
import sys

import pytest
from conftest import BENCH
from kdvhl.config import dump_config, parse_config
from workloads import WORKLOADS, level_grid, make_config, set_key

RECIPES = BENCH.parent / "src" / "kdvhl" / "recipes"


def recipe(w):
    return (RECIPES / f"{w.recipe}.cfg").read_text()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_is_the_recipe_byte_for_byte(name):
    w = WORKLOADS[name]
    assert make_config(w, 0, recipe(w)).encode() == (RECIPES / f"{w.recipe}.cfg").read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seeds_move_only_the_placement_key(name):
    w = WORKLOADS[name]
    base = recipe(w).splitlines()
    values = set()
    for seed in range(1, 30):
        text = make_config(w, seed, recipe(w))
        changed = [new for old, new in zip(base, text.splitlines()) if old != new]
        # a draw may land on the recipe's own value, leaving the text unchanged
        assert len(text.splitlines()) == len(base) and len(changed) <= 1
        assert all(line.startswith(w.key + " ") for line in changed)
        value = dump_config(parse_config(text))[w.key]
        assert w.lo <= value <= w.hi
        assert level_grid(text) == level_grid(recipe(w))
        values.add(value)
    assert len(values) > 20


def test_generator_is_deterministic_across_processes():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from workloads import WORKLOADS, make_config; "
            "print([make_config(w, s, 'data.center = 1\\noracle.center = 1\\n') "
            "for w in WORKLOADS.values() for s in (1, 7, 123)])")
    outs = {
        subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                       text=True, check=True, env={"PYTHONHASHSEED": h}).stdout
        for h in ("1", "2")
    }
    assert len(outs) == 1


def test_set_key_keeps_comments_and_rejects_missing_keys():
    text = "a = 1\ndata.center = 3.0  # note\nb = 2\n"
    assert set_key(text, "data.center", "3.5") == "a = 1\ndata.center = 3.5  # note\nb = 2\n"
    with pytest.raises(ValueError):
        set_key(text, "oracle.center", "1")


def test_level_grid_counts_every_refinement_level():
    w = WORKLOADS["transport"]
    assert level_grid(recipe(w)) == [(801, 1000), (1601, 2000), (3201, 4000)]
    assert level_grid(recipe(WORKLOADS["drain"])) == [(6401, 1280)]
