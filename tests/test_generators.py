"""Instance generators: determinism, ranges, and validator compliance."""

import numpy as np
import pytest

from nswforge.generators import FAMILIES, GenSpec, generate
from nswforge.model import validate_valuation


class TestGenerate:
    def test_same_seed_same_instance(self):
        spec = GenSpec("xos", 3, 6, seed=123)
        a, b = generate(spec), generate(spec)
        assert all(x == y for x, y in zip(a.valuations, b.valuations))
        assert generate(GenSpec("xos", 3, 6, seed=124)).valuations[0] != a.valuations[0]

    def test_integer_weights_in_range(self):
        inst = generate(GenSpec("additive", 4, 8, weights="integers", seed=5))
        for v in inst.valuations:
            assert v.weights.min() >= 1 and v.weights.max() <= 10
            assert (v.weights == np.round(v.weights)).all()

    @pytest.mark.parametrize("family", ["additive", "budgeted_additive"])
    def test_near_uniform_weights_in_range(self, family):
        inst = generate(GenSpec(family, 3, 12, weights="near_uniform", seed=9))
        for v in inst.valuations:
            assert v.weights.min() >= 0.9 and v.weights.max() < 1.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_passes_validation(self, family):
        for seed in range(5):
            inst = generate(GenSpec(family, 2, 5, seed=seed))
            for v in inst.valuations:
                assert validate_valuation(v, 5).passed(), (family, seed)

    def test_budgeted_mix_tables_are_subadditive(self):
        for seed in range(5):
            inst = generate(GenSpec("table", 2, 5, seed=seed,
                                    table_style="budgeted_mix"))
            for v in inst.valuations:
                report = validate_valuation(v, 5)
                assert report.subadditive and report.monotone

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            GenSpec("coverage", 2, 4).validate()
        with pytest.raises(ValueError):
            GenSpec("additive", 5, 4).validate()
        with pytest.raises(ValueError):
            GenSpec("table", 2, 14).validate()
        with pytest.raises(ValueError):
            GenSpec("additive", 2, 4, weights="lognormal").validate()

    def test_singleton_mean_matches_distribution(self):
        # uniform[0,1] weights: mean singleton value near 1/2
        values = []
        for seed in range(40):
            inst = generate(GenSpec("additive", 3, 8, seed=seed))
            for v in inst.valuations:
                values.extend(v.singleton_values())
        mean = float(np.mean(values))
        se = float(np.std(values) / np.sqrt(len(values)))
        assert abs(mean - 0.5) <= 3 * se
