"""Covariate schema, survival-model prediction and model-file tests."""
import dataclasses
import json
import math

import numpy as np
import pytest

from mrlife import (CensoredSample, Covariate, CovariateSchema, DataError,
                    MissingColumnError, ParameterError, SurvivalModel,
                    UnknownLevelError, build_design_row, censored_loglik, fit,
                    load_model, make_distribution, mean_residual_life,
                    percentile_residual_life, predict_residual_life,
                    save_model)
from mrlife.regression import (TrainingRows, distinct_design_rows,
                               model_from_dict, model_to_dict, rows_of)

GROUP = Covariate(name="group", kind="categorical",
                  levels=("Good", "Medium", "Poor"))
AGE = Covariate(name="age", kind="numeric")
SCHEMA = CovariateSchema((AGE, GROUP))


def weibull_model(schema=SCHEMA, coefficients=(math.log(4.0), 0.01, 0.2, -0.3),
                  training_rows=None):
    return SurvivalModel(
        dist="weibull",
        baseline={"shape": 1.4, "scale": math.exp(coefficients[0])},
        coefficients=coefficients,
        schema=schema,
        training_rows=training_rows,
    )


class TestDesignRows:
    def test_treatment_contrasts(self):
        assert build_design_row(SCHEMA, {"age": 43, "group": "Medium"}) == \
            [43.0, 1.0, 0.0]

    def test_reference_level_all_zero(self):
        assert build_design_row(SCHEMA, {"age": 35, "group": "Good"}) == \
            [35.0, 0.0, 0.0]

    def test_unseen_level(self):
        with pytest.raises(UnknownLevelError) as err:
            build_design_row(SCHEMA, {"age": 39, "group": "Terrible"})
        assert "Incorrect Level Entered" in str(err.value)
        assert err.value.code == "unknown_level"

    def test_missing_column_named(self):
        with pytest.raises(MissingColumnError) as err:
            build_design_row(SCHEMA, {"group": "Good"})
        assert "age" in str(err.value)
        assert err.value.column == "age"

    def test_column_names(self):
        assert SCHEMA.column_names == ["age", "groupMedium", "groupPoor"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CovariateSchema((AGE, Covariate(name="age", kind="numeric")))

    def test_categorical_needs_levels(self):
        with pytest.raises(ValueError, match="levels"):
            Covariate(name="group", kind="categorical")

    def test_distinct_design_rows_checks_every_row(self):
        rows = rows_of({"age": [43, 35, 43], "group": ["Medium", "Good", "Medium"]},
                       ["age", "group"], 3)
        assert distinct_design_rows(SCHEMA, rows) == \
            ([[43.0, 1.0, 0.0], [35.0, 0.0, 0.0]], [0, 1, 0])
        rows.append({"age": 43})  # a seen pattern's values, a column short
        with pytest.raises(MissingColumnError):
            distinct_design_rows(SCHEMA, rows)

    def test_distinct_design_rows_encodes_each_shared_row_once(self, monkeypatch):
        calls = []
        encode = CovariateSchema.design_row
        monkeypatch.setattr(CovariateSchema, "design_row",
                            lambda schema, row: calls.append(row) or encode(schema, row))
        ages, groups = [43, 35, 43, 52] * 50, ["Medium", "Good", "Medium", "Poor"] * 50
        rows = rows_of({"age": ages, "group": groups}, ["age", "group"], 200)
        designs, group_of_row = distinct_design_rows(SCHEMA, rows)
        assert len(calls) == len(designs) == 3
        assert group_of_row == [0, 1, 0, 2] * 50
        # plain mappings may change between rows: each is encoded
        calls.clear()
        plain = [dict(row) for row in rows]
        assert distinct_design_rows(SCHEMA, plain) == (designs, group_of_row)
        assert len(calls) == 200
        bad = rows_of({"age": [43, 43], "group": ["Medium", "Fair"]}, ["age", "group"], 2)
        with pytest.raises(UnknownLevelError):
            distinct_design_rows(SCHEMA, bad * 3)

    def test_rows_of_names_a_missing_column(self):
        with pytest.raises(ValueError, match="'group' not in sample"):
            rows_of({"age": [43]}, ["age", "group"], 1)


class TestResolveParameters:
    def test_zero_coefficients_log_link(self):
        model = weibull_model(coefficients=(math.log(4.0), 0.0, 0.0, 0.0))
        d = model.resolve_parameters([50.0, 1.0, 0.0])
        assert d.scale == pytest.approx(4.0, rel=1e-15)
        assert d.shape == 1.4

    def test_identity_link_lnorm(self):
        model = SurvivalModel(dist="lnorm", baseline={"meanlog": 0.0, "sdlog": 0.8},
                              coefficients=(0.37,))
        d = model.resolve_parameters([])
        assert d.meanlog == 0.37
        assert d.sdlog == 0.8

    def test_linear_predictor(self):
        model = weibull_model()
        d = model.resolve_row({"age": 43, "group": "Medium"})
        eta = math.log(4.0) + 0.01 * 43 + 0.2
        assert d.scale == pytest.approx(math.exp(eta), rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="design row"):
            weibull_model().resolve_parameters([1.0])

    def test_overflowing_linear_predictor_is_a_parameter_error(self):
        model = SurvivalModel(dist="weibull", baseline={"shape": 1.4, "scale": 1.0},
                              coefficients=(800.0,))
        with pytest.raises(ParameterError, match="overflows"):
            model.resolve_parameters([])
        with pytest.raises(ParameterError, match="overflows"):
            censored_loglik(model, CensoredSample.from_lists([1.0, 2.0], [1, 0]))


class TestPredict:
    def test_intercept_only_equals_residual_module(self):
        model = SurvivalModel(dist="weibull",
                              baseline={"shape": 1.272, "scale": 6.191},
                              coefficients=(math.log(6.191),))
        table = predict_residual_life(model, life=1.0, type="mean")
        direct = mean_residual_life(model.resolve_parameters([]), 1.0)
        assert len(table) == 1
        assert table.columns["mean"][0] == direct

    def test_row_order_of_keys_is_irrelevant(self):
        model = weibull_model()
        rows_a = [{"age": 43, "group": "Medium"}, {"age": 35, "group": "Good"}]
        rows_b = [{"group": "Medium", "age": 43}, {"group": "Good", "age": 35}]
        ta = predict_residual_life(model, 4.0, p=0.6, type="all", newdata=rows_a)
        tb = predict_residual_life(model, 4.0, p=0.6, type="all", newdata=rows_b)
        assert ta.columns == tb.columns

    def test_extra_columns_ignored(self):
        model = weibull_model()
        base = [{"age": 43, "group": "Medium"}]
        extra = [{"age": 43, "group": "Medium", "extra": 100.0}]
        ta = predict_residual_life(model, 4.0, type="all", newdata=base)
        tb = predict_residual_life(model, 4.0, type="all", newdata=extra)
        assert ta.columns == tb.columns

    def test_training_rows_used_when_no_newdata(self):
        rows = ({"age": 43.0, "group": "Medium"}, {"age": 35.0, "group": "Good"},
                {"age": 39.0, "group": "Poor"})
        model = weibull_model(training_rows=rows)
        table = predict_residual_life(model, 4.0, type="mean")
        explicit = predict_residual_life(model, 4.0, type="mean",
                                         newdata=list(rows))
        assert table.columns == explicit.columns
        assert len(table) == 3

    def test_covariates_without_data_is_an_error(self):
        model = weibull_model(training_rows=None)
        with pytest.raises(DataError, match="newdata"):
            predict_residual_life(model, 4.0)

    def test_bad_level_propagates(self):
        model = weibull_model()
        with pytest.raises(UnknownLevelError, match="Incorrect Level Entered"):
            predict_residual_life(model, 4.0,
                                  newdata=[{"age": 39, "group": "Terrible"}])

    def test_life_must_be_positive(self):
        with pytest.raises(ValueError, match="life"):
            predict_residual_life(weibull_model(), 0.0,
                                  newdata=[{"age": 1, "group": "Good"}])

    def test_covariate_scaling_invariance(self):
        # log link: scaling a numeric covariate by c and dividing its
        # coefficient by c leaves predictions unchanged
        c = 10.0
        schema = CovariateSchema((AGE,))
        m1 = SurvivalModel(dist="weibull", baseline={"shape": 1.4, "scale": 4.0},
                           coefficients=(math.log(4.0), 0.013), schema=schema)
        m2 = SurvivalModel(dist="weibull", baseline={"shape": 1.4, "scale": 4.0},
                           coefficients=(math.log(4.0), 0.013 / c), schema=schema)
        for age in (18.0, 44.0, 71.0):
            t1 = predict_residual_life(m1, 4.0, type="all",
                                       newdata=[{"age": age}])
            t2 = predict_residual_life(m2, 4.0, type="all",
                                       newdata=[{"age": age * c}])
            for name in t1.column_names:
                assert t1.columns[name][0] == pytest.approx(
                    t2.columns[name][0], rel=1e-12)

    def test_percentile_uses_p(self):
        model = weibull_model()
        row = [{"age": 43, "group": "Medium"}]
        t = predict_residual_life(model, 4.0, p=0.6, type="percentile", newdata=row)
        d = model.resolve_row(row[0])
        assert t.columns["percentile"][0] == percentile_residual_life(d, 4.0, 0.6)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        rows = ({"age": 43.0, "group": "Medium"},)
        model = weibull_model(training_rows=rows)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dist == model.dist
        assert loaded.coefficients == model.coefficients
        assert loaded.baseline == model.baseline
        assert loaded.schema == model.schema
        assert loaded.training_rows == rows
        before = predict_residual_life(model, 4.0, type="all",
                                       newdata=[dict(rows[0])])
        after = predict_residual_life(loaded, 4.0, type="all",
                                      newdata=[dict(rows[0])])
        assert before.columns == after.columns

    def test_numpy_covariate_values_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        t = 4.0 * rng.weibull(1.4, size=40)
        sample = CensoredSample.from_lists(t, np.ones(40), {"x": np.arange(40) % 4})
        _, model = fit("weibull", sample, ["x"])
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        before = predict_residual_life(model, 2.0, type="all")
        after = predict_residual_life(loaded, 2.0, type="all")
        assert before.columns == after.columns

    def test_unserializable_value_leaves_file_intact(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(weibull_model(), path)
        written = path.read_bytes()
        bad = weibull_model(training_rows=({"age": object(), "group": "Good"},))
        with pytest.raises(TypeError):
            save_model(bad, path)
        assert path.read_bytes() == written

    def test_schema_version_checked(self):
        doc = model_to_dict(weibull_model())
        doc["schema_version"] = 999
        with pytest.raises(DataError, match="schema_version"):
            model_from_dict(doc)

    def test_training_rows_are_shared_per_pattern(self, tmp_path):
        rng = np.random.default_rng(59)
        groups = [str(g) for g in rng.choice(["Good", "Medium", "Poor"], size=200)]
        t = 4.0 * rng.weibull(1.4, size=200)
        sample = CensoredSample.from_lists(t, np.ones(200), {"group": groups})
        _, model = fit("weibull", sample, ["group"])
        assert len({id(row) for row in model.training_rows}) == 3
        with pytest.raises(TypeError):
            model.training_rows[0]["group"] = "Poor"
        plain = dataclasses.replace(
            model, training_rows=tuple({"group": g} for g in groups))
        assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(plain))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        assert len({id(row) for row in loaded.training_rows}) == 3

    def test_training_rows_take_one_code_per_row(self):
        rows = rows_of({"group": ["Good", "Poor", "Medium"] * 100}, ["group"], 300)
        stored = TrainingRows(rows)
        assert len(stored) == 300 and list(stored) == rows
        assert stored == tuple(rows) and tuple(rows) == stored and stored != rows[:-1]
        assert stored[1] is rows[1] and stored[-1] is rows[-1]
        assert stored[3:5] == (rows[3], rows[4])
        assert stored._codes.itemsize == 1  # one byte a row for 3 patterns
        wide = rows_of({"age": list(range(300))}, ["age"], 300)
        assert TrainingRows(wide)._codes.itemsize == 2 and TrainingRows(wide) == wide

    def test_training_rows_must_be_objects(self):
        doc = model_to_dict(weibull_model())
        doc["training_rows"] = [{"age": 1.0, "group": "Good"}, 1.0]
        with pytest.raises(DataError, match="training_rows"):
            model_from_dict(doc)

    def test_rows_of_keeps_equal_looking_values_apart(self):
        values = [1, 1.0, True, "1", 0.0, -0.0, 1.0]
        rows = rows_of({"x": values}, ["x"], len(values))
        assert [repr(row["x"]) for row in rows] == [repr(v) for v in values]
        assert rows[1] is rows[6]
        assert len({id(row) for row in rows}) == 6

    def test_document_shape(self):
        doc = model_to_dict(weibull_model(training_rows=({"age": 1.0,
                                                          "group": "Good"},)))
        assert doc["schema_version"] == 1
        assert doc["location_param"] == "scale"
        assert doc["link"] == "log"
        assert doc["covariates"][1]["levels"] == ["Good", "Medium", "Poor"]
        assert doc["training_rows"] == [{"age": 1.0, "group": "Good"}]
