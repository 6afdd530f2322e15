import dataclasses
import inspect
import math
import pickle
from functools import partial

import numpy as np
import pytest

import mobilabel.errors as errors
from mobilabel import (
    AggParams,
    DbscanParams,
    DetectorNoise,
    EvalConfig,
    SceneSpec,
    default_stages,
    generate_scene,
    make_transform,
)

# constructor arguments and the attributes they must come back with
SPECIAL = {
    errors.NonPositiveDepth: ((3, 4, -1.5), {"row": 3, "col": 4, "value": -1.5}),
    errors.MissingPredictions: (("000002",), {"frame_id": "000002"}),
    errors.SchemaViolation: (("$.instances[0].score", "missing required field"),
                             {"field_path": "$.instances[0].score"}),
}


def test_every_error_survives_a_pickle_round_trip():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, errors.MobilabelError)]
    assert set(SPECIAL) < set(classes)
    for cls in classes:
        args, attrs = SPECIAL.get(cls, (("something went wrong",), {}))
        err = cls(*args)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        for name, value in attrs.items():
            assert getattr(back, name) == value


# -- settings are checked where they are built ----------------------------------

def _numbers(cfg):
    """(id, field, index, value) for every number cfg holds: index is None
    for a scalar field and the entry's position in a tuple field."""
    owner = getattr(cfg, "stage", type(cfg).__name__)
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            yield from ((f"{owner}.{f.name}[{i}]", f.name, i, v) for i, v in enumerate(value))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield f"{owner}.{f.name}", f.name, None, value


def _with(cfg, field, index, value):
    if index is not None:
        value = tuple(value if i == index else v for i, v in enumerate(getattr(cfg, field)))
    return dataclasses.replace(cfg, **{field: value})


def _setting_cases():
    configs = [SceneSpec(), DetectorNoise(), DbscanParams(), AggParams(), EvalConfig(),
               *default_stages()]
    for cfg in configs:
        for name, field, index, default in _numbers(cfg):
            count = isinstance(default, int)
            for bad in (True, math.nan, *([2.5] if count else [])):
                yield pytest.param(partial(_with, cfg, field, index, bad), True, id=f"{name}={bad}")
            good = np.int64(default) if count else np.float32(default)
            yield pytest.param(partial(_with, cfg, field, index, good), False,
                               id=f"{name}={type(good).__name__}")
    # faults that once got past the constructor and failed later, untyped
    faults = {
        "EvalConfig(max_dets=2.5)": lambda: EvalConfig(max_dets=2.5),
        "EvalConfig(max_dets=True)": lambda: EvalConfig(max_dets=True),
        "DbscanParams(min_pts=True)": lambda: DbscanParams(min_pts=True),
        "DbscanParams(pixel_window=10.0)": lambda: DbscanParams(pixel_window=10.0),
        "DbscanParams(eps=nan)": lambda: DbscanParams(eps=math.nan),
        "DetectorNoise(false_positives=2.5)": lambda: DetectorNoise(false_positives=2.5),
        "DetectorNoise(score_sigma=nan)": lambda: DetectorNoise(score_sigma=math.nan),
        "SceneSpec(height=64.5)": lambda: SceneSpec(height=64.5),
        "SceneSpec(depth_range=(1.0, inf))": lambda: SceneSpec(depth_range=(1.0, math.inf)),
        "SceneSpec(depth_sigma=nan)": lambda: SceneSpec(depth_sigma=math.nan),
        # ints past the float range, which generate_scene met as an OverflowError
        "SceneSpec(depth_range=(1, 10**400))": lambda: SceneSpec(depth_range=(1, 10**400)),
        "SceneSpec(depth_sigma=10**400)": lambda: SceneSpec(depth_sigma=10**400),
        "generate_scene(frame_index=1.5)": lambda: generate_scene(SceneSpec(), 1.5),
        "make_transform(8.5, 8, 0.5)": lambda: make_transform(8.5, 8, 0.5),
        "large2small scale 5e-324": lambda: dataclasses.replace(default_stages()[1],
                                                                scale=(1.0, 5e-324)),
    }
    for name, build in faults.items():
        yield pytest.param(build, True, id=name)
    yield pytest.param(lambda: DbscanParams(eps=math.inf), False, id="DbscanParams(eps=inf)")


@pytest.mark.parametrize("build, refused", list(_setting_cases()))
def test_a_setting_the_code_cannot_run_is_refused_where_it_is_built(build, refused):
    if refused:
        with pytest.raises(ValueError):
            build()
    else:
        build()
