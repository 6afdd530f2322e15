import inspect
import pickle

import mobilabel.errors as errors

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
