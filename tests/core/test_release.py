"""A ULDP-AVG silo's release: ``float32(noise + fold)``, formed in one place.

Every carrier ships what ``UldpAvg._release_payload`` returns -- the noisy
weighted sum rounded once to ``payload_dtype`` after the noise is added,
so the rounding is post-processing and the only cost is half a float32
ulp per coordinate.  The methods that form their aggregate in process
from no payload array keep the float64 default.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UldpAvg
from repro.core.reduce import BinnedSum
from repro.data import build_creditcard_benchmark
from repro.nn.model import build_tiny_mlp

#: Coordinates well inside float32's range (its overflow is not a release).
VALUES = st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_release_is_the_float32_rounding_of_noise_plus_fold(data):
    size = data.draw(st.integers(1, 32), label="size")
    n_rows = data.draw(st.integers(0, 5), label="rows")
    noise = np.array(data.draw(st.lists(VALUES, min_size=size, max_size=size)))
    fold = None
    wide = noise
    if n_rows:
        fold = BinnedSum(size, scale=1.0)
        for _ in range(n_rows):
            fold.add(np.array(data.draw(st.lists(
                st.floats(-1.0, 1.0), min_size=size, max_size=size))))
        wide = noise + fold.total()
    release = UldpAvg()._release_payload(noise, fold)
    assert release.dtype == np.float32 and release.shape == (size,)
    assert release.tobytes() == wide.astype(np.float32).tobytes()
    half_ulp = np.spacing(np.abs(release)).astype(np.float64) / 2
    assert np.all(np.abs(release.astype(np.float64) - wide) <= half_ulp)


def test_a_silo_with_no_user_releases_its_rounded_noise():
    """The no-user branch of ``silo_payload`` (a remote silo or an async
    job whose users all have zero weight) ships the same dtype."""
    fed = build_creditcard_benchmark(
        n_users=6, n_silos=2, n_records=120, n_test=20, seed=0)
    method = UldpAvg(local_epochs=1)
    model = build_tiny_mlp(30, 4, 2, np.random.default_rng(1))
    method.prepare(fed, model, np.random.default_rng(7))
    params = method.broadcast(model.get_flat_params())
    nobody = np.zeros(fed.n_users)
    users, payload = method.silo_payload(0, params, nobody, 1.0)
    _, _, noise = method._draw_silo(0, nobody, 1.0, params.size)
    assert users == []
    assert payload.tobytes() == noise.astype(np.float32).tobytes()

