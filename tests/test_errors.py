import pytest

from hybridbec import ConfigError, PhysicalParams
from hybridbec.errors import require_choice, require_object

KNOWN = ("omega_a", "omega_m", "n_a")


@pytest.mark.parametrize("data, named", [
    ([1.0], ["'params' must be a JSON object, got list"]),
    (None, ["'params' must be a JSON object, got NoneType"]),
    ({"omega_a": 1.0, "omega_m": 1.4, "typo": 1}, ["'params'", "unknown key(s) ['typo']"]),
    ({"omega_a": 1.0}, ["'params'", "missing required key(s) ['omega_m']"]),
    ({"typo": 1, "n_a": 1.0},
     ["'params'", "unknown key(s) ['typo']", "missing required key(s) ['omega_a', 'omega_m']"]),
], ids=["not-an-object", "null", "unknown-key", "missing-key", "both"])
def test_require_object_names_the_object_and_its_keys(data, named):
    with pytest.raises(ConfigError) as err:
        require_object("params", data, KNOWN, ("omega_a", "omega_m"))
    assert all(part in str(err.value) for part in named), str(err.value)


def test_require_object_returns_a_copy():
    data = {"omega_a": 1.0}
    got = require_object("params", data, KNOWN)
    assert got == data and got is not data
    got["n_a"] = 5.0
    assert data == {"omega_a": 1.0}
    # a key may be known and not required, and required keys are known
    assert require_object("sweep", {}, ("variable", "values")) == {}


def test_a_null_resonance_is_no_resonance():
    bare = {"omega_a": 1.0, "omega_m": 1.4}
    p = PhysicalParams.from_dict({**bare, "resonance": None})
    assert p.resonance is None and p == PhysicalParams.from_dict(bare)
    assert p.to_dict() == PhysicalParams.from_dict(bare).to_dict()


def test_require_choice():
    require_choice("bdg.method", "grid", ("paper", "block", "grid"))
    for value in ("dense", None, ["grid"], 1):
        with pytest.raises(ConfigError) as err:
            require_choice("bdg.method", value, ("paper", "block", "grid"))
        assert str(err.value) == (
            f"bdg.method must be one of ['paper', 'block', 'grid'], got {value!r}")
