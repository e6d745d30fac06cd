import pytest

from plap.nonlinearity import build_nonlinearity


@pytest.fixture(scope="session")
def cubic_odd():
    """q = 2, f = s^3: the classical Chafee-Infante nonlinearity."""
    return build_nonlinearity("power_asym", 2.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 4.0})


@pytest.fixture(scope="session")
def asym():
    """q = 2, f = 2 s^3 / -|s|^3: A(z+) = 1/8 < A(z-) = 1/4."""
    return build_nonlinearity("power_asym", 2.0, {"b_plus": 2.0, "b_minus": 1.0, "r_exp": 4.0})


@pytest.fixture(scope="session")
def quintic_q3():
    """q = 3, f = s^5 (odd); pairs with p = 3 for flat-core runs."""
    return build_nonlinearity("power_asym", 3.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 6.0})


@pytest.fixture(scope="session")
def qgtp():
    """q = 3, f = |s|^3 s: the q > p family when paired with p = 2."""
    return build_nonlinearity("power_asym", 3.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 5.0})


@pytest.fixture(scope="session")
def quartic_q4():
    """q = 4, f = s^5; pairs with p = 4 for the Takeuchi-Yamada check."""
    return build_nonlinearity("power_asym", 4.0, {"b_plus": 1.0, "b_minus": 1.0, "r_exp": 6.0})
