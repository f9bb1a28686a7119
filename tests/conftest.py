import pytest

from vortexplane import (IntegrationConfig, constantin_model, example_model,
                         integrate, power_law_model)
from vortexplane import verify


@pytest.fixture(scope="session")
def constantin():
    return constantin_model()


@pytest.fixture(scope="session")
def example():
    return example_model(0.02)


@pytest.fixture(scope="session")
def powerlaw():
    return power_law_model(0.3)


@pytest.fixture(scope="session")
def models(constantin, example, powerlaw):
    return {"constantin": constantin, "example": example,
            "powerlaw": powerlaw}


@pytest.fixture(scope="session")
def run10(constantin):
    """a = 10 orbit out to r = 100; crosses into E < 0 around r = 60.4."""
    return integrate(constantin, 10.0, IntegrationConfig(r_max=100.0))


@pytest.fixture(scope="session")
def run100(constantin):
    """a = 100 orbit out to r = 2000; rate onset, ring entry and a long
    crossing sequence all fit in this window."""
    return integrate(constantin, 100.0,
                     IntegrationConfig(r_max=2000.0, rel_tol=1e-9))


@pytest.fixture(scope="session")
def acceptance_results():
    return verify.run_all()


@pytest.fixture(scope="session")
def state_at():
    """(psi, beta) of a trajectory at radius r, read off the cubic Hermite
    of the step that holds r."""
    def at(traj, r):
        i, s = traj.locate(r)
        return traj.hermite("psi", i)(s), traj.hermite("beta", i)(s)
    return at
