"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import fqs

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def rng(seed: int) -> np.random.Generator:
    """Test-local randomness, independent of the package's own streams."""
    return np.random.Generator(np.random.PCG64(seed))


@st.composite
def sorted_floats(draw, min_size=1, max_size=12, lo=-50.0, hi=50.0):
    vals = draw(
        st.lists(
            st.floats(min_value=lo, max_value=hi, allow_nan=False, width=64),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return np.sort(np.asarray(vals, dtype=np.float64))


@st.composite
def sketches(draw, k=None, max_k=8):
    kk = k if k is not None else draw(st.integers(min_value=1, max_value=max_k))
    grid = fqs.GridSpec(k=kk)
    vals = np.sort(
        np.asarray(
            draw(
                st.lists(
                    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=64),
                    min_size=kk,
                    max_size=kk,
                )
            ),
            dtype=np.float64,
        )
    )
    count = draw(st.integers(min_value=1, max_value=10_000))
    return fqs.QuantileSketch(grid=grid, values=vals, count=count)


@st.composite
def step_cdfs(draw, max_knots=8):
    m = draw(st.integers(min_value=1, max_value=max_knots))
    knots = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=64),
            min_size=m,
            max_size=m,
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=20), min_size=m, max_size=m)
    )
    return fqs.StepCdf(knots=np.sort(np.asarray(knots, dtype=np.float64)),
                       weights=np.asarray(weights, dtype=np.float64))


def find_compas_csv():
    """Path of the public two-year scores CSV if the user supplied it."""
    names = ("compas-scores-two-years.csv", "compas.csv")
    candidates = []
    base = os.environ.get(fqs.datasets.DATA_DIR_ENV)
    if base:
        candidates.extend(os.path.join(base, name) for name in names)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates.extend(os.path.join(here, "data", name) for name in names)
    for path in candidates:
        if os.path.exists(path):
            return path
    return None


@pytest.fixture
def tmp_csv(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write
