"""Seedable samplers for a catalog of 18 non-Gaussian unit-variance source densities.

The catalog (labels a-r) fixes one density per label:

  label  family                                    analytic excess kurtosis
  -----  ----------------------------------------  ------------------------
  a      Student-t, 3 dof                           (infinite 4th moment)
  b      double exponential                         +3.00
  c      uniform                                    -1.20
  d      Student-t, 5 dof                           +6.00
  e      exponential                                +6.00 (skewed)
  f      mixture of two double exponentials         -0.56 (bimodal)
  g      symmetric 2-Gaussian mixture, multimodal   -1.62
  h      symmetric 2-Gaussian mixture, transitional -1.28
  i      symmetric 2-Gaussian mixture, unimodal     -0.22 (near-Gaussian)
  j      asymmetric 2-Gaussian, multimodal          -0.70
  k      asymmetric 2-Gaussian, transitional        -0.66
  l      asymmetric 2-Gaussian, unimodal spiky      +3.80
  m      symmetric 4-Gaussian, multimodal           -1.31
  n      symmetric 4-Gaussian, transitional         -1.02
  o      symmetric 4-Gaussian, unimodal             -0.15 (near-Gaussian)
  p      asymmetric 4-Gaussian, multimodal          -0.71
  q      asymmetric 4-Gaussian, transitional        -0.40
  r      asymmetric 4-Gaussian, unimodal spiky      +3.86

Samples are standardized with each family's analytic mean and variance, so
finite-sample scale noise stays in the data. Entries `i` and `o` are flagged
near-Gaussian (|excess kurtosis| < 0.3); they are deliberately hard cases.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Any

import numpy as np

LABELS = "abcdefghijklmnopqr"


@dataclass(frozen=True)
class SourceSpec:
    """One catalog density: family, parameters, and analytic moments.

    The parameters are held read-only, mixture components as a tuple, since
    every caller of `catalog()` shares the same specs.
    """

    label: str
    family: str
    parameters: Mapping[str, Any]
    mean: float
    std: float
    description: str
    near_gaussian: bool = False

    def __post_init__(self):
        frozen = {key: tuple(value) if isinstance(value, list) else value
                  for key, value in self.parameters.items()}
        object.__setattr__(self, "parameters", MappingProxyType(frozen))


def _gauss_mixture_moments(components) -> tuple[float, float]:
    mean = sum(w * mu for w, mu, _ in components)
    var = sum(w * (s * s + mu * mu) for w, mu, s in components) - mean * mean
    return mean, var


def _laplace_mixture_moments(components) -> tuple[float, float]:
    mean = sum(w * mu for w, mu, _ in components)
    var = sum(w * (2 * b * b + (mu - mean) ** 2) for w, mu, b in components)
    return mean, var


def _gm(label: str, components, description: str, near_gaussian: bool = False) -> SourceSpec:
    mean, var = _gauss_mixture_moments(components)
    return SourceSpec(label, "gauss_mixture", {"components": components},
                      mean, math.sqrt(var), description, near_gaussian)


@cache
def catalog() -> tuple[SourceSpec, ...]:
    """The fixed 18-entry density catalog, labels 'a' through 'r'.

    Built on the first call; every call returns that one tuple.
    """
    lap_mix = [(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)]
    lm_mean, lm_var = _laplace_mixture_moments(lap_mix)
    specs = (
        SourceSpec("a", "student_t", {"df": 3}, 0.0, float(np.sqrt(3.0)),
                   "Student-t, 3 degrees of freedom"),
        SourceSpec("b", "laplace", {"scale": 1.0}, 0.0, float(np.sqrt(2.0)),
                   "double exponential"),
        SourceSpec("c", "uniform", {"half_width": float(np.sqrt(3.0))}, 0.0, 1.0,
                   "uniform on [-sqrt(3), sqrt(3)]"),
        SourceSpec("d", "student_t", {"df": 5}, 0.0, float(np.sqrt(5.0 / 3.0)),
                   "Student-t, 5 degrees of freedom"),
        SourceSpec("e", "exponential", {"rate": 1.0}, 1.0, 1.0,
                   "unit-rate exponential"),
        SourceSpec("f", "laplace_mixture", {"components": lap_mix},
                   lm_mean, math.sqrt(lm_var),
                   "mixture of two double exponentials at +/-2"),
        _gm("g", [(0.5, -1.2, 0.4), (0.5, 1.2, 0.4)],
            "symmetric 2-Gaussian mixture, multimodal"),
        _gm("h", [(0.5, -1.0, 0.5), (0.5, 1.0, 0.5)],
            "symmetric 2-Gaussian mixture, transitional"),
        _gm("i", [(0.5, -0.7, 1.0), (0.5, 0.7, 1.0)],
            "symmetric 2-Gaussian mixture, unimodal (near-Gaussian)", near_gaussian=True),
        _gm("j", [(0.7, -1.0, 0.45), (0.3, 1.6, 0.6)],
            "asymmetric 2-Gaussian mixture, multimodal"),
        _gm("k", [(0.65, -0.7, 0.65), (0.35, 1.3, 0.7)],
            "asymmetric 2-Gaussian mixture, transitional"),
        _gm("l", [(0.75, -0.3, 0.4), (0.25, 0.9, 1.3)],
            "asymmetric 2-Gaussian mixture, unimodal spiky"),
        _gm("m", [(0.25, -3.0, 0.3), (0.25, -1.0, 0.3), (0.25, 1.0, 0.3), (0.25, 3.0, 0.3)],
            "symmetric 4-Gaussian mixture, multimodal"),
        _gm("n", [(0.25, -2.4, 0.7), (0.25, -0.8, 0.7), (0.25, 0.8, 0.7), (0.25, 2.4, 0.7)],
            "symmetric 4-Gaussian mixture, transitional"),
        _gm("o", [(0.15, -1.8, 0.9), (0.35, -0.45, 0.9), (0.35, 0.45, 0.9), (0.15, 1.8, 0.9)],
            "symmetric 4-Gaussian mixture, unimodal (near-Gaussian)", near_gaussian=True),
        _gm("p", [(0.4, -2.2, 0.35), (0.3, -0.4, 0.35), (0.2, 1.2, 0.35), (0.1, 3.0, 0.35)],
            "asymmetric 4-Gaussian mixture, multimodal"),
        _gm("q", [(0.35, -1.6, 0.6), (0.35, -0.2, 0.6), (0.2, 1.2, 0.6), (0.1, 2.8, 0.6)],
            "asymmetric 4-Gaussian mixture, transitional"),
        _gm("r", [(0.5, 0.0, 0.45), (0.3, -0.4, 1.1), (0.1, 0.7, 1.6), (0.1, 1.3, 2.0)],
            "asymmetric 4-Gaussian mixture, unimodal spiky"),
    )
    assert [s.label for s in specs] == list(LABELS)
    return specs


def spec_by_label(label: str) -> SourceSpec:
    for spec in catalog():
        if spec.label == label:
            return spec
    raise KeyError(f"no source labeled {label!r}; valid labels are {LABELS}")


def _raw_sample(spec: SourceSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    fam, p = spec.family, spec.parameters
    if fam == "student_t":
        return rng.standard_t(p["df"], size=n)
    if fam == "laplace":
        return rng.laplace(0.0, p["scale"], size=n)
    if fam == "uniform":
        return rng.uniform(-p["half_width"], p["half_width"], size=n)
    if fam == "exponential":
        return rng.standard_exponential(size=n) / p["rate"]
    if fam in ("gauss_mixture", "laplace_mixture"):
        comps = p["components"]
        weights = np.array([c[0] for c in comps])
        which = rng.choice(len(comps), size=n, p=weights)
        locs = np.array([c[1] for c in comps])[which]
        scales = np.array([c[2] for c in comps])[which]
        if fam == "gauss_mixture":
            return locs + scales * rng.standard_normal(n)
        return locs + rng.laplace(0.0, 1.0, size=n) * scales
    raise ValueError(f"unknown source family {fam!r}")


def sample_source(spec: SourceSpec, N: int, seed: int) -> np.ndarray:
    """Draw N i.i.d. samples and standardize with the spec's analytic moments."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    rng = np.random.default_rng(seed)
    raw = _raw_sample(spec, N, rng)
    return (raw - spec.mean) / spec.std


def catalog_table() -> str:
    """Human-readable rendering of the catalog for the CLI."""
    lines = [f"{'label':<6}{'family':<18}{'near-Gaussian':<15}description"]
    for spec in catalog():
        flag = "yes" if spec.near_gaussian else ""
        lines.append(f"{spec.label:<6}{spec.family:<18}{flag:<15}{spec.description}")
    return "\n".join(lines)
