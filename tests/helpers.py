"""Shared fixture builders and generators for the test suite.

The three reference networks below have fully hand-checked expected
values (knots, coefficients, rewritten parameters); tests assert against
those frozen numbers rather than against the code under test.
"""

import numpy as np

import relusplines as rs


def net_max_knots() -> rs.ReluNetwork:
    """Depth-3 network of widths (1, 3, 3, 1) with all 15 possible knots."""
    return rs.ReluNetwork(
        (
            rs.Layer([[1.0], [-1.0], [-1.0]], [-1.0, 2.0, 3.0]),
            rs.Layer(
                [[-2.0, 2.0, -3.0], [-1.0, 1.0, -1.5], [1.0, -2.0, 2.5]],
                [4.5, 2.2, -3.3],
                [0.0, 0.0, 0.0],
            ),
            rs.Layer([[1.0, 1.0, 1.0]], [0.0], [0.0]),
        )
    )


# frozen canonical spline of net_max_knots: (knot, coefficient) pairs
MAX15_KNOTS = np.array(
    [0.4, 0.5, 0.6, 1.0, 1.4, 1.5, 1.6, 2.0, 32.0 / 15.0, 2.5, 2.6, 3.0, 3.2, 3.25, 4.3]
)
MAX15_COEFFS = np.array(
    [0.5, 1.0, 0.5, -3.0, 0.5, 1.0, 0.5, -2.0, 1.5, 1.0, 0.5, -4.5, 1.0, 2.0, 1.0]
)
MAX15_Q1 = -0.5
MAX15_Q0 = 0.2

# frozen rewrite of net_max_knots with unit first layer
MAX15_C2_TILDE = np.array([1.0, 0.5, -0.5])
MAX15_B2_TILDE = np.array([-0.5, -0.3, 0.2])

# frozen two-level hierarchy matching the 15 knots above (rows are units)
MAX15_LEVEL1 = np.array([1.0, 2.0, 3.0])
MAX15_LEVEL2 = np.array(
    [
        [0.5, 1.5, 2.5, 3.25],
        [0.6, 1.4, 2.6, 3.2],
        [0.4, 1.6, 32.0 / 15.0, 4.3],
    ]
)


def max15_hierarchy() -> rs.KnotHierarchy:
    return rs.KnotHierarchy(MAX15_LEVEL1, MAX15_LEVEL2)


# frozen no-source build on knots 1..9 with seeds (-1, 1)
NINE_KNOTS = np.arange(1.0, 10.0)
NINE_A2 = np.array([[-1.0, 3.0, -6.0], [1.0, -1.5, 0.75]])
NINE_B2 = np.array([1.0, -2.0])


def net_nine_knots() -> rs.ReluNetwork:
    return rs.synth_two_hidden_no_source(NINE_KNOTS, 3, 2)


# frozen three-hidden-layer build on knots 1..14
FOURTEEN_KNOTS = np.arange(1.0, 15.0)
THREE_A2 = np.array([[-7.0, 18.0], [2.5, -2.25]])
THREE_B2 = np.array([-3.0, 6.0])
THREE_C2 = np.array([1.0, -1.0])
THREE_A3 = np.array([[-3.0, 6.0], [1.5, -0.75]])
THREE_B3 = np.array([-37.0, 6.5])
THREE_C3 = np.array([7.0, -1.75])
THREE_A4 = np.array([-1.0, 1.0])
THREE_EXTRA_KNOT = 431.0 / 29.0
THREE_SPLINE_Q1 = -1.0
THREE_SPLINE_Q0 = 2.0
THREE_SPLINE_COEFFS = np.array(
    [-1.0, 1.0, 3.0, -2.0, 0.5, -0.75, -4.0, 0.25, -21.0,
     18.0, -9.0, 13.5, 36.0, 11.75, -29.0]
)


def fourteen_hierarchy() -> rs.KnotHierarchy:
    return rs.hierarchy_from_flat(FOURTEEN_KNOTS, 2, 2, 2)


def overflow_network(kind: str) -> rs.ReluNetwork:
    """A finite network whose conversion overflows in the named bundle array."""
    if kind == "bundle knots":
        # the first layer's hinge -1e300 / 1e-9 is -inf
        return rs.ReluNetwork((rs.Layer([[1e-9]], [1e300]), rs.Layer([[1.0]], [0.0], [0.0])))
    first = rs.Layer([[1.0], [1.0]], [0.0, -1.0])
    last = rs.Layer([[1e200, 1e200]], [0.0], [0.0])
    big = {
        "coeff_matrix": rs.Layer([[1e200, -1e200], [1e200, 1e200]], [0.0, 0.0], [0.0, 0.0]),
        "q1s": rs.Layer([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], [-1e308, -1e308]),
        "q0s": rs.Layer([[1.0, 1.0], [1.0, 1.0]], [1e308, 1e308], [0.0, 0.0]),
    }
    return rs.ReluNetwork((first, big[kind], last))


def sawtooth_network(depth: int) -> rs.ReluNetwork:
    """Width-2 network computing the tent map T(z) = 2 relu(z) - 4 relu(z - 1/2)
    composed ``depth`` times: 2^depth + 1 knots at j / 2^depth, zero outside [0, 1]."""
    tent = np.array([[2.0, -4.0]])
    b = np.array([0.0, -0.5])
    layers = [rs.Layer([[1.0], [1.0]], b)]
    layers += [rs.Layer(np.repeat(tent, 2, axis=0), b, np.zeros(2)) for _ in range(depth - 1)]
    layers.append(rs.Layer(tent, [0.0], [0.0]))
    return rs.ReluNetwork(tuple(layers))


def sawtooth_closed_form(depth: int, ts) -> np.ndarray:
    """Value j mod 2 at j / 2^depth, linear in between, zero outside [0, 1]."""
    count = 2**depth
    return np.interp(ts, np.arange(count + 1) / count, np.arange(count + 1) % 2.0)


def random_network(rng: np.random.Generator) -> rs.ReluNetwork:
    """Depth 2-4, hidden widths 1-4, all parameters uniform in [-2, 2]."""
    depth = int(rng.integers(2, 5))
    widths = [1] + [int(rng.integers(1, 5)) for _ in range(depth - 1)] + [1]
    layers = [rs.Layer(rng.uniform(-2, 2, (widths[1], 1)), rng.uniform(-2, 2, widths[1]))]
    for i in range(2, depth + 1):
        layers.append(
            rs.Layer(
                rng.uniform(-2, 2, (widths[i], widths[i - 1])),
                rng.uniform(-2, 2, widths[i]),
                rng.uniform(-2, 2, widths[i]),
            )
        )
    return rs.ReluNetwork(tuple(layers))


REJECTION_DRAWS = 100


def random_flat_knots(
    rng: np.random.Generator, count: int, lo=-10.0, hi=10.0, min_gap=1e-2
) -> np.ndarray:
    """Sorted knots in [lo, hi], consecutive ones at least min_gap apart.

    Draws uniformly and redraws on a near-collision, up to REJECTION_DRAWS
    times (the suite needs at most 4).  After that, which happens when
    (count - 1) min_gap nearly fills hi - lo, the spare room is spread at
    random instead: sorted uniform offsets in [0, spare] plus min_gap
    steps.  Raises ValueError when the knots cannot fit, or when rounding
    at the very edge of fitting breaks the gap or the range.
    """
    spare = (hi - lo) - max(count - 1, 0) * min_gap
    if spare < 0:
        raise ValueError(f"{count} knots {min_gap} apart do not fit in [{lo}, {hi}]")
    for _ in range(REJECTION_DRAWS):
        ks = np.sort(rng.uniform(lo, hi, count))
        if count < 2 or float(np.min(np.diff(ks))) >= min_gap:
            return ks
    ks = lo + np.sort(rng.uniform(0.0, spare, count)) + min_gap * np.arange(count)
    if float(np.min(np.diff(ks))) < min_gap or ks[-1] > hi:
        raise ValueError(f"{count} knots {min_gap} apart only fit [{lo}, {hi}] up to rounding")
    return ks


def random_canonical_spline(
    rng: np.random.Generator, max_knots: int = 20, zero_q1_rate: float = 0.0
) -> rs.CplSpline:
    """Canonical spline with clearly active coefficients."""
    n = int(rng.integers(0, max_knots + 1))
    knots = random_flat_knots(rng, n)
    coeffs = rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n)
    q1 = 0.0 if rng.uniform() < zero_q1_rate else float(rng.uniform(-2, 2))
    return rs.CplSpline(q1, float(rng.uniform(-2, 2)), knots, coeffs)


def even_three_level(n1: int, n2: int, n3: int) -> rs.KnotHierarchy:
    """Evenly spread knots on [-10, 10], arranged by position."""
    count = n1 + n2 * (n1 + 1) + n3 * (n2 + 1)
    return rs.hierarchy_from_flat(np.linspace(-10.0, 10.0, count), n1, n2, n3)


def random_two_level(rng: np.random.Generator, n1: int, n2: int) -> rs.KnotHierarchy:
    return rs.hierarchy_from_flat(
        random_flat_knots(rng, n1 + n2 * (n1 + 1)), n1, n2
    )


def random_three_level(rng: np.random.Generator, n1: int, n2: int, n3: int) -> rs.KnotHierarchy:
    return rs.hierarchy_from_flat(
        random_flat_knots(rng, n1 + n2 * (n1 + 1) + n3 * (n2 + 1)), n1, n2, n3
    )


def piecewise_form(spline: rs.CplSpline) -> tuple[np.ndarray, np.ndarray]:
    """Slopes mu[v] and intercepts eta[v] of the affine piece on interval v.

    Interval 0 is left of the first knot, so a spline with N sorted knots
    has N + 1 pieces; slope jumps np.diff(mu) are the coefficients.
    """
    mu = np.concatenate(([spline.q1], spline.q1 + np.cumsum(spline.coeffs)))
    eta = np.concatenate(([spline.q0], spline.q0 - np.cumsum(spline.coeffs * spline.knots)))
    return mu, eta


def assert_splines_match(actual: rs.CplSpline, expected: rs.CplSpline, tol=1e-9):
    assert actual.n_knots == expected.n_knots
    np.testing.assert_allclose(actual.knots, expected.knots, rtol=0, atol=tol)
    np.testing.assert_allclose(actual.coeffs, expected.coeffs, rtol=0, atol=tol)
    assert abs(actual.q1 - expected.q1) <= tol
    assert abs(actual.q0 - expected.q0) <= tol


def reference_csv(ts, values, header: bool = False) -> str:
    """The per-row CSV writer that write_csv must match byte for byte.

    Each field is repr(float(v)) minus a trailing ".0", so 1.0 -> "1".
    """

    def field(v) -> str:
        text = repr(float(v))
        return text[:-2] if text.endswith(".0") else text

    rows = "".join(f"{field(t)},{field(v)}\n" for t, v in zip(ts, values))
    return ("t,value\n" if header else "") + rows
