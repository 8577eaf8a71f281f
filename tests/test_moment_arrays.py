"""The array-backed moment layer against the dict-based builds of
``tests/util.py``: checked supports, moment vectors with their exact
sidecar, and every report read from them."""

import pickle
import struct
from fractions import Fraction

import numpy as np
import pytest

from bohrlab import (
    ExactComplex,
    FSMeasure,
    FrequencyModule,
    InputError,
    PiTimes,
    box_support,
    cross_support,
    uniqueness_verdict,
)
from bohrlab.measures import MAX_BOX_SUPPORT, Support, check_symmetric_support
from util import (
    random_point,
    reference_haar,
    reference_mix,
    reference_point,
    reference_project,
    reference_pushforward,
    reference_symmetric_support,
    reference_uniqueness_verdict,
)

_MODULES = (
    FrequencyModule.integers(),
    FrequencyModule.make(1, "sqrt2"),
    FrequencyModule.make(1, "sqrt2", "sqrt3"),
    FrequencyModule.make(1, "e"),  # an opaque symbol: decisions at the tolerance
)


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _random_support(module, rng, radius, size):
    draws = rng.integers(-radius, radius + 1, (size, module.dim))
    coords = {tuple(int(c) for c in row) for row in draws}
    coords |= {tuple(-c for c in x) for x in coords} | {(0,) * module.dim}
    return tuple(module.frequency(*c) for c in sorted(coords))


def _random_weights(rng, n):
    raw = [int(w) for w in rng.integers(0, 6, n)]
    raw[int(rng.integers(0, n))] += 1
    weights = [Fraction(w, sum(raw)) for w in raw]
    kind = rng.choice(["fraction", "float", "mixed"])
    if kind == "float":
        return [float(w) for w in weights]
    if kind == "mixed":
        return [float(w) if rng.random() < 0.5 else w for w in weights]
    return weights


def _random_shifts(rng):
    kinds = (
        lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
        lambda: PiTimes(Fraction(int(rng.integers(1, 8)), 4)),
        lambda: float(rng.uniform(0.05, 3.0)),
    )
    return [kinds[int(rng.integers(0, 3))]() for _ in range(int(rng.integers(1, 3)))]


def _assert_same_measure(mu, ref, shifts):
    """Same keys, types and values (exact equal, floats bit for bit), a
    negative half that is the bit-exact conjugate of the positive half, and
    every report read from the arrays equal to the one read from the dict."""
    entries = mu.entries
    assert entries.keys() == ref.entries.keys()
    for f, r in ref.entries.items():
        v = entries[f]
        assert type(v) is type(r), f.coords
        if isinstance(r, ExactComplex):
            assert v == r, f.coords
        else:
            assert _bits(v) == _bits(r), f.coords
    m = len(mu.support) // 2
    for f, g in zip(mu.support[m + 1 :], reversed(mu.support[:m])):
        v, w = entries[f], entries[g]
        if isinstance(v, ExactComplex):
            assert w == v.conj()
        else:
            assert _bits(w) == _bits(v.conjugate())
    assert mu._moment_vector().tobytes() == ref.moment_vector().tobytes()
    sizes = [abs(complex(entries[f])) for f in mu.support]
    assert mu._moment_sizes().tobytes() == np.array(sizes).tobytes()
    assert mu.is_exact() == all(isinstance(v, ExactComplex) for v in ref.entries.values())
    assert mu.psd_defect() == ref.psd_defect()
    got, want = mu.gram_blocks(), ref.gram_blocks()
    assert [b for b, _ in got] == [b for b, _ in want]
    assert all(g.tobytes() == h.tobytes() for (_, g), (_, h) in zip(got, want))
    inv = mu.is_invariant(shifts)
    assert (inv.ok, inv.worst, inv.worst_freq, inv.worst_shift) == ref.is_invariant(shifts)
    uq = uniqueness_verdict(mu.module, mu.support, shifts)
    assert (uq.verdict, uq.surviving, uq.killers) == reference_uniqueness_verdict(
        ref.module, ref.support, shifts
    )


def test_array_measures_match_dict_builds(rng):
    seen = {"exact": 0, "float": 0, "float weight": 0, "killed": 0}
    for module in _MODULES:
        for _ in range(8):
            support = _random_support(module, rng, 3, 7)
            shifts = _random_shifts(rng)
            pairs = [(FSMeasure.haar(module, support), reference_haar(module, support))]
            for p in (1.0, 0.0, 0.5, 0.5):
                psi = random_point(module, rng, p)
                pairs.append(
                    (FSMeasure.from_point(module, support, psi), reference_point(module, support, psi))
                )
            for _ in range(3):  # later mixtures may contain earlier ones
                k = int(rng.integers(1, 5))
                members = [pairs[int(i)] for i in rng.choice(len(pairs), size=k, replace=False)]
                weights = _random_weights(rng, k)
                seen["float weight"] += any(isinstance(w, float) for w in weights)
                pairs.append(
                    (
                        FSMeasure.mixture(list(zip(weights, (mu for mu, _ in members)))),
                        reference_mix(list(zip(weights, (ref for _, ref in members)))),
                    )
                )
            for mu, ref in pairs[-2:]:
                t = shifts[-1]
                pairs.append((mu.pushforward(t), reference_pushforward(ref, t)))
                pairs.append((mu.project_to_invariant(shifts), reference_project(ref, shifts)))
                seen["killed"] += sum(
                    v == 0 and w != 0 for v, w in zip(pairs[-1][1].moment_vector(), ref.moment_vector())
                )
            # a checked mixture: one part is a pushforward
            weights = _random_weights(rng, 2)
            (a, ra), (b, rb) = pairs[-4], pairs[1]
            pairs.append(
                (FSMeasure.mixture(list(zip(weights, (a, b)))), reference_mix(list(zip(weights, (ra, rb)))))
            )
            for mu, ref in pairs:
                _assert_same_measure(mu, ref, shifts)
                for v in ref.entries.values():
                    seen["exact" if isinstance(v, ExactComplex) else "float"] += 1
    assert min(seen.values()) > 0, seen


def test_support_check_refuses_what_the_set_check_refused(rng):
    def outcome(check, freqs):
        try:
            return check(freqs)
        except InputError as exc:
            return str(exc)

    refused = 0
    for module in _MODULES[:3]:
        box = list(box_support(module, 2))
        for _ in range(150):
            freqs = [box[int(i)] for i in rng.integers(0, len(box), int(rng.integers(0, 9)))]
            if rng.random() < 0.5:
                freqs += [-f for f in freqs]  # symmetric, duplicates included
            if rng.random() < 0.5:
                freqs.append(module.zero())
            want = outcome(reference_symmetric_support, freqs)
            got = outcome(check_symmetric_support, freqs)
            if isinstance(want, str):
                refused += 1
                if "missing" in want:
                    # the set check named a missing negation in set order;
                    # the coordinate check names the first in sorted order
                    coords = {f.coords for f in freqs}
                    first = min(tuple(-c for c in x) for x in coords if tuple(-c for c in x) not in coords)
                    want = f"support set is not symmetric: missing {first}"
                assert got == want
            else:
                assert isinstance(got, Support) and got == want and hash(got) == hash(want)
                assert got.rows == tuple(f.coords for f in want)
                assert got.position == {f.coords: i for i, f in enumerate(want)}
                assert got.module == module
                assert check_symmetric_support(got) is got
    assert refused > 0


def test_support_check_named_cases():
    m1, m2 = FrequencyModule.integers(), FrequencyModule.make(1, "sqrt2")
    f = m1.frequency
    for freqs, message in (
        ([], "empty"),
        ([f(1), f(-1)], "zero frequency"),
        ([f(0), f(2), f(-1), f(1), f(-3)], "not symmetric"),
    ):
        with pytest.raises(InputError, match=message):
            reference_symmetric_support(freqs)
        with pytest.raises(InputError, match=message):
            check_symmetric_support(freqs)
    # the first missing coordinate in sorted order, whatever the set order
    with pytest.raises(InputError, match=r"missing \(-2,\)"):
        check_symmetric_support([f(0), f(2), f(-1), f(1), f(-3)])
    # repeats collapse, in both checks
    repeated = [f(1), f(0), f(-1), f(1), f(0)]
    assert check_symmetric_support(repeated) == reference_symmetric_support(repeated) == (f(-1), f(0), f(1))
    # two modules: refused by the check, as every constructor refused them
    mixed = [f(0), f(1), f(-1), m2.frequency(1, 0), m2.frequency(-1, 0)]
    with pytest.raises(InputError, match="different frequency modules"):
        check_symmetric_support(mixed)
    with pytest.raises(InputError, match="different frequency modules"):
        FSMeasure.haar(m1, mixed)


def test_checked_supports_are_the_plain_tuples():
    module = FrequencyModule.make(1, "sqrt2", "sqrt3")
    for support in (box_support(module, 1), cross_support(module, 2)):
        plain = tuple(support)
        assert type(plain) is tuple and isinstance(support, Support)
        assert support == plain and hash(support) == hash(plain)
        assert check_symmetric_support(plain) == support
        assert check_symmetric_support(support) is support
        assert support[len(support) // 2].is_zero()
        assert all(support[-1 - i] == -f for i, f in enumerate(support))
        assert {plain: 1}[support] == 1


def test_entries_are_read_only():
    module = FrequencyModule.integers()
    mu = FSMeasure.haar(module, box_support(module, 1))
    with pytest.raises(TypeError):
        mu.entries[module.zero()] = 0
    assert not mu._moment_vector().flags.writeable


def test_measures_and_supports_pickle():
    module = FrequencyModule.make(1, "sqrt2")
    support = box_support(module, 1)
    psi = random_point(module, np.random.default_rng(1), exact_prob=0.0)
    mu = FSMeasure.mixture(
        [(Fraction(1, 2), FSMeasure.haar(module, support)), (0.5, FSMeasure.from_point(module, support, psi))]
    )
    for touched in (False, True):
        if touched:
            mu.entries
        nu = pickle.loads(pickle.dumps(mu))
        assert isinstance(nu.support, Support) and nu.support == mu.support
        assert nu.support.rows == mu.support.rows
        assert dict(nu.entries) == dict(mu.entries)
        assert nu._moment_vector().tobytes() == mu._moment_vector().tobytes()


def test_box_support_is_bounded():
    module = FrequencyModule.make(1, "sqrt2")
    assert MAX_BOX_SUPPORT == 2**20
    assert len(box_support(module, 40)) == 81**2  # the largest box of the CLI session
    with pytest.raises(InputError, match="limit of 1048576 frequencies"):
        box_support(module, 512)  # 1025**2 frequencies
    with pytest.raises(InputError, match="limit"):
        box_support(FrequencyModule.make(1, "sqrt2", "sqrt3", "pi"), 100_000)


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def test_exact_complex_converts_like_float_of_each_part(rng):
    parts = [Fraction(int(n), int(d)) for n, d in zip(rng.integers(-10**12, 10**12, 300), rng.integers(1, 10**12, 300))]
    parts += [Fraction(int(n), 2**int(k)) for n, k in zip(rng.integers(-2**62, 2**62, 50), rng.integers(0, 1100, 50))]
    parts += [
        Fraction(0),
        Fraction(3**700 + 1, 3**699),  # huge terms, a ratio near 3
        Fraction(-(7**500), 7**500 * 2**1060 + 1),  # a subnormal result
        Fraction(1, 3 * 2**1075),  # below the smallest subnormal: 0.0
        Fraction(2**1024 - 2**971, 1),  # the largest float
        Fraction(2**2000 + 3, 2**978 + 1),
    ]
    for re, im in zip(parts, parts[::-1]):
        assert _bits(complex(ExactComplex(re, im))) == _bits(complex(float(re), float(im)))
    with pytest.raises(OverflowError):
        complex(ExactComplex(Fraction(2**1024), Fraction(0)))
