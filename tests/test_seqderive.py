from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from shared_inputs import harmonic_spec, triadic_spec
from valmon.errors import IdentityViolation, InsufficientPrecision
from valmon.seqderive import (CHECKED_IDENTITIES, DerivedSequences, _validate,
                              derive, self_check)
from valmon.series import CallbackTail, SimpleSeriesSpec, dyadic_spec

F = Fraction


def seven_exponent_spec():
    """Exponents (2, 3/2, 1/2, 1/3, 1/5, 1/7, 1/11): a finite prefix whose
    leading term has an integer exponent."""
    exps = [F(2), F(3, 2), F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)]
    return SimpleSeriesSpec([(1, e) for e in exps])


def extended_seven_spec():
    """The seven exponents continued by 1/13, 1/17, 1/19: depth 8."""
    exps = [F(2), F(3, 2), F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11),
            F(1, 13), F(1, 17), F(1, 19)]
    return SimpleSeriesSpec([(1, e) for e in exps])


def trimmed_seven_spec():
    """Same spec with the integer-exponent head dropped."""
    exps = [F(3, 2), F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)]
    return SimpleSeriesSpec([(1, e) for e in exps])


def test_dyadic_depth4():
    seqs = derive(dyadic_spec(), 4)
    assert seqs.r_list == (1, 2, 4, 8, 16)
    assert seqs.l_list == (0, 1, 2, 3, 4)
    assert seqs.u_list == (F(0), F(1, 2), F(5, 4), F(21, 8), F(85, 16))
    assert seqs.rho_list == (F(1, 2), F(3, 4), F(11, 8), F(43, 16))
    assert seqs.s_list == (2, 2, 2, 2)
    assert seqs.c_list == (1, 3, 11, 43)


def test_harmonic_ramification():
    seqs = derive(harmonic_spec(), 4)
    assert seqs.r_list == (1, 2, 6, 12, 60)
    assert seqs.rho_list == (F(1, 2), F(5, 6), F(29, 12), F(287, 60))
    assert seqs.s_list == (2, 3, 2, 5)


def test_seven_exponent_spec_honest_values():
    # The integer-exponent head contributes denominator 1, so the honest
    # cumulative-lcm sequence repeats 1 at index 1 and shifts l accordingly.
    seqs = derive(seven_exponent_spec(), 5)
    assert seqs.r_list == (1, 1, 2, 2, 6, 30, 210, 2310)
    assert seqs.l_list == (0, 2, 4, 5, 6, 7)
    assert seqs.rho_list == (
        F(3, 2), F(11, 6), F(161, 30), F(5623, 210), F(432851, 2310))
    assert seqs.s_list == (2, 3, 5, 7, 11)
    assert seqs.u(4) == F(31, 6)


def test_trimmed_seven_spec_reproduces_printed_values():
    seqs = derive(trimmed_seven_spec(), 5)
    assert seqs.r_list == (1, 2, 2, 6, 30, 210, 2310)
    assert seqs.l(0) == 0
    assert seqs.l(1) == 1
    for i in range(2, 6):
        assert seqs.l(i) == i + 1


def test_integer_head_does_not_change_monoid_data():
    # dropping leading integer-exponent terms shifts raw indices but leaves
    # rho and s untouched
    a = derive(seven_exponent_spec(), 5)
    b = derive(trimmed_seven_spec(), 5)
    assert a.rho_list == b.rho_list
    assert a.s_list == b.s_list


@pytest.mark.parametrize("make", [dyadic_spec, harmonic_spec,
                                  extended_seven_spec])
def test_u_matches_literal_double_sum(make):
    # derive accumulates u in one pass; the definition re-sums per index
    seqs = derive(make(), 8)
    r = seqs.r_list
    for i in range(seqs.raw_length + 1):
        literal = sum(((F(r[i], r[j]) - F(r[i], r[j + 1])) * seqs.e(j + 1)
                       for j in range(i)), F(0))
        assert seqs.u(i) == literal


def test_self_check_across_specs():
    for spec, depth in ((dyadic_spec(), 6), (harmonic_spec(), 6),
                        (seven_exponent_spec(), 5), (trimmed_seven_spec(), 5)):
        assert self_check(derive(spec, depth)) == list(CHECKED_IDENTITIES)


def test_depth_one_base_case():
    seqs = derive(dyadic_spec(), 1)
    assert seqs.rho_list == (F(1, 2),)
    assert seqs.rho(1) == seqs.e(seqs.l(1))
    self_check(seqs)


def test_recurrence_agrees_with_closed_form():
    # independent recomputation of rho by the recurrence
    for spec, depth in ((dyadic_spec(), 6), (harmonic_spec(), 6)):
        seqs = derive(spec, depth)
        rho = [seqs.e(seqs.l(1))]
        for i in range(1, depth):
            rho.append(seqs.s(i) * rho[-1]
                       - seqs.e(seqs.l(i)) + seqs.e(seqs.l(i + 1)))
        assert tuple(rho) == seqs.rho_list


def test_ramification_sum_formula():
    seqs = derive(harmonic_spec(), 6)
    for i in range(seqs.depth + 1):
        total = sum((seqs.s(j) - 1) * seqs.r(seqs.l(j - 1))
                    for j in range(1, i + 1))
        assert total == seqs.r(seqs.l(i)) - 1


def test_digit_sums_land_in_new_residue_classes():
    # brute force at small depth: sum d_j rho_j with d_i != 0 needs exactly
    # denominator r_l(i)
    seqs = derive(dyadic_spec(), 3)
    for digits in product(*(range(seqs.s(j)) for j in (1, 2, 3))):
        depth = max((j for j, d in enumerate(digits, 1) if d), default=0)
        if depth == 0:
            continue
        value = sum(d * seqs.rho(j) for j, d in enumerate(digits, 1))
        assert (value * seqs.r(seqs.l(depth))).denominator == 1
        assert (value * seqs.r(seqs.l(depth - 1))).denominator != 1


def test_coprimality_of_c_and_s():
    for spec, depth in ((dyadic_spec(), 6), (harmonic_spec(), 6)):
        seqs = derive(spec, depth)
        for i in range(1, depth + 1):
            assert gcd(seqs.c(i), seqs.s(i)) == 1
            assert seqs.rho(i) == F(seqs.c(i), seqs.r(seqs.l(i)))


def test_derive_errors():
    with pytest.raises(InsufficientPrecision):
        derive(seven_exponent_spec(), 6)  # finite spec, not enough jumps
    with pytest.raises(ValueError):
        derive(dyadic_spec(), 0)


def stalled_spec():
    """Exponents 1/2, then (2^20 - i)/2^21 for i = 0, 1, ...: the
    ramification index jumps to 2^21 at the third term and never again."""
    return SimpleSeriesSpec(
        [(1, F(1, 2))], CallbackTail(lambda i: (1, F(2**20 - i, 2**21))))


def test_derive_stops_at_the_no_jump_guard():
    assert derive(stalled_spec(), 2).r(2) == 2**21
    with pytest.raises(InsufficientPrecision,
                       match="no ramification jump within 1024 terms"):
        derive(stalled_spec(), 3)


def test_json_shape():
    data = derive(dyadic_spec(), 2).to_json()
    assert data["rho"] == ["1/2", "3/4"]
    assert data["r"] == ["1", "2", "4"]
    assert data["depth"] == 2


def _corrupted(seqs, name, pos, delta=F(1, 7)):
    """A copy of seqs with entry pos of the raw list `name` shifted by delta
    (positions as stored: e and rho from index 1, r and u from index 0)."""
    raw = {"e": [seqs.e(i) for i in range(1, seqs.raw_length + 1)],
           "r": list(seqs.r_list), "l": list(seqs.l_list),
           "u": list(seqs.u_list), "rho": list(seqs.rho_list),
           "s": list(seqs.s_list), "c": list(seqs.c_list)}
    raw[name][pos] += delta
    return DerivedSequences(seqs.depth, **raw)


@pytest.mark.parametrize("make,depth", [(harmonic_spec, 10),
                                        (seven_exponent_spec, 5)])
def test_self_check_catches_u_inside_run_of_equal_r(make, depth):
    # harmonic r_12 = r_13 = r_14: u_13 is compared with no u_l(i) or
    # u_(l(i)-1), so only the check over equal r can catch it
    seqs = derive(make(), depth)
    r = seqs.r_list
    repeats = [k for k in range(1, len(r)) if r[k] == r[k - 1]]
    assert repeats
    for k in repeats:
        with pytest.raises(IdentityViolation) as exc:
            self_check(_corrupted(seqs, "u", k))
        assert exc.value.identity == "u-stabilization"


@pytest.mark.parametrize("make", [dyadic_spec, harmonic_spec])
def test_self_check_catches_r_at_jump(make):
    seqs = derive(make(), 6)
    for i in range(1, seqs.depth + 1):
        with pytest.raises(IdentityViolation) as exc:
            self_check(_corrupted(seqs, "r", seqs.l(i), 1))
        assert exc.value.identity == "ramification-sum"
        assert exc.value.index == i


@pytest.mark.parametrize("make", [dyadic_spec, harmonic_spec])
def test_self_check_catches_e_and_rho(make):
    # rho-difference is equivalent to rho-recurrence given rho_1, so the
    # recurrence, checked first, is the one that fires
    seqs = derive(make(), 6)
    for i in range(1, seqs.depth + 1):
        for name, pos in (("e", seqs.l(i) - 1), ("rho", i - 1)):
            with pytest.raises(IdentityViolation) as exc:
                self_check(_corrupted(seqs, name, pos))
            assert exc.value.identity == "rho-recurrence"


# accessor, first index, last index (K = raw_length or w = depth), label
_ACCESSORS = (("e", 1, "K", "e_{}"), ("r", 0, "K", "r_{}"),
              ("l", 0, "w", "l({})"), ("u", 0, "K", "u_{}"),
              ("rho", 1, "w", "rho_{}"), ("s", 1, "w", "s_{}"),
              ("c", 1, "w", "c_{}"))


@pytest.mark.parametrize("make,depth", [(dyadic_spec, 8), (harmonic_spec, 6),
                                        (seven_exponent_spec, 5)])
def test_accessors_read_both_ends_and_refuse_one_past(make, depth):
    spec = make()
    seqs = derive(spec, depth)
    top = {"K": seqs.raw_length, "w": depth}
    stored = {"e": [spec.term(i)[1] for i in range(1, seqs.raw_length + 1)],
              "r": seqs.r_list, "l": seqs.l_list, "u": seqs.u_list,
              "rho": seqs.rho_list, "s": seqs.s_list, "c": seqs.c_list}
    for name, first, last, label in _ACCESSORS:
        read, seq, last = getattr(seqs, name), stored[name], top[last]
        assert len(seq) == last - first + 1, name
        assert (read(first), read(last)) == (seq[0], seq[-1]), name
        for i in (first - 1, last + 1):
            with pytest.raises(IndexError) as exc:
                read(i)
            assert str(exc.value) == f"{label.format(i)} out of range"


@pytest.mark.parametrize("make,depth", [(dyadic_spec, 9), (triadic_spec, 6),
                                        (harmonic_spec, 10),
                                        (seven_exponent_spec, 5)])
def test_u_matches_the_running_sum(make, depth):
    # the definition u_i = r_i * S_i, S_i = sum_{j<i} (1/r_j - 1/r_{j+1})
    # e_{j+1}, summed as it runs, in Fractions throughout
    seqs = derive(make(), depth)
    r = seqs.r_list
    want = [F(0)]
    acc = F(0)
    for i in range(1, seqs.raw_length + 1):
        acc += (F(1, r[i - 1]) - F(1, r[i])) * seqs.e(i)
        want.append(r[i] * acc)
    assert seqs.u_list == tuple(want)
    assert all(type(u) is F for u in seqs.u_list)


# --- the lattice derivation against the definition --------------------------

def reference_derive(spec, depth):
    """The definitional derivation over Fractions: e, r and l pulled term by
    term, each u_i = sum_{j<i} (r_i/r_j - r_i/r_{j+1}) e_{j+1} summed anew,
    then rho_i = u_{l(i)-1} + e_{l(i)}, s_i = r_l(i)/r_l(i-1) and
    c_i = rho_i*r_l(i)."""
    e, r, l = [], [1], [0]
    while len(l) <= depth:
        e.append(spec.term(len(e) + 1)[1])
        r.append(lcm(r[-1], e[-1].denominator))
        if r[-1] > r[-2]:
            l.append(len(e))
    u = [sum(((F(r[i], r[j]) - F(r[i], r[j + 1])) * e[j] for j in range(i)),
             F(0)) for i in range(len(r))]
    rho = [u[l[i] - 1] + e[l[i] - 1] for i in range(1, depth + 1)]
    s = [r[l[i]] // r[l[i - 1]] for i in range(1, depth + 1)]
    c = [rho[i - 1] * r[l[i]] for i in range(1, depth + 1)]
    assert all(ci.denominator == 1 for ci in c)
    return DerivedSequences(depth, e, r, l, u, rho, s,
                            [ci.numerator for ci in c])


_TYPES = {"_e": F, "_u": F, "_rho": F, "_r": int, "_l": int, "_s": int,
          "_c": int}


@pytest.mark.parametrize("make,depths", [
    (dyadic_spec, range(1, 11)), (triadic_spec, range(1, 11)),
    (harmonic_spec, range(1, 11)), (seven_exponent_spec, range(1, 6))])
def test_lattice_derive_matches_the_definition(make, depths):
    for depth in depths:
        got, want = derive(make(), depth), reference_derive(make(), depth)
        assert vars(got) == vars(want)
        for name, kind in _TYPES.items():
            assert all(type(x) is kind for x in vars(got)[name]), name
        assert got.to_json() == want.to_json()


# --- the structural invariants on lattice ints ------------------------------

def lattice_data(make, depth):
    """The ints _validate reads off a derivation: r, l, s and c as stored,
    and P[i-1] = rho_i*R, R = r_K."""
    seqs = derive(make(), depth)
    R = seqs.r_list[-1]
    P = [x * R for x in seqs.rho_list]
    assert all(x.denominator == 1 for x in P)
    return {"r": list(seqs.r_list), "l": list(seqs.l_list),
            "s": list(seqs.s_list), "c": list(seqs.c_list),
            "P": [int(x) for x in P]}


@pytest.mark.parametrize("make,depth", [
    (dyadic_spec, 10), (triadic_spec, 8), (harmonic_spec, 10),
    (seven_exponent_spec, 5)])
def test_validate_passes_real_derivations(make, depth):
    assert _validate(**lattice_data(make, depth)) is None


def _crafted(data, i):
    """For each invariant, lattice data on which it alone fires, at raw
    index i for r-divisibility-chain and at index i for the rest, the
    entries before i left as derived; None where no such data exists."""
    r, l, s, c, P = (data[k] for k in "rlscP")
    R = r[-1]
    out = {}
    if i < len(r):
        # r_i + 1 is 1 modulo r_(i-1) >= 2; at i = 1 raise r_0 instead
        out["r-divisibility-chain"] = (
            ("r", 0, r[1] + 1) if i == 1 else ("r", i, r[i] + 1))
    if i > len(s):
        return out
    out["s-lower-bound"] = ("s", i - 1, 1)
    out["c-s-coprime"] = ("c", i - 1, c[i - 1] * s[i - 1])
    step, old_step = R // r[l[i]], R // r[l[i - 1]]
    if step > 1:
        # at i = w the lattice is (1/r_l(w))Z itself, so no P is off it
        out["rho-residue"] = ("P", i - 1, P[i - 1] + 1)
    below = P[i - 2] if i >= 2 else -1
    out["rho-new-residue"] = ("P", i - 1, (below // old_step + 1) * old_step)
    if i >= 2:
        # moved by multiples of R/r_l(i-1): both residues stay as derived
        t = (P[i - 1] - P[i - 2]) // old_step + 1
        out["rho-increasing"] = ("P", i - 1, P[i - 1] - t * old_step)
    return out


@pytest.mark.parametrize("make,depth", [(dyadic_spec, 6), (triadic_spec, 5),
                                        (harmonic_spec, 6)])
def test_each_invariant_fires_with_its_name_and_index(make, depth):
    data = lattice_data(make, depth)
    fired = set()
    for i in range(1, len(data["r"])):
        for identity, (name, pos, value) in _crafted(data, i).items():
            bad = {k: list(v) for k, v in data.items()}
            bad[name][pos] = value
            with pytest.raises(IdentityViolation) as exc:
                _validate(**bad)
            assert (exc.value.identity, exc.value.index) == (identity, i)
            fired.add(identity)
    assert fired == {"r-divisibility-chain", "s-lower-bound", "c-s-coprime",
                     "rho-residue", "rho-new-residue", "rho-increasing"}


@pytest.mark.parametrize("make,depth", [(dyadic_spec, 6), (triadic_spec, 5),
                                        (harmonic_spec, 6)])
def test_a_rho_off_its_lattice_is_reported_as_such(make, depth):
    # derive floors c_i = P_i*r_l(i)/R, so a P_i off (R/r_l(i))Z leaves a
    # floored c_i that may share a factor with s_i; rho-residue, checked
    # first, names the fault, not c-s-coprime
    data = lattice_data(make, depth)
    r, l, s, P = (data[k] for k in "rlsP")
    R = r[-1]
    for i in range(1, depth):
        step = R // r[l[i]]
        assert step > 1
        moved = next(Pi for Pi in range(P[i - 1] + 1, P[i - 1] + R * s[i - 1])
                     if Pi % step and gcd(Pi * r[l[i]] // R, s[i - 1]) > 1)
        bad = {k: list(v) for k, v in data.items()}
        bad["P"][i - 1] = moved
        bad["c"][i - 1] = moved * r[l[i]] // R
        with pytest.raises(IdentityViolation) as exc:
            _validate(**bad)
        assert (exc.value.identity, exc.value.index) == ("rho-residue", i)
