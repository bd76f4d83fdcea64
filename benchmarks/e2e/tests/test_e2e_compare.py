import compare


def metric(value, q1, q3, n):
    return {"value": value, "q1": q1, "q3": q3, "n": n}


def one(value, q1=None, q3=None, n=16):
    return compare.across_runs([metric(value, q1 or value, q3 or value, n)])


def test_verdicts_against_a_ten_percent_bound():
    base = one(100.0, 98.0, 102.0)
    assert compare.verdict(base, one(115.0), "lower", 0.10)[0] == "worse"
    assert compare.verdict(base, one(105.0), "lower", 0.10)[0] == "within-bound"
    assert compare.verdict(base, one(100.5), "lower", 0.10)[0] == "within-bound"
    assert compare.verdict(base, one(95.0), "lower", 0.10)[0] == "better"
    assert compare.verdict(base, one(85.0), "higher", 0.10)[0] == "worse"
    assert compare.verdict(base, one(105.0), "higher", 0.10)[0] == "better"


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = one(100.0, 50.0, 150.0, n=4)  # 100 % / sqrt(4) = 50 % > 10 %
    assert compare.verdict(noisy, one(100.0), "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(one(100.0), noisy, "lower", 0.10)[0] == "unresolved"


def test_four_runs_a_side_use_the_run_to_run_quartiles():
    runs = [metric(v, v, v, 1) for v in (90.0, 100.0, 110.0, 120.0, 130.0)]
    m = compare.across_runs(runs)
    assert (m["value"], m["q1"], m["q3"], m["n"]) == (110.0, 95.0, 125.0, 5)
    assert m["spread"] == 30.0 / 110.0
