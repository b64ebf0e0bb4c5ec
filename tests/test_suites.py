import re

from ghwkit import bounds, suites
from ghwkit.suites import run_lemmas


def test_lemmas_searches_each_code_locality_once(monkeypatch):
    calls = []
    real = suites.locality

    def counting(code, **kwargs):
        calls.append(code)
        return real(code, **kwargs)

    monkeypatch.setattr(suites, "locality", counting)
    monkeypatch.setattr(bounds, "locality", counting)
    result = run_lemmas(seed=2024, count=20)
    drawn = int(re.search(r"\((\d+) drawn\)", result.notes[0]).group(1))
    assert result.ok and result.codes == 23
    assert len(calls) == drawn + len(suites._fixtures())
    assert len({id(code) for code in calls}) == len(calls)
