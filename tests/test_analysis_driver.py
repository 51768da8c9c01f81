"""``repro.inference``: the sweep memo's key and the profile record."""

import dataclasses

from repro.inference import LockInference, memo
from repro.inference.analysis import AnalysisProfile
from repro.inference.memo import shared_analysis
from repro.inference.solver import STAT_NAMES


class _Colliding(str):
    """Source text whose hash collides with every other instance's."""

    def __hash__(self):
        return 42


def test_shared_analysis_is_keyed_on_the_text_not_its_hash(monkeypatch):
    monkeypatch.setattr(memo, "MEMO", memo.AnalysisMemo())
    monkeypatch.setattr(memo, "SharedAnalysis",
                        lambda source, cache_dir: ("front of", str(source)))
    first = _Colliding("int a; void main() { a = 1; }")
    second = _Colliding("int b; void main() { b = 2; }")
    assert hash(first) == hash(second) and first != second
    assert shared_analysis(first) == ("front of", str(first))
    # a memo keyed on hash(source) would return first's front here
    assert shared_analysis(second) == ("front of", str(second))
    assert shared_analysis(first) is shared_analysis(first)


def test_profile_as_dict_mirrors_every_field():
    source = "int g; void f() { atomic { g = g + 1; } } void main() { f(); }"
    profile = LockInference(source, k=3).run().profile
    data = profile.as_dict()
    names = {f.name for f in dataclasses.fields(AnalysisProfile)}
    assert set(data) == names | {"total_time"}
    assert set(STAT_NAMES) <= names  # every solver counter is reported
    for name in names:
        assert data[name] == getattr(profile, name)
    assert data["total_time"] == profile.total_time
    # containers are copies, not views of the live profile
    data["interned_terms"]["x"] = 1
    assert "x" not in profile.interned_terms
