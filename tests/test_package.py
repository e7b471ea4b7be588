import gendisc


def test_all_names_resolve_once():
    # Every name the package exports exists, and none is listed twice.
    missing = [name for name in gendisc.__all__ if not hasattr(gendisc, name)]
    assert missing == []
    assert len(set(gendisc.__all__)) == len(gendisc.__all__)
