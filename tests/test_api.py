import kerndebias


def test_every_exported_name_resolves():
    missing = [name for name in kerndebias.__all__ if not hasattr(kerndebias, name)]
    assert missing == []
    assert len(set(kerndebias.__all__)) == len(kerndebias.__all__)
