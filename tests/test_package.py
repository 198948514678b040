import qhscatter


def test_every_exported_name_resolves():
    assert len(set(qhscatter.__all__)) == len(qhscatter.__all__)
    missing = [name for name in qhscatter.__all__ if not hasattr(qhscatter, name)]
    assert missing == []
