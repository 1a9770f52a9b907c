import phdelay


def test_every_export_is_bound_once():
    names = phdelay.__all__
    assert len(names) == len(set(names))
    unbound = [name for name in names if not hasattr(phdelay, name)]
    assert unbound == []
