import berglab
from berglab import analysis, berezin, disc, errors, symbols, toeplitz


def test_top_level_reexports_every_submodule_name():
    for module in (analysis, berezin, disc, errors, symbols, toeplitz):
        for name in module.__all__:
            assert getattr(berglab, name) is getattr(module, name), name
    assert len(berglab.__all__) == len(set(berglab.__all__))
    assert all(hasattr(berglab, name) for name in berglab.__all__)
