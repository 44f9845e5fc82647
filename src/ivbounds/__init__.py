"""Valid CATE bounds from complex instruments via learned discrete representations."""

__version__ = "0.1.0"


class InputError(ValueError):
    """An input the pipeline refuses: raised before a run writes anything."""
