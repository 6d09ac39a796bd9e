"""DET003 fixture: a seed derived from the per-process salted hash()."""


def mode_seed(seed, mode_name):
    return seed + hash(mode_name) % 97      # -> DET003
