"""Per-position reference readers that tests compare the vectorized code against."""

from lrdshift import Pyramid


def column_at(pyramid: Pyramid, t: int) -> list[tuple[int, float]]:
    """All (scale, value) pairs whose window provides a value at position ``t``.

    ``t`` is the 1-based scale-1 position.  For non-overlapping layout this
    is the covering block at each scale, included only when the block is
    complete; for sliding layout it is the window ending at ``t``, included
    only once ``t >= L_k``.  Scales without a valid value are omitted.
    """
    if not 1 <= t <= len(pyramid.levels[0]):
        raise ValueError(f"t must be in 1..{len(pyramid.levels[0])}, got {t}")
    out: list[tuple[int, float]] = []
    for k in range(1, pyramid.config.num_scales + 1):
        level = pyramid.levels[k - 1]
        window = pyramid.config.window(k)
        if pyramid.method == "nowa":
            block = (t + window - 1) // window
            if block <= len(level):
                out.append((k, float(level[block - 1])))
        else:
            if t >= window:
                out.append((k, float(level[t - window])))
    return out
