def partitions(n, maxpart=None):
    """All partitions of n in non-increasing order."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def spider_arm_sets(max_order):
    """Arm tuples of every spider of order <= max_order."""
    for n in range(4, max_order + 1):
        for arms in partitions(n - 1):
            if len(arms) >= 3:
                yield arms


def neighbors(g, v):
    """The ids adjacent to v, read from v's row of the CSR arrays."""
    indptr, indices = g.csr()
    i = g.indices_of([v])[0]
    return tuple(g.vertices[j] for j in indices[indptr[i]:indptr[i + 1]])
