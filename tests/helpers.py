"""Helpers shared by the test modules."""


def toggled_defects(edges):
    """Defects an edge set leaves, recounted by toggling its endpoints."""
    cnt = {}
    for a, b in edges:
        cnt[a] = cnt.get(a, 0) + 1
        if b >= 0:
            cnt[b] = cnt.get(b, 0) + 1
    return {v for v, c in cnt.items() if c % 2}
