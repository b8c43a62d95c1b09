"""Small builders shared by the test modules."""

from cmreg.core import validate_presentation


def cyclic(ring, polys):
    """S/(polys) presented with a single generator in degree 0."""
    return validate_presentation(ring, (0,), [list(polys)])


def twisted(pres, s):
    """M[s]: every twist and column degree raised by s, so reg M[s] = reg M + s."""
    return validate_presentation(
        pres.ring,
        tuple(t + s for t in pres.row_twists),
        [list(row) for row in pres.matrix],
        tuple(d + s for d in pres.column_degrees),
    )


def compose(mat_big, mat_small, ring):
    """Matrix product d_k * d_{k+1}: entry (i, l) = sum_j big[i][j] * small[j][l]."""
    rows = len(mat_big)
    mid = len(mat_small)
    cols = len(mat_small[0]) if mid else 0
    out = []
    for i in range(rows):
        row = []
        for l in range(cols):
            acc = ring.zero()
            for j in range(mid):
                acc = acc + mat_big[i][j] * mat_small[j][l]
            row.append(acc)
        out.append(row)
    return out
