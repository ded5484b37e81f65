"""Matrix-level computations: charts, monodromy cells, series straightening.

Run as `python demos/03_cells_and_series.py`.
"""

import random

from awbm.affine_weyl import (
    GroupContext,
    WeylElement,
    WeylTuple,
    finite,
    translation,
)
from awbm.bk_gauge import (
    Coefficients,
    SeriesMatrix,
    TwistData,
    recover_left_factor,
    straighten,
)
from awbm.modp_flag import (
    cell_geometry,
    chart_template,
    monodromy_solve,
    required_genericity,
    verify_nabla,
)

print("== an affine chart ==")
z = WeylElement((1, 3, 2), (2, 1, 1))
T = chart_template(z, 0)
print("entry degree windows (hi):", T.window_hi)
print("v-prefactors:", T.prefactor)
print("monic positions (i, j, exponent):", T.monic)
print("determinant: sign", T.det_sign, "power", T.det_power)

print("\n== a monodromy cell ==")
wt = translation((2, 1, 0))
geom = cell_geometry(wt)
print("support roots:", geom.support, " dim:", geom.dim,
      " critical strips:", geom.critical)
p = 13
a_bar = (1, 5, 9)
print("required mod-p genericity:", required_genericity(wt))
A = monodromy_solve(wt, a_bar, p=p)
print("solved matrix passes the monodromy condition:", verify_nabla(A, a_bar))
print("one entry of A as {exponent: coefficient}:", A.entry(3, 1))

print("\n== straightening a series pair ==")
rng = random.Random(0)
field = Coefficients(7)
ctx = GroupContext(2, 1, 7)
twist = TwistData(WeylTuple((finite((2, 1)),)), ((2, 0),), ctx)
zt = twist.dual_element()

ent_a = {(1, 1, 0): 1, (2, 2, 1): 1, (1, 2, 0): 3, (2, 1, 1): 2}
A1 = SeriesMatrix.from_entries(field, 2, ent_a, None)
ent_x = {(1, 1, 0): 1, (2, 2, 0): 1, (1, 2, 1): 1}
X1 = SeriesMatrix.from_entries(field, 2, ent_x, None)
I = straighten([A1.truncate(80)], [X1.truncate(80)], zt, 40, h=1)
print("straightened factor is unipotent-Iwahori:", I[0].is_iw1())
back = recover_left_factor([A1.truncate(80)], I, zt, 40)
print("round trip recovers the left factor mod v^40:",
      back[0].equal_mod(X1.truncate(40), 40))
