"""Serre weight combinatorics: predicted sets, constituents, defect, cycles.

Run as `python demos/02_weights_and_cycles.py`.  A mod-p type rhobar and a
characteristic-zero type tau are both presented by a pair (s, mu); the script
walks through the weight sets attached to them and ends with the cycle
solver, a product of one-embedding solves, whose output expresses each
predicted weight as a rational combination of auxiliary type symbols.
"""

from awbm.affine_weyl import GroupContext, adm, invert, multiply
from awbm.descent import a_tau, descent_data
from awbm.highest_weights import serre_weight
from awbm.inertial_types import make_type
from awbm.weight_sets import (
    _aux_type_from_element,
    bm_cycles,
    defect,
    intersection,
    jh_set,
    max_defect_weight,
    w_question,
    w_rhobar_tau,
)

ctx = GroupContext(3, 1, 211)
rho = make_type(ctx, [(1, 2, 3)], [(50, 25, 0)], kind="F")
# a compatible auxiliary type at a regular admissible relative position
g = adm((2, 1, 0), "regular")[0]
from awbm.affine_weyl import WeylTuple
tau = _aux_type_from_element(
    ctx, WeylTuple((multiply(rho.w_tilde()[0], invert(g)),)))

print("== descent data of tau ==")
dd = descent_data(tau)
print("s_tau:", dd.s_tau, " order:", dd.r, " cover degree f':", dd.f_prime)
print("character exponents:", dd.chi_exponents)
exact, modp = a_tau(tau)
print("inertial weights mod p:", modp[0])

print("\n== predicted weights of rhobar ==")
for rec in w_question(rho):
    print(f"  kappa={serre_weight(rec.presentation)[0]}  obvious={rec.obvious}"
          f"  defect={rec.defect}")

print("\n== constituents of tau ==")
labels = jh_set(tau, ((0, 0, 0),))
print(len(labels), "constituents; first highest weights:",
      sorted(serre_weight(s)[0] for s in labels)[:3], "...")

print("\n== intersection against rhobar ==")
print("w(rhobar, tau) =", (w_rhobar_tau(rho, tau)[0].w,
                           w_rhobar_tau(rho, tau)[0].nu))
common = intersection(rho, tau, ((0, 0, 0),), force=True)
print("intersection size:", len(common))
if common:
    K = max_defect_weight(rho, tau)
    print("defect maximizer:", serre_weight(K)[0],
          " defect:", defect(rho, K, force=True))

print("\n== the cycle solver (a product of one-embedding solves) ==")
solved = bm_cycles(rho)
for sigma, (d, expr) in sorted(solved.items(), key=lambda kv: kv[1][0]):
    coeffs = ", ".join(str(c) for _, c in expr.terms)
    print(f"  defect {d}: kappa={serre_weight(sigma)[0]} -> "
          f"{len(expr.terms)} term(s) with coefficients [{coeffs}]")
