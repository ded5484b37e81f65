"""Exact affine Weyl group combinatorics and mod-p matrix calculus for GL_n.

The public surface is organised by layer: `group` (elements and the group
law, alcove points, length), `affine_weyl` (orders and admissible sets, with
the names of `group` re-exported), `primes` (the prime test), `context`
(tuples over the embeddings, the context and the base-alcove depth),
`weights` (lowest alcove presentations, central characters and depth),
`highest_weights` (the highest weight kappa of a presentation and the
presentation of a kappa), `polynomials` (the genericity polynomials P_m),
`inertial_types` (tame type presentations), `descent` (descent data and
inertial weights), `weight_sets` (predicted sets, covering, defect, the
cycle solver), `series` (the matrix kernel over F_q[v, v^-1]), `modp_flag`
(charts, Schubert cells, the monodromy condition, component fixed points),
`bk_gauge` (the gauge calculus on truncated series, and shapes), `oracles`
(naive reference implementations), and `cli` (the JSON command line, whose
handlers live in one `cli_*` module per command family).

Each layer module runs on its first attribute access, so a caller pays only
for the layers it uses.
"""

import importlib.util
import sys

from .errors import AwbmError

__version__ = "0.1.0"

# Every layer is bound here and registered in sys.modules unexecuted, so
# `from . import bk_gauge` and `import awbm.bk_gauge` find it without running
# it.  LazyLoader is not thread-safe on Python 3.11; the library starts no
# threads.  `cli` is not registered: `python -m awbm.cli` must find it absent
# from sys.modules.
for _name in ("group", "affine_weyl", "primes", "context", "weights",
              "highest_weights", "polynomials", "inertial_types", "descent",
              "weight_sets", "series", "modp_flag", "bk_gauge", "oracles"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module

# the package's re-exports, served from their layers on first access
_EXPORTS = {
    "affine_weyl": (
        "adm", "ap_enumerate", "bruhat_interval", "bruhat_leq", "classify",
        "regular_factorization", "up_leq"),
    "context": ("GroupContext", "WeylTuple"),
    "descent": ("a_tau", "descent_data"),
    "group": ("WeylElement", "evaluate", "length", "multiply", "star"),
    "highest_weights": ("lap_of", "serre_weight"),
    "inertial_types": ("TameTypePresentation", "make_type"),
    "polynomials": ("build_Pm", "genericity", "superscript"),
    "weight_sets": (
        "CycleExpr", "bm_cycles", "covers", "defect", "intersection",
        "jh_set", "max_defect_weight", "w_question"),
    "weights": (
        "CentralCharacter", "SerreWeightPresentation", "central_character"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(["AwbmError", *_LAYER_OF])


def __getattr__(name):
    if name in _LAYER_OF:
        return getattr(globals()[_LAYER_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYER_OF})
