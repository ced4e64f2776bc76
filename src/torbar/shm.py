"""Transport of one-sided bar constructions along dga maps.

`gamma` carries B A (x)_t B to B A (x)_{g o t} B2 along a dga map
g: B -> B2.  It is the Gamma map of a strongly homotopy multiplicative
map whose higher components vanish, so it is 1 (x) g, and its target
reads the one-sided bar's own B A off g o t.
"""
from .graded import GradedElement, LinearMap, tensor_elements
from .dg import TwistingCochain, TwistedTensor


def gamma(g, B2, osb):
    """Gamma_g = 1 (x) g: B A (x)_t B -> B A (x)_{g o t} B2 for a dga map
    g: B -> B2, given as an element map (callable on GradedElements) like
    `OneSidedBar`'s `f`.

    Returns (map, target), the target `TwistedTensor(g o t)` on the
    source's bar.
    """
    field = osb.field
    t = osb.t
    target = TwistedTensor(TwistingCochain(t.C, B2, lambda k: g(t(k)),
                                           name=f"g.{t.name}"))

    def rule(key):
        w, bkey = key.parts
        return tensor_elements(field, GradedElement.single(field, w),
                               g(GradedElement.single(field, bkey)))

    return LinearMap(0, rule), target
