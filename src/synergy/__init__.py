"""Cache-aided broadcast delivery with delayed channel feedback.

A library (plus ``synergy`` CLI) that plans and executes coded delivery
to K cache-equipped users over a K-antenna broadcast link where channel
state reaches the transmitter only after each use.  It provides exact
rational schedule analytics (delivery time, converse lower bound,
optimality-gap certification below a factor of 4, per-user DoF metrics)
and a symbol-exact prime-field simulation with per-user backward
decoding to verify end-to-end decodability.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from . import bounds, combinatorics, decoder, field, placement, scheduler, simulator
from .bounds import *
from .combinatorics import *
from .decoder import *
from .field import *
from .placement import *
from .scheduler import *
from .simulator import *

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *combinatorics.__all__,
    *decoder.__all__,
    *field.__all__,
    *placement.__all__,
    *scheduler.__all__,
    *simulator.__all__,
]
