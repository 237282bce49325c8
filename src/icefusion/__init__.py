"""Multi-scale radar/radiometer fusion with coefficient importance analysis.

The package trains a small convolutional model that fuses high-resolution
radar imagery with coarse radiometer channels through a per-pixel logistic
mixing layer, then scores every mixing input by its coefficient divided by
its spread.  A synthetic scene generator with controllable information
content makes those scores testable against known ground truth.

Each public name is declared once, in its module's ``__all__``.  The package
root re-exports every name in the ``__all__`` of ``errors``, ``importance``,
``network``, ``rng``, ``scenes``, ``storage`` and ``training``, plus
``__version__``; its own ``__all__`` is those lists joined.  The numerical
kernels (``ops``) and the command line (``cli``) are reached only through
their modules.
"""
from . import errors, importance, network, rng, scenes, storage, training
from .errors import *
from .importance import *
from .network import *
from .rng import *
from .scenes import *
from .storage import *
from .training import *
from .version import __version__

__all__ = ["__version__"] + [
    name
    for module in (errors, importance, network, rng, scenes, storage, training)
    for name in module.__all__
]
