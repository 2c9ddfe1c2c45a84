"""Models of computation: the director implementations.

This package reproduces the Kepler/PtolemyII directors the Linear Road
workflow relies on (SDF and DDF for sub-workflows) plus CONFLuEnCE's
thread-based PNCWF continuous-workflow director.  The full Table 1
taxonomy, PN and DE included, lives in :mod:`repro.directors.taxonomy`
as data.
"""

from .ddf import DDFDirector
from .pncwf import BlockingWindowedReceiver, PNCWFDirector
from .sdf import SDFDirector
from .taxonomy import TAXONOMY, DirectorTaxon, implemented_directors, render_table

__all__ = [
    "BlockingWindowedReceiver",
    "DDFDirector",
    "DirectorTaxon",
    "implemented_directors",
    "PNCWFDirector",
    "render_table",
    "SDFDirector",
    "TAXONOMY",
]
