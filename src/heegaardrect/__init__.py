"""Rectangle and double rectangle conditions for Heegaard-splitting diagrams.

The package decides two diagrammatic criteria on the curve diagram formed
by a pair of disk systems on a closed oriented surface: the rectangle
condition (which implies strong irreducibility of the splitting) and the
double rectangle condition (which in addition implies finiteness of the
Goeritz group).  It also regenerates a built-in family of examples by
Dehn twisting a standard disk system along a transversal curve.
"""

from .criteria import (
    CriteriaContext,
    CriteriaGraph,
    Verdict,
    Witness,
    double_rectangle_condition,
    is_two_connected,
    rectangle_condition,
)
from .diagram import (
    Crossing,
    Diagram,
    DiagramError,
    Face,
    FaceSide,
    MINUS,
    PLUS,
)
from .diagramio import (
    build_report,
    graph_to_dot,
    parse_diagram,
    report_to_json,
    report_to_text,
    serialize_diagram,
)
from .systems import (
    CutComponent,
    ValidationReport,
    cut_components,
    validate_disk_systems,
)
from .twist import (
    TwistSpec,
    chain_base,
    dehn_twist,
    example_diagram,
    maximal_chain_base,
    multicurve_map,
)

__all__ = [
    "Crossing", "CriteriaContext", "CriteriaGraph", "CutComponent", "Diagram",
    "DiagramError", "Face", "FaceSide", "MINUS", "PLUS", "TwistSpec",
    "ValidationReport", "Verdict", "Witness", "build_report", "chain_base",
    "cut_components", "dehn_twist", "double_rectangle_condition",
    "example_diagram", "graph_to_dot", "is_two_connected", "maximal_chain_base",
    "multicurve_map", "parse_diagram", "rectangle_condition", "report_to_json",
    "report_to_text", "serialize_diagram", "validate_disk_systems",
]

__version__ = "0.1.0"
