"""Directed-network topology for multivariate time series.

Pipeline: fit a VAR model, turn it into a band-averaged partial directed
coherence network, split the network into symmetric and anti-symmetric
parts, and feed the departure-from-symmetry distance to Vietoris-Rips
persistent homology. Diagrams are summarized by landscapes and compared
with bottleneck / Wasserstein / landscape distances.
"""

from .decomp import (
    DistanceMatrix,
    NetworkDecomposition,
    asym_distance,
    decompose,
)
from .homology import (
    PersistenceDiagram,
    load_diagram,
    persistence,
    rips_filtration,
    save_diagram,
    total_persistence,
)
from .ingest import (
    MultivariateSeries,
    channel_labels,
    default_labels,
    load_series,
    save_series,
    segment,
    standardize,
)
from .pdc import (
    DEFAULT_BANDS,
    DirectedNetwork,
    FrequencyBand,
    pdc_band,
)
from .pipeline import AnalysisReport, PipelineConfig, run_pipeline
from .plots import plot_diagram, plot_landscape
from .simulate import (
    Edge,
    LaggedSystem,
    analysis_band,
    compose_var,
    realize,
    system_one,
    system_two,
)
from .summaries import (
    PersistenceLandscape,
    bottleneck,
    landscape,
    landscape_distance,
    shared_t_max,
    wasserstein,
)
from .var import (
    OrderCriterion,
    VarModel,
    companion_matrix,
    fit_var,
    is_stable,
    select_order,
)

__version__ = "0.1.0"

__all__ = [
    "MultivariateSeries",
    "channel_labels",
    "default_labels",
    "load_series",
    "save_series",
    "segment",
    "standardize",
    "VarModel",
    "OrderCriterion",
    "fit_var",
    "select_order",
    "companion_matrix",
    "is_stable",
    "FrequencyBand",
    "DEFAULT_BANDS",
    "DirectedNetwork",
    "pdc_band",
    "NetworkDecomposition",
    "DistanceMatrix",
    "decompose",
    "asym_distance",
    "PersistenceDiagram",
    "rips_filtration",
    "persistence",
    "total_persistence",
    "save_diagram",
    "load_diagram",
    "PersistenceLandscape",
    "shared_t_max",
    "landscape",
    "landscape_distance",
    "bottleneck",
    "wasserstein",
    "Edge",
    "LaggedSystem",
    "system_one",
    "system_two",
    "compose_var",
    "realize",
    "analysis_band",
    "plot_diagram",
    "plot_landscape",
    "PipelineConfig",
    "AnalysisReport",
    "run_pipeline",
]
