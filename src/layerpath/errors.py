"""Exception types shared across the package."""


class LayerPathError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(LayerPathError):
    """Structural violation in a multi-layered network."""


class LoopEdgeError(GraphError):
    """Edge with identical source and destination."""


class DuplicateEdgeError(GraphError):
    """A (src, dst, layer) triple that is already present."""


class WeightOutOfRangeError(GraphError):
    """Edge weight outside the closed interval [0, 1]."""


class UnknownNodeError(GraphError):
    """Node id not registered in the network."""


class UnknownLayerError(GraphError):
    """Layer index or label not registered in the network."""


class SealedNetworkError(GraphError):
    """Mutation attempted on a sealed network."""


class UnsealedNetworkError(GraphError):
    """Algorithm invoked on a network that has not been sealed yet."""


class ParameterError(LayerPathError):
    """Invalid aggregation or query parameter."""


class InvalidAlphaError(ParameterError):
    """Layer-count threshold must be an integer >= 1."""


class InvalidBetaError(ParameterError):
    """Distance threshold must lie in [0, 1]."""


class SameNodeError(ParameterError):
    """Pairwise query with identical endpoints."""


class SizeGuardExceededError(LayerPathError):
    """Input larger than the configured node cap for an expensive routine."""


class ParseError(LayerPathError):
    """Malformed edge-list input; message carries file and line context."""


class EmptyFileError(ParseError):
    """Edge-list file with no data rows."""
