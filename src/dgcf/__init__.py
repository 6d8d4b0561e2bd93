"""Graph collaborative filtering with initial-residual and identity-mapping
propagation; BPRMF and LightGCN are reduced configurations of the same model."""

__version__ = "0.1.0"
