"""Multi-target domain adaptation building blocks, desk scale."""
