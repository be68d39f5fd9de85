"""Discourse parsing toolkit: global chart decoders (exact, partial- and
complete-independence) and a shift-reduce parser over one learned span
representation, trained with structured margin losses."""

__version__ = "0.1.0"
