"""Structure-aware text-to-SQL toolkit.

Spider-format schema ingestion and graph construction, question-schema
linking, structure-marked input serialization, trie-constrained beam
decoding behind a pluggable scorer contract, schema-graph JOIN completion,
and set-match evaluation metrics.  Each public name is imported from its
own module, e.g. ``from structsql.schema import load_schemas``.
"""
