"""Structure-aware text-to-SQL toolkit.

Spider-format schema ingestion and graph construction, question-schema
linking, structure-marked input serialization, trie-constrained beam
decoding behind a pluggable scorer contract, schema-graph JOIN completion,
and set-match evaluation metrics.
"""

from structsql.annotate import (
    AnnotatedInput,
    MarkConfig,
    build_input,
    linearize_schema,
    render_relations,
)
from structsql.complete import CompletionPlan, Disconnected, complete_sql, connect_terminals
from structsql.decode import (
    LexiconConstraint,
    NoValidHypothesis,
    OracleScorer,
    RandomScorer,
    TokenScorer,
    Vocabulary,
    beam_search,
    build_trie,
    external_scorer_connect,
    oracle_scorer,
)
from structsql.linking import (
    LinkAnnotation,
    MatchKind,
    QuestionTokens,
    name_link,
    value_link,
)
from structsql.metrics import (
    EvaluationReport,
    exact_set_match,
    logical_form_match,
    score_corpus,
)
from structsql.schema import (
    ColumnDef,
    ColumnRef,
    ColumnType,
    DatabaseSchema,
    SchemaGraph,
    TableDef,
    build_schema_graph,
    load_schema,
    load_schemas,
    normalize_value,
    to_spider_doc,
)
from structsql.sql_ast import (
    ComponentSet,
    SqlQuery,
    component_set,
    parse_sql,
    render_sql,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedInput",
    "ColumnDef",
    "ColumnRef",
    "ColumnType",
    "ComponentSet",
    "CompletionPlan",
    "DatabaseSchema",
    "Disconnected",
    "EvaluationReport",
    "LexiconConstraint",
    "LinkAnnotation",
    "MarkConfig",
    "MatchKind",
    "NoValidHypothesis",
    "OracleScorer",
    "QuestionTokens",
    "RandomScorer",
    "SchemaGraph",
    "SqlQuery",
    "TableDef",
    "TokenScorer",
    "Vocabulary",
    "beam_search",
    "build_input",
    "build_schema_graph",
    "build_trie",
    "complete_sql",
    "component_set",
    "connect_terminals",
    "exact_set_match",
    "external_scorer_connect",
    "linearize_schema",
    "load_schema",
    "load_schemas",
    "logical_form_match",
    "name_link",
    "normalize_value",
    "oracle_scorer",
    "parse_sql",
    "render_relations",
    "render_sql",
    "score_corpus",
    "to_spider_doc",
    "value_link",
]
