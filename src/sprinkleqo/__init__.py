"""Cost-based query optimizer over join-order AND/OR dags.

Join orders for a schema's join conditions are enumerated once into a
reusable history dag; per query, select/project/group-by/order-by operators
are then sprinkled over the extracted join dag.  An exhaustive baseline that
permutes every condition provides differential verification, and closed-form
estimators bound the search-space sizes of both modes.
"""

from .analytics import (ComplexityParams, MetricsReport, MetricsRow,
                        andor_eqnodes_after_selects, andor_plans_after_selects,
                        collect_metrics, joindag_eqnodes_after_selects,
                        joindag_time_complexity, naive_time_complexity,
                        report_from_csv, report_to_csv)
from .catalog import (Attribute, Catalog, Relation, SchemaGraph, Stats, load_catalog,
                      load_catalog_file)
from .costplan import Plan, best_plan, estimate_size, op_cost
from .errors import (CatalogError, DagError, LimitExceededError, ParseError,
                     PersistenceError, SprinkleQoError, ValidationError)
from .joindag import (HistoryDag, build_complete_history, build_incremental,
                      empty_history, load_history, save_history)
from .memo import Dag, count_nodes, export_dot
from .naive import build_naive_dag, incremental_naive_add, permutations_considered
from .sprinkle import (OptimizeResult, optimize_many, optimize_single, sprinkle_projects,
                       sprinkle_selects)
from .sqlfront import (JoinCondition, Query, SelectCondition, parse_query,
                       render_query)

__all__ = [name for name in dir() if not name.startswith("_")]
