"""Cost-based query optimizer over join-order AND/OR dags.

Join orders for a schema's join conditions are enumerated once into a
reusable history dag; per query, select/project/group-by/order-by operators
are then sprinkled over the extracted join dag.  An exhaustive baseline that
permutes every condition provides differential verification, and closed-form
estimators bound the search-space sizes of both modes.
"""
