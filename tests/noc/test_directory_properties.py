"""Oracle property test for the provider directory (hypothesis).

The directory caches rankings per task and invalidates them per task, so
a stale entry would only show after a particular interleaving of task
switches, failures, recoveries and queries.  Random sequences of all
four are checked, at every step, against a brute-force oracle: the
providers of a task sorted by ``(manhattan distance, node id)``.
"""

from hypothesis import given, settings, strategies as st

from repro.noc.routing import ProviderDirectory
from repro.noc.topology import MeshTopology

# A non-square mesh, so an x/y mix-up in the distance order would show.
MESH = MeshTopology(5, 3)
NODES = st.integers(min_value=0, max_value=MESH.num_nodes - 1)
TASKS = st.integers(min_value=0, max_value=3)

OPERATIONS = st.one_of(
    st.tuples(st.just("set_task"), NODES, st.one_of(st.none(), TASKS)),
    st.tuples(st.just("mark_failed"), NODES),
    st.tuples(st.just("mark_recovered"), NODES),
)


def _oracle_ranking(node_task, origin, task):
    providers = [node for node, t in node_task.items() if t == task]
    return sorted(
        providers, key=lambda node: (MESH.manhattan(origin, node), node)
    )


@settings(max_examples=150, deadline=None)
@given(
    operations=st.lists(OPERATIONS, min_size=1, max_size=40),
    origins=st.lists(NODES, min_size=1, max_size=4),
    excludes=st.lists(st.frozensets(NODES, max_size=4), max_size=3),
)
def test_directory_matches_brute_force_oracle(operations, origins, excludes):
    directory = ProviderDirectory(MESH)
    node_task = {}
    failed = set()
    for operation in operations:
        kind, node = operation[0], operation[1]
        if kind == "set_task":
            directory.set_task(node, operation[2])
            node_task[node] = operation[2]
        elif kind == "mark_failed":
            directory.mark_failed(node)
            if node not in failed:
                failed.add(node)
                node_task[node] = None
        else:
            directory.mark_recovered(node)
            failed.discard(node)
        for task in range(4):
            assert directory.providers(task) == sorted(
                node for node, t in node_task.items() if t == task
            )
            for origin in origins:
                expected = _oracle_ranking(node_task, origin, task)
                assert directory.ranked_providers(origin, task) == expected
                assert directory.nearest_provider(origin, task) == (
                    expected[0] if expected else None
                )
                for exclude in excludes:
                    remaining = [n for n in expected if n not in exclude]
                    # Sets and plain sequences are both accepted.
                    for given_exclude in (set(exclude), tuple(exclude)):
                        assert directory.nearest_provider(
                            origin, task, exclude=given_exclude
                        ) == (remaining[0] if remaining else None)
