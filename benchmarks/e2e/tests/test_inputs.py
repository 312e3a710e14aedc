import pytest

from workloads import NETWORKS, WORKLOADS, generate


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = WORKLOADS[name]
    network = NETWORKS[name]()
    first = generate(workload, 7, 0.5, network)
    again = generate(workload, 7, 0.5, NETWORKS[name]())
    other = generate(workload, 8, 0.5, network)
    assert first.digest == again.digest
    assert first.digest != other.digest
    if first.events:
        assert [(e.op, e.args) for e in first.events] == [
            (e.op, e.args) for e in again.events]
        # A fixed amount of work: warm-up plus rate x seconds ops.
        assert len(first.events) == workload.warmup_ops + round(
            workload.ops_per_second * 0.5)
        assert len(other.events) == len(first.events)


def test_topologies_do_not_depend_on_the_seed():
    for name, build in NETWORKS.items():
        one, two = build(), build()
        assert (one.num_nodes, one.num_links) == (two.num_nodes, two.num_links)
